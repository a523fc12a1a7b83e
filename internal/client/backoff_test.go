package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/trace"
)

// TestRetryLoop pins the loop every *WithRetry call shares: transient
// failures retry up to MaxAttempts under one trace id and sleep the
// server's hint, a permanent failure returns at once, and a cancelled
// sleep ends the call.
func TestRetryLoop(t *testing.T) {
	boom := &APIError{StatusCode: 503, RetryAfter: 2 * time.Second}
	var slept []time.Duration
	p := RetryPolicy{MaxAttempts: 3, Sleep: func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}}

	var ids []uint64
	_, err := withRetry(context.Background(), p, func(ctx context.Context) (int, error) {
		ids = append(ids, trace.IDFromContext(ctx))
		return 0, boom
	})
	if !errors.Is(err, boom) || len(ids) != 3 {
		t.Fatalf("transient failure: %d attempts, err %v; want 3 attempts wrapping boom", len(ids), err)
	}
	if ids[0] == 0 || ids[0] != ids[1] || ids[1] != ids[2] {
		t.Fatalf("attempts ran under trace ids %v, want one minted id", ids)
	}
	if len(slept) != 2 || slept[0] != 2*time.Second || slept[1] != 2*time.Second {
		t.Fatalf("slept %v, want the 2s hint before each retry", slept)
	}

	calls := 0
	got, err := withRetry(trace.ContextWithID(context.Background(), 42), p, func(ctx context.Context) (int, error) {
		if calls++; calls == 1 {
			return 0, &APIError{StatusCode: 503}
		}
		return int(trace.IDFromContext(ctx)), nil
	})
	if err != nil || got != 42 || calls != 2 {
		t.Fatalf("recovering call = %d, %v after %d calls; want the caller's id 42 on attempt 2", got, err, calls)
	}

	calls = 0
	permanent := &APIError{StatusCode: 400}
	_, err = withRetry(context.Background(), p, func(context.Context) (int, error) {
		calls++
		return 0, permanent
	})
	if err != permanent || calls != 1 {
		t.Fatalf("permanent failure: %d calls, err %v; want the bare error after one", calls, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Sleep = nil
	_, err = withRetry(ctx, p, func(context.Context) (int, error) {
		time.AfterFunc(5*time.Millisecond, cancel) // fires inside the 1-minute hint sleep
		return 0, &APIError{StatusCode: 503, RetryAfter: time.Minute}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("call cancelled mid-sleep returned %v, want context.Canceled", err)
	}
}
