package api

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"github.com/toltiers/toltiers/internal/trace"
)

// Backoff is the retry policy of the client SDK's *WithRetry calls,
// which map their own fields and defaults onto it. Every call it drives
// must be idempotent: a retried attempt may repeat work the server
// already did.
type Backoff struct {
	// Attempts bounds total tries, including the first (< 1 = 1).
	Attempts int
	// Base is the decorrelated-jitter floor: each retry sleeps a uniform
	// draw from [Base, 3*previous], capped at Max. With Base 0 nothing is
	// drawn: a retry waits only as long as a Retry-After hint has asked.
	Base, Max time.Duration
	// Rand overrides the jitter source with [0, 1) draws (nil =
	// math/rand/v2; tests pin it).
	Rand func() float64
	// Sleep overrides the wait between attempts (nil = SleepContext).
	Sleep func(ctx context.Context, d time.Duration) error
}

// MaxRetryAfterHonor bounds how long a server Retry-After hint can
// stretch one sleep. The hint deliberately overrides Backoff.Max — the
// cap shapes the caller's own jitter, while the hint is the server
// saying how long it needs; truncating it to the cap would send a whole
// fleet of callers back early, in sync, at an overloaded node — but an
// absurd or hostile hint must not park a caller for hours, hence this
// explicit ceiling.
const MaxRetryAfterHonor = 5 * time.Minute

// TransientStatus reports whether an HTTP error status warrants another
// attempt: 5xx, and 429 — the admission layer's token-bucket shed, which
// tells the caller when to come back. Other 4xx answers are permanent.
func TransientStatus(code int) bool {
	return code >= http.StatusInternalServerError || code == http.StatusTooManyRequests
}

// Next draws the decorrelated-jitter delay following prev, stretched to
// at least the server's Retry-After hint (0 = none). Max caps only the
// jittered draw; the hint is honored above it, up to
// MaxRetryAfterHonor.
func (b Backoff) Next(prev, retryAfter time.Duration) time.Duration {
	d := prev
	if b.Base > 0 {
		r := b.Rand
		if r == nil {
			r = rand.Float64
		}
		hi := max(3*prev, b.Base)
		d = min(b.Base+time.Duration(r()*float64(hi-b.Base)), b.Max)
	}
	return max(d, min(retryAfter, MaxRetryAfterHonor))
}

// SleepContext waits d or until ctx is done.
func SleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retry drives one idempotent call through the policy. call reports,
// beside its result, the server's Retry-After hint and whether a failure
// is transient; a permanent failure, a dead context, or an interrupted
// sleep returns at once. Every attempt runs under one trace id — ctx's
// when it carries one, otherwise minted here — so the X-Toltiers-Trace
// header lets the server correlate them as one logical request.
func Retry[T any](ctx context.Context, b Backoff, call func(context.Context) (T, time.Duration, bool, error)) (T, error) {
	var zero T
	if trace.IDFromContext(ctx) == 0 {
		ctx = trace.ContextWithID(ctx, trace.NextID())
	}
	attempts := max(b.Attempts, 1)
	sleep := b.Sleep
	if sleep == nil {
		sleep = SleepContext
	}
	var delay time.Duration
	for attempt := 1; ; attempt++ {
		res, retryAfter, transient, err := call(ctx)
		switch {
		case err == nil:
			return res, nil
		case !transient || ctx.Err() != nil:
			return zero, err
		case attempt >= attempts:
			return zero, fmt.Errorf("%d attempts failed: %w", attempts, err)
		}
		delay = b.Next(delay, retryAfter)
		if err := sleep(ctx, delay); err != nil {
			return zero, err
		}
	}
}
