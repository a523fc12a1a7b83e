package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/trace"
)

// RetryPolicy controls the *WithRetry calls. Transient failures —
// transport errors, 5xx responses, and 429 admission sheds — are
// retried with decorrelated-jitter backoff; other 4xx responses are
// permanent and returned immediately. A server Retry-After hint (sent
// by the admission layer on 429/503 sheds) overrides a computed delay
// that is shorter, so a fleet of clients backs off as told instead of
// hammering an overloaded node in sync. Sleeping always honors context
// cancellation.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts (including the first). Values
	// below 1 are treated as 1.
	MaxAttempts int
	// BaseBackoff is the decorrelated-jitter floor: each retry sleeps a
	// uniform draw from [BaseBackoff, 3*previous], capped at
	// MaxBackoff. Zero disables sleeping (useful in tests).
	BaseBackoff time.Duration
	// MaxBackoff caps the jittered delay (0 = 10s).
	MaxBackoff time.Duration
	// Sleep overrides the sleeping function (nil = timer sleep with
	// context cancellation).
	Sleep func(ctx context.Context, d time.Duration) error
	// Rand overrides the jitter source with a function returning
	// [0, 1) draws (nil = math/rand/v2; tests pin it).
	Rand func() float64
}

// DefaultRetryPolicy retries three times starting at 50ms.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Millisecond}
}

// maxRetryAfterHonor bounds how long a server Retry-After hint can
// stretch one sleep. The hint deliberately overrides MaxBackoff — the
// cap shapes the caller's own jitter, while the hint is the server
// saying how long it needs; truncating it to the cap would send a whole
// fleet of callers back early, in sync, at an overloaded node — but an
// absurd or hostile hint must not park a caller for hours, hence this
// explicit ceiling.
const maxRetryAfterHonor = 5 * time.Minute

// delay draws the decorrelated-jitter delay following prev, stretched
// to at least the server's Retry-After hint (0 = none). MaxBackoff caps
// only the jittered draw; the hint is honored above it, up to
// maxRetryAfterHonor.
func (p RetryPolicy) delay(prev, retryAfter time.Duration) time.Duration {
	d := prev
	if p.BaseBackoff > 0 {
		r := p.Rand
		if r == nil {
			r = rand.Float64
		}
		capd := p.MaxBackoff
		if capd <= 0 {
			capd = 10 * time.Second
		}
		hi := max(3*prev, p.BaseBackoff)
		d = min(p.BaseBackoff+time.Duration(r()*float64(hi-p.BaseBackoff)), capd)
	}
	return max(d, min(retryAfter, maxRetryAfterHonor))
}

// sleepContext waits d or until ctx is done.
func sleepContext(ctx context.Context, d time.Duration) error {
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

// verdict classifies a failed attempt for the backoff loop: an API
// error carries the server's Retry-After hint and is transient for 5xx
// and 429 — the admission layer's token-bucket shed, which tells the
// caller when to come back — while other 4xx answers are permanent;
// transport-level failures are retryable.
func verdict(err error) (retryAfter time.Duration, transient bool) {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		code := apiErr.StatusCode
		return apiErr.RetryAfter, code >= http.StatusInternalServerError || code == http.StatusTooManyRequests
	}
	return 0, true
}

// withRetry drives one idempotent call through the policy. All the
// repo's API calls are idempotent (corpus requests are pure lookups by
// ID), so retrying a response that may already have been computed is
// safe. A permanent failure, a dead context, or an interrupted sleep
// returns at once. Every attempt runs under one trace id — ctx's when
// it carries one, otherwise minted here — so the X-Toltiers-Trace
// header lets the server correlate them as one logical request.
func withRetry[T any](ctx context.Context, policy RetryPolicy, call func(context.Context) (T, error)) (T, error) {
	var zero T
	if trace.IDFromContext(ctx) == 0 {
		ctx = trace.ContextWithID(ctx, trace.NextID())
	}
	attempts := max(policy.MaxAttempts, 1)
	sleep := policy.Sleep
	if sleep == nil {
		sleep = sleepContext
	}
	var delay time.Duration
	for attempt := 1; ; attempt++ {
		res, err := call(ctx)
		if err == nil {
			return res, nil
		}
		retryAfter, transient := verdict(err)
		switch {
		case !transient || ctx.Err() != nil:
			return zero, err
		case attempt >= attempts:
			return zero, fmt.Errorf("%d attempts failed: %w", attempts, err)
		}
		delay = policy.delay(delay, retryAfter)
		if err := sleep(ctx, delay); err != nil {
			return zero, err
		}
	}
}

// ComputeWithRetry is Compute with the retry policy applied.
func (c *Client) ComputeWithRetry(ctx context.Context, requestID int, tolerance float64, objective rulegen.Objective, policy RetryPolicy) (*api.ComputeResult, error) {
	return withRetry(ctx, policy, func(ctx context.Context) (*api.ComputeResult, error) {
		return c.Compute(ctx, requestID, tolerance, objective)
	})
}

// DispatchWithRetry is Dispatch with the retry policy applied —
// notably, a 429 token-bucket shed backs off by the server's
// Retry-After hint before the next attempt.
func (c *Client) DispatchWithRetry(ctx context.Context, requestID int, tolerance float64, objective rulegen.Objective, deadline time.Duration, policy RetryPolicy) (*api.DispatchResult, error) {
	return withRetry(ctx, policy, func(ctx context.Context) (*api.DispatchResult, error) {
		return c.Dispatch(ctx, requestID, tolerance, objective, deadline)
	})
}
