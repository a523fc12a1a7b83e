package client

import (
	"context"
	"errors"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/rulegen"
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

// backoff maps the policy onto the shared api.Backoff, filling the
// SDK's default cap.
func (p RetryPolicy) backoff() api.Backoff {
	capd := p.MaxBackoff
	if capd <= 0 {
		capd = 10 * time.Second
	}
	return api.Backoff{Attempts: p.MaxAttempts, Base: p.BaseBackoff, Max: capd, Rand: p.Rand, Sleep: p.Sleep}
}

// verdict classifies a failed attempt for the backoff loop: an API
// error carries the server's Retry-After hint and is transient by its
// status (api.TransientStatus); transport-level failures are retryable.
func verdict(err error) (retryAfter time.Duration, transient bool) {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter, api.TransientStatus(apiErr.StatusCode)
	}
	return 0, true
}

// withRetry drives one idempotent call through the policy. All the
// repo's API calls are idempotent (corpus requests are pure lookups by
// ID), so retrying a response that may already have been computed is
// safe.
func withRetry[T any](ctx context.Context, policy RetryPolicy, call func(context.Context) (T, error)) (T, error) {
	return api.Retry(ctx, policy.backoff(), func(ctx context.Context) (T, time.Duration, bool, error) {
		res, err := call(ctx)
		retryAfter, transient := verdict(err)
		return res, retryAfter, transient, err
	})
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
