package client

import (
	"time"

	"github.com/toltiers/toltiers/internal/api"
)

// The retry tests pin the shared backoff policy (api.Backoff) through
// the names it had when this package owned a copy.
const maxRetryAfterHonor = api.MaxRetryAfterHonor

func (p RetryPolicy) next(prev time.Duration, lastErr error) time.Duration {
	retryAfter, _ := verdict(lastErr)
	return p.backoff().Next(prev, retryAfter)
}

func retryable(err error) bool {
	_, transient := verdict(err)
	return transient
}
