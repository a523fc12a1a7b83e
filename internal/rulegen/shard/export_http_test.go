package shard

import (
	"time"

	"github.com/toltiers/toltiers/internal/api"
)

// The retry tests pin the shared backoff policy through the names it
// had when this package owned a copy.
const maxRetryAfterHonor = api.MaxRetryAfterHonor

func (t *HTTPTransport) next(prev, retryAfter time.Duration) time.Duration {
	return t.backoff().Next(prev, retryAfter)
}
