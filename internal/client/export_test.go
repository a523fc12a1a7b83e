package client

import "time"

func (p RetryPolicy) next(prev time.Duration, lastErr error) time.Duration {
	retryAfter, _ := verdict(lastErr)
	return p.delay(prev, retryAfter)
}

func retryable(err error) bool {
	_, transient := verdict(err)
	return transient
}
