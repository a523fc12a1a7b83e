package api

import (
	"net/http"
	"strconv"
	"time"
)

// ParseRetryAfter parses an HTTP Retry-After header value per RFC 9110
// §10.2.3, which allows two forms: a non-negative decimal delay in
// seconds ("120") or an HTTP-date ("Fri, 31 Dec 1999 23:59:59 GMT",
// including the obsolete RFC 850 and asctime spellings http.ParseTime
// accepts). now anchors the date form: the returned delay is the time
// remaining until the date. Absent, malformed, zero, and
// already-elapsed values all return 0 — callers treat 0 as "no hint".
//
// The client SDK routes its backoff hints through here (via
// RetryAfterHint).
func ParseRetryAfter(value string, now time.Time) time.Duration {
	if value == "" {
		return 0
	}
	if secs, err := strconv.Atoi(value); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(value); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// RetryAfterHint extracts a server backoff hint from a response header
// set: the millisecond-precision X-Toltiers-Retry-After-MS extension
// when present (the admission layer sends both), the standard
// Retry-After — seconds or HTTP-date — otherwise. 0 means no hint.
func RetryAfterHint(h http.Header, now time.Time) time.Duration {
	if ms := h.Get(HeaderRetryAfterMS); ms != "" {
		if v, err := strconv.ParseFloat(ms, 64); err == nil && v > 0 {
			return time.Duration(v * float64(time.Millisecond))
		}
	}
	return ParseRetryAfter(h.Get(HeaderRetryAfter), now)
}
