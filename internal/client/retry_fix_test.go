package client

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestNextHonorsRetryAfterOverCap pins the hint-vs-cap ordering in the
// SDK retry policy: a server Retry-After larger than MaxBackoff must be
// honored, not silently clamped back to the cap.
func TestNextHonorsRetryAfterOverCap(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second,
		Rand: func() float64 { return 0 }}
	hint := &APIError{StatusCode: 503, RetryAfter: 30 * time.Second}
	if d := p.next(0, hint); d != 30*time.Second {
		t.Fatalf("next with 30s hint = %v, want the hint honored over the 1s cap", d)
	}
	// Without a hint the jittered draw still respects the cap.
	pc := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second,
		Rand: func() float64 { return 1 }}
	if d := pc.next(time.Hour, &APIError{StatusCode: 500}); d != time.Second {
		t.Fatalf("capless draw = %v, want capped at 1s", d)
	}
	// The hint itself is bounded by the documented ceiling.
	huge := &APIError{StatusCode: 503, RetryAfter: time.Hour}
	if d := p.next(0, huge); d != maxRetryAfterHonor {
		t.Fatalf("1h hint = %v, want clamped to %v", d, maxRetryAfterHonor)
	}
}

// TestRetryAfterHTTPDate pins the RFC 9110 HTTP-date form on the SDK
// side: decodeError must surface it as a usable hint, not 0.
func TestRetryAfterHTTPDate(t *testing.T) {
	at := time.Now().Add(45 * time.Second)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", at.UTC().Format(http.TimeFormat))
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	cl := New(ts.URL, ts.Client())
	_, err := cl.Compute(context.Background(), 1, 0.05, "response-time")
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.RetryAfter < 40*time.Second || apiErr.RetryAfter > 45*time.Second {
		t.Fatalf("HTTP-date Retry-After surfaced as %v, want ~45s", apiErr.RetryAfter)
	}
}

// TestErrorBodyDrainedForKeepAlive pins the drain in decodeError: an
// error body larger than the 64 KiB diagnostic read must still leave
// the connection reusable, so a retrying client does not re-dial on
// every attempt exactly when the server is shedding.
func TestErrorBodyDrainedForKeepAlive(t *testing.T) {
	big := strings.Repeat("x", 256<<10)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(big))
	}))
	var dials atomic.Int64
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	cl := New(ts.URL, ts.Client())
	policy := RetryPolicy{MaxAttempts: 3, Sleep: noSleep}
	if _, err := cl.ComputeWithRetry(context.Background(), 1, 0.05, "response-time", policy); err == nil {
		t.Fatal("want the retries to exhaust against a 500-only server")
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("3 attempts used %d connections, want 1 (drained keep-alive reuse)", n)
	}
}
