package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/trace"
)

// HTTP transport: the same batch protocol over POST /shard/run. A
// remote worker process holds the profiled training set (matrix + row
// subset deployed alongside it), serves NewWorkerHandler, and the
// coordinator drives it through HTTPTransport — the Transport interface
// hides which side of the wire the worker is on. Bit-exactness survives
// the hop because encoding/json renders float64s in shortest
// round-trip form.

// workerPath is the batch endpoint served by NewWorkerHandler and
// called by HTTPTransport.
const workerPath = "/shard/run"

// NewWorkerHandler exposes w over HTTP. The handler serves
// POST /shard/run, reading a BatchRequest body and answering the
// BatchResponse; malformed frames get 400, worker/spec mismatches 409.
func NewWorkerHandler(w *Worker) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+workerPath, func(rw http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(rw, http.StatusBadRequest, "invalid batch request: %v", err)
			return
		}
		resp, err := w.Run(r.Context(), req)
		if err != nil {
			httpError(rw, http.StatusConflict, "%v", err)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(resp)
	})
	return mux
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// HTTPTransport runs batches against a remote worker serving
// NewWorkerHandler at Base (e.g. "http://worker-3:9090").
//
// Transient failures — transport errors, 5xx responses, and 429
// overload sheds — are retried up to MaxAttempts with
// decorrelated-jitter backoff, honoring a Retry-After header and the
// caller's context. Batch runs are pure functions of the deployed
// matrix slice, so re-sending one is always safe. Other 4xx responses
// (a malformed frame, a worker/spec mismatch) are permanent and
// returned immediately.
type HTTPTransport struct {
	Base string
	// Client defaults to http.DefaultClient.
	Client *http.Client
	// MaxAttempts bounds total attempts including the first (0 = 3;
	// 1 disables retries).
	MaxAttempts int
	// BaseBackoff is the decorrelated-jitter floor (0 = 25ms); each
	// retry sleeps a uniform draw from [BaseBackoff, 3*previous],
	// capped at MaxBackoff (0 = 2s), stretched to a server Retry-After.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Rand overrides the jitter source with [0, 1) draws (tests pin
	// it); nil uses math/rand/v2.
	Rand func() float64
}

// Run implements Transport by POSTing the batch to the remote worker,
// retrying transient failures. Every attempt of one batch carries the
// same X-Toltiers-Trace id (the context's when the caller set one,
// otherwise minted by api.Retry), so worker-side logs correlate retries
// to one logical batch.
func (t *HTTPTransport) Run(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return BatchResponse{}, fmt.Errorf("shard: encode batch: %w", err)
	}
	return api.Retry(ctx, t.backoff(), func(ctx context.Context) (BatchResponse, time.Duration, bool, error) {
		return t.post(ctx, body)
	})
}

// backoff maps the transport's retry fields onto the shared api.Backoff,
// filling its defaults.
func (t *HTTPTransport) backoff() api.Backoff {
	b := api.Backoff{Attempts: t.MaxAttempts, Base: t.BaseBackoff, Max: t.MaxBackoff, Rand: t.Rand}
	if b.Attempts < 1 {
		b.Attempts = 3
	}
	if b.Base <= 0 {
		b.Base = 25 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	return b
}

// post sends one attempt. transient classifies the failure; retryAfter
// carries the worker's backoff hint, if any.
func (t *HTTPTransport) post(ctx context.Context, body []byte) (BatchResponse, time.Duration, bool, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.Base+workerPath, bytes.NewReader(body))
	if err != nil {
		return BatchResponse{}, 0, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id := trace.IDFromContext(ctx); id != 0 {
		hreq.Header.Set(api.HeaderTrace, trace.FormatID(id))
	}
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	hresp, err := client.Do(hreq)
	if err != nil {
		return BatchResponse{}, 0, true, fmt.Errorf("shard: worker %s: %w", t.Base, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 4096))
		drainBody(hresp.Body)
		transient := api.TransientStatus(hresp.StatusCode)
		retryAfter := api.ParseRetryAfter(hresp.Header.Get(api.HeaderRetryAfter), time.Now())
		return BatchResponse{}, retryAfter, transient,
			fmt.Errorf("shard: worker %s: status %d: %s", t.Base, hresp.StatusCode, bytes.TrimSpace(msg))
	}
	var resp BatchResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return BatchResponse{}, 0, true, fmt.Errorf("shard: decode batch response: %w", err)
	}
	drainBody(hresp.Body)
	return resp, 0, false, nil
}

// drainBody discards what remains of a response body so the underlying
// connection is reusable by keep-alive. Without it every error response
// larger than the diagnostic read left unread bytes, the transport
// closed the connection, and each retry re-dialed — exactly when the
// worker was overloaded. The drain is bounded: a response still
// streaming past the cap is cheaper to abandon (one closed connection)
// than to swallow.
func drainBody(r io.Reader) {
	_, _ = io.Copy(io.Discard, io.LimitReader(r, 1<<20))
}
