package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/trace"
)

// routed mounts h under pattern on a fresh mux: requests are counted by
// the pattern the wrapped handler's mux matched.
func routed(pattern string, h http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc(pattern, h)
	return mux
}

func TestInstrumentCountsRequests(t *testing.T) {
	inner := routed("GET /compute", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	m := NewMetrics()
	ts := httptest.NewServer(Instrument(inner, m, nil))
	defer ts.Close()
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/compute")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	snap := m.Snapshot()
	if snap.Handled != 3 {
		t.Fatalf("handled = %d", snap.Handled)
	}
	if snap.Requests["GET /compute 418"] != 3 {
		t.Fatalf("requests = %v", snap.Requests)
	}
	if snap.MeanHandlerLatencyMS < 0 {
		t.Fatalf("latency %v", snap.MeanHandlerLatencyMS)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	inner := routed("GET /x", func(w http.ResponseWriter, _ *http.Request) {})
	m := NewMetrics()
	ts := httptest.NewServer(Instrument(inner, m, nil))
	defer ts.Close()
	if resp, err := http.Get(ts.URL + "/x"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Handled != 1 || snap.Requests["GET /x 200"] != 1 {
		t.Fatalf("snapshot over the wire = %+v", snap)
	}
}

func TestInstrumentLogging(t *testing.T) {
	var sb syncBuffer
	logger := slog.New(slog.NewTextHandler(&sb, nil))
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {})
	ts := httptest.NewServer(Instrument(inner, NewMetrics(), logger))
	defer ts.Close()
	req, _ := http.NewRequest("GET", ts.URL+"/tiers", nil)
	req.Header.Set("Tolerance", "0.01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	line := sb.String()
	for _, want := range []string{"msg=request", "method=GET", "path=/tiers", "status=200", "tol=0.01"} {
		if !strings.Contains(line, want) {
			t.Fatalf("log line missing %q: %q", want, line)
		}
	}
	// The log line's trace id must be the one echoed on the response.
	echoed := resp.Header.Get(api.HeaderTrace)
	if _, ok := trace.ParseID(echoed); !ok {
		t.Fatalf("response trace header %q not a trace id", echoed)
	}
	if !strings.Contains(line, "trace="+echoed) {
		t.Fatalf("log line does not join to trace %q: %q", echoed, line)
	}
}

// TestInstrumentTraceHeader pins the id contract: a parseable incoming
// X-Toltiers-Trace is reused (retries of one logical request correlate),
// garbage is replaced with a fresh mint, and the id reaches the wrapped
// handler in the request header, from which the tier-execution path
// builds its dispatch context.
func TestInstrumentTraceHeader(t *testing.T) {
	var gotCtx uint64
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotCtx = trace.IDFromContext(traceContext(r))
	})
	ts := httptest.NewServer(Instrument(inner, NewMetrics(), nil))
	defer ts.Close()

	id := trace.NextID()
	req, _ := http.NewRequest("GET", ts.URL+"/tiers", nil)
	req.Header.Set(api.HeaderTrace, trace.FormatID(id))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(api.HeaderTrace); got != trace.FormatID(id) {
		t.Fatalf("echoed %q, want %q", got, trace.FormatID(id))
	}
	if gotCtx != id {
		t.Fatalf("context id %x, want %x", gotCtx, id)
	}

	// Garbage — the all-zero id included, which has the wire form's shape
	// but names no trace — is replaced, for the handler as on the echo.
	for _, garbage := range []string{"not-a-trace-id", "0000000000000000"} {
		req, _ = http.NewRequest("GET", ts.URL+"/tiers", nil)
		req.Header.Set(api.HeaderTrace, garbage)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		minted, ok := trace.ParseID(resp.Header.Get(api.HeaderTrace))
		if !ok || minted == id || gotCtx != minted {
			t.Fatalf("%q not replaced with a fresh id: echoed %q, handler saw %x", garbage, resp.Header.Get(api.HeaderTrace), gotCtx)
		}
	}
	// A short or upper-case spelling keeps its id and is echoed canonically.
	req, _ = http.NewRequest("GET", ts.URL+"/tiers", nil)
	req.Header.Set(api.HeaderTrace, "ABC")
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(api.HeaderTrace); got != trace.FormatID(0xabc) || gotCtx != 0xabc {
		t.Fatalf("short id echoed %q, handler saw %x", got, gotCtx)
	}
}

// TestMetricsHistogramQuantiles pins the fixed-bucket quantiles: with
// 100 observations of 2ms and one of 200ms, p50 lands in the 2.5ms
// bucket and p99+ in the tail.
func TestMetricsHistogramQuantiles(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 100; i++ {
		m.observe("GET /x", 200, 2*time.Millisecond)
	}
	m.observe("GET /x", 200, 200*time.Millisecond)
	snap := m.Snapshot()
	if snap.P50HandlerLatencyMS != 2.5 {
		t.Fatalf("p50 = %v, want 2.5", snap.P50HandlerLatencyMS)
	}
	if snap.P95HandlerLatencyMS != 2.5 {
		t.Fatalf("p95 = %v, want 2.5", snap.P95HandlerLatencyMS)
	}
	if snap.P99HandlerLatencyMS != 2.5 {
		t.Fatalf("p99 = %v, want 2.5 (101 obs: 99th is still in the 2.5ms bucket)", snap.P99HandlerLatencyMS)
	}
	// Push the tail until p99 crosses into the 250ms bucket.
	for i := 0; i < 10; i++ {
		m.observe("GET /x", 200, 200*time.Millisecond)
	}
	if p := m.Snapshot().P99HandlerLatencyMS; p != 250 {
		t.Fatalf("p99 = %v, want 250", p)
	}
}

// TestInstrumentPrometheus checks the middleware prepends its handler
// families to whatever the wrapped handler writes for the exposition.
func TestInstrumentPrometheus(t *testing.T) {
	inner := routed("GET /tiers", func(http.ResponseWriter, *http.Request) {})
	inner.HandleFunc("GET /metrics/prometheus", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("inner_metric 1\n"))
	})
	m := NewMetrics()
	ts := httptest.NewServer(Instrument(inner, m, nil))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/tiers")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE toltiers_handler_requests_total counter",
		`toltiers_handler_requests_total{method="GET",path="/tiers",status="200"} 1`,
		"# TYPE toltiers_handler_latency_ms histogram",
		`toltiers_handler_latency_ms_bucket{le="+Inf"} 1`,
		"inner_metric 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	// The fifteen finite bucket bounds render without trailing zeros.
	for _, le := range strings.Fields("0.1 0.25 0.5 1 2.5 5 10 25 50 100 250 500 1000 2500 5000") {
		if want := `toltiers_handler_latency_ms_bucket{le="` + le + `"} `; !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if got := strings.Count(body, "toltiers_handler_latency_ms_bucket{"); got != len(latencyBucketsMS)+1 {
		t.Fatalf("%d bucket lines, want %d", got, len(latencyBucketsMS)+1)
	}
}

func TestMetricsConcurrentSafety(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.observe("GET /x", 200, 0)
				_ = m.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := m.Snapshot()
	if snap.Handled != 800 {
		t.Fatalf("handled = %d", snap.Handled)
	}
}

// TestInstrumentConcurrentRequests drives the full middleware stack —
// status recorder, metrics counters, access logging — from many
// concurrent HTTP clients and checks no observation is lost. Run under
// -race (the CI race job does), this pins the middleware's concurrency
// safety end to end, not just the Metrics struct in isolation.
func TestInstrumentConcurrentRequests(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/compute" {
			w.WriteHeader(http.StatusTeapot)
		}
	})
	m := NewMetrics()
	var sb syncBuffer
	logger := slog.New(slog.NewTextHandler(&sb, nil))
	ts := httptest.NewServer(Instrument(inner, m, logger))
	defer ts.Close()

	const (
		clients = 16
		perEach = 25
	)
	paths := []string{"/compute", "/tiers", "/metrics"}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				req, _ := http.NewRequest("GET", ts.URL+paths[(g+i)%len(paths)], nil)
				req.Header.Set("Tolerance", "0.05")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := m.Snapshot()
	// /metrics is served by the middleware itself and not counted; the
	// other paths must account for every request exactly once.
	want := int64(0)
	for g := 0; g < clients; g++ {
		for i := 0; i < perEach; i++ {
			if paths[(g+i)%len(paths)] != "/metrics" {
				want++
			}
		}
	}
	if snap.Handled != want {
		t.Fatalf("handled = %d, want %d", snap.Handled, want)
	}
	var counted int64
	for _, k := range snap.SortedKeys() {
		counted += snap.Requests[k]
	}
	if counted != want {
		t.Fatalf("per-key counts sum to %d, want %d", counted, want)
	}
	// Log lines must be whole: the slog handler emits one Write per
	// record, so every line is exactly one request record.
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if int64(len(lines)) != want {
		t.Fatalf("%d log lines, want %d", len(lines), want)
	}
	for _, line := range lines {
		if !strings.Contains(line, "method=GET") || !strings.Contains(line, "tol=0.05") {
			t.Fatalf("malformed log line: %q", line)
		}
	}
}

// syncBuffer is a race-safe strings.Builder for the logger: log.Logger
// serializes Output calls, but the test's final read would still race
// an in-flight handler without the mutex.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func TestSortedKeys(t *testing.T) {
	m := NewMetrics()
	m.observe("GET /b", 200, 0)
	m.observe("GET /a", 404, 0)
	keys := m.Snapshot().SortedKeys()
	if len(keys) != 2 || keys[0] != "GET /a 404" || keys[1] != "GET /b 200" {
		t.Fatalf("keys = %v", keys)
	}
}
