package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/admit"
	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/coalesce"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/trace"
)

// call serves one in-process request and returns the recorded response.
func call(h http.Handler, method, path, body string, headers ...string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, strings.NewReader(body))
	for i := 0; i+1 < len(headers); i += 2 {
		r.Header.Set(headers[i], headers[i+1])
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestMetricsCardinalityBounded is the regression test for the
// unbounded registry: requests are counted by route pattern, so ten
// thousand distinct trace lookups and probe paths are three series, and
// the dispatch route keeps the key it always had.
func TestMetricsCardinalityBounded(t *testing.T) {
	reg, m, c := coalesceFixture(t)
	srv := NewWithConfig(reg, c.Requests, Config{Matrix: m})
	t.Cleanup(srv.Close)
	metrics := NewMetrics()
	h := Instrument(srv, metrics, nil)

	if w := call(h, "POST", "/dispatch", `{"request_id": `+strconv.Itoa(c.Requests[0].ID)+`}`, "Tolerance", "0.05"); w.Code != http.StatusOK {
		t.Fatalf("dispatch answered %d: %s", w.Code, w.Body)
	}
	for i := 1; i <= 10000; i++ {
		if w := call(h, "GET", "/trace/"+trace.FormatID(uint64(i)), ""); w.Code != http.StatusNotFound {
			t.Fatalf("trace lookup answered %d", w.Code)
		}
		if w := call(h, "GET", fmt.Sprintf("/probe/%d/.env", i*7919), ""); w.Code != http.StatusNotFound {
			t.Fatalf("probe answered %d", w.Code)
		}
	}
	want := map[string]int64{
		"POST /dispatch 200":    1,
		"GET /trace/{id} 404":   10000,
		unmatchedRoute + " 404": 10000,
	}
	snap := metrics.Snapshot()
	if len(snap.Requests) != len(want) {
		t.Fatalf("%d request series, want %d: %v", len(snap.Requests), len(want), snap.SortedKeys())
	}
	for k, n := range want {
		if snap.Requests[k] != n {
			t.Errorf("series %q = %d, want %d", k, snap.Requests[k], n)
		}
	}
	if snap.Handled != 20001 {
		t.Errorf("handled = %d, want 20001", snap.Handled)
	}
	var b bytes.Buffer
	metrics.writePrometheus(&b)
	if got := strings.Count(b.String(), "toltiers_handler_requests_total{"); got != len(want) {
		t.Errorf("%d exposition series, want %d:\n%s", got, len(want), b.String())
	}
	if !strings.Contains(b.String(), `toltiers_handler_requests_total{method="GET",path="/trace/{id}",status="404"} 10000`) {
		t.Errorf("exposition lacks the trace route series:\n%s", b.String())
	}
}

// TestMetricsFixedSequence pins the snapshot and the exposition of a
// fixed observation sequence: the lock-free registry reports exactly
// what the mutex-guarded one did.
func TestMetricsFixedSequence(t *testing.T) {
	m := NewMetrics()
	for _, us := range []int{50, 50, 100, 101, 700, 700, 3000, 30000, 30000, 7000000} {
		m.observe("POST /dispatch", 200, time.Duration(us)*time.Microsecond)
	}
	snap := m.Snapshot()
	if snap.Handled != 10 || snap.Requests["POST /dispatch 200"] != 10 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got, want := snap.MeanHandlerLatencyMS, 706.4701; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if snap.P50HandlerLatencyMS != 1 || snap.P95HandlerLatencyMS != 50 || snap.P99HandlerLatencyMS != 50 {
		t.Errorf("quantiles = %v / %v / %v, want 1 / 50 / 50", snap.P50HandlerLatencyMS, snap.P95HandlerLatencyMS, snap.P99HandlerLatencyMS)
	}
	var b bytes.Buffer
	m.writePrometheus(&b)
	const want = `# HELP toltiers_handler_requests_total Completed HTTP requests by route and status.
# TYPE toltiers_handler_requests_total counter
toltiers_handler_requests_total{method="POST",path="/dispatch",status="200"} 10
# HELP toltiers_handler_latency_ms Handler wall time in milliseconds.
# TYPE toltiers_handler_latency_ms histogram
toltiers_handler_latency_ms_bucket{le="0.1"} 3
toltiers_handler_latency_ms_bucket{le="0.25"} 4
toltiers_handler_latency_ms_bucket{le="0.5"} 4
toltiers_handler_latency_ms_bucket{le="1"} 6
toltiers_handler_latency_ms_bucket{le="2.5"} 6
toltiers_handler_latency_ms_bucket{le="5"} 7
toltiers_handler_latency_ms_bucket{le="10"} 7
toltiers_handler_latency_ms_bucket{le="25"} 7
toltiers_handler_latency_ms_bucket{le="50"} 9
toltiers_handler_latency_ms_bucket{le="100"} 9
toltiers_handler_latency_ms_bucket{le="250"} 9
toltiers_handler_latency_ms_bucket{le="500"} 9
toltiers_handler_latency_ms_bucket{le="1000"} 9
toltiers_handler_latency_ms_bucket{le="2500"} 9
toltiers_handler_latency_ms_bucket{le="5000"} 9
toltiers_handler_latency_ms_bucket{le="+Inf"} 10
toltiers_handler_latency_ms_sum 7064.701
toltiers_handler_latency_ms_count 10
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

// nanBackend answers every request with a NaN confidence.
type nanBackend struct{ dispatch.Backend }

func (b nanBackend) Invoke(ctx context.Context, req *service.Request) (dispatch.Response, error) {
	resp, err := b.Backend.Invoke(ctx, req)
	resp.Result.Confidence = math.NaN()
	return resp, err
}

// TestNonFiniteOutcomeAnswers500: an outcome JSON cannot carry used to
// answer 200 with headers and an empty body, the encoder's error
// dropped. The renderer validates before the first header write.
func TestNonFiniteOutcomeAnswers500(t *testing.T) {
	reg, m, c := coalesceFixture(t)
	backends := dispatch.NewReplayBackends(m)
	for i := range backends {
		backends[i] = nanBackend{backends[i]}
	}
	srv := NewWithConfig(reg, c.Requests, Config{Matrix: m, Backends: backends})
	t.Cleanup(srv.Close)
	id := strconv.Itoa(c.Requests[0].ID)
	for path, body := range map[string]string{
		"/compute":        `{"request_id": ` + id + `}`,
		"/dispatch":       `{"request_id": ` + id + `}`,
		"/dispatch/batch": `{"request_ids": [` + id + `]}`,
	} {
		w := call(srv, "POST", path, body, "Tolerance", "0")
		if w.Code != http.StatusInternalServerError {
			t.Errorf("%s answered %d, want 500", path, w.Code)
		}
		if !strings.Contains(w.Body.String(), "unsupported value: NaN") {
			t.Errorf("%s body %q does not name the value", path, w.Body)
		}
		if w.Header().Get(api.HeaderPolicy) != "" {
			t.Errorf("%s wrote accounting headers before failing: %v", path, w.Header())
		}
	}
}

// TestCallBodyCap: the three tier-execution endpoints read at most
// maxCallBody bytes and answer 413 beyond, while the largest legal batch
// fits.
func TestCallBodyCap(t *testing.T) {
	reg, m, c := coalesceFixture(t)
	srv := NewWithConfig(reg, c.Requests, Config{Matrix: m})
	t.Cleanup(srv.Close)
	id := strconv.Itoa(c.Requests[0].ID)
	huge := `{"request_id": ` + id + `}` + strings.Repeat(" ", maxCallBody)
	for _, path := range []string{"/compute", "/dispatch", "/dispatch/batch"} {
		if w := call(srv, "POST", path, huge, "Tolerance", "0.05"); w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s answered %d to a %d-byte body, want 413", path, w.Code, len(huge))
		}
	}
	ids := strings.Repeat(id+", ", maxBatchItems-1) + id
	if w := call(srv, "POST", "/dispatch/batch", `{"request_ids": [`+ids+`]}`, "Tolerance", "0.05"); w.Code != http.StatusOK {
		t.Errorf("a %d-item batch answered %d: %.200s", maxBatchItems, w.Code, w.Body)
	}
	// A body the scanner hands to encoding/json answers as it always did.
	if w := call(srv, "POST", "/dispatch", `{"request_id": `+id+`} trailing`, "Tolerance", "0.05"); w.Code != http.StatusOK {
		t.Errorf("trailing bytes answered %d, want the 200 json.Decoder gives them", w.Code)
	}
	w := call(srv, "POST", "/dispatch", `{"request_id": "x"}`, "Tolerance", "0.05")
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "invalid JSON body: json: cannot unmarshal string") {
		t.Errorf("mistyped id answered %d %s", w.Code, w.Body)
	}
}

// TestTraceIDTravelsInRequestHeader: Instrument no longer clones the
// request to park the trace id in its context; the id stays in the
// request header, and still reaches the flight recorder's dispatch span,
// the shed span of a rejected request and the per-item spans of a
// coalesced window.
func TestTraceIDTravelsInRequestHeader(t *testing.T) {
	reg, m, c := coalesceFixture(t)
	backends := dispatch.NewReplayBackends(m)
	for _, b := range backends {
		b.(*dispatch.ReplayBackend).SleepScale = 1 // real overlap, so windows form
	}
	srv := NewWithConfig(reg, c.Requests, Config{
		Matrix:   m,
		Backends: backends,
		Coalesce: &coalesce.Options{MaxBatch: 8},
		Admission: admit.Config{Enabled: true, MaxInFlight: 256,
			Tenants: map[string]admit.Rate{"drained": {PerSec: 0.001, Burst: 1}}},
		Trace: trace.Options{Size: 1024, SampleEvery: 1}, // keep every span
	})
	t.Cleanup(srv.Close)
	// The wrapped handler sees the original request: id in the header,
	// none in the context.
	h := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if trace.IDFromContext(r.Context()) != 0 {
			t.Error("the request context carries a trace id: the request was cloned")
		}
		if traceID(r) == 0 {
			t.Error("the request header carries no trace id")
		}
		srv.ServeHTTP(w, r)
	}), NewMetrics(), nil)
	body := func(i int) string { return `{"request_id": ` + strconv.Itoa(c.Requests[i%len(c.Requests)].ID) + `}` }

	// A client-sent id names the dispatch span; a minted one is echoed
	// and names it just the same.
	sent := trace.NextID()
	if w := call(h, "POST", "/dispatch", body(0), "Tolerance", "0.05", api.HeaderTrace, trace.FormatID(sent)); w.Code != http.StatusOK {
		t.Fatalf("dispatch answered %d: %s", w.Code, w.Body)
	}
	if sp, ok := srv.Recorder().Get(sent); !ok || sp.Tier != "response-time/0.05" {
		t.Fatalf("client-sent id not in the recorder: %+v %v", sp, ok)
	}
	w := call(h, "POST", "/compute", body(1), "Tolerance", "0.05")
	minted, ok := trace.ParseID(w.Header().Get(api.HeaderTrace))
	if w.Code != http.StatusOK || !ok {
		t.Fatalf("compute answered %d, echoed %q", w.Code, w.Header().Get(api.HeaderTrace))
	}
	if _, ok := srv.Recorder().Get(minted); !ok {
		t.Fatal("minted id not in the recorder")
	}

	// The shed span: the tenant's one token admits a request, the next is
	// rejected at the window's flush and recorded under its own id.
	call(h, "POST", "/dispatch", body(2), "Tolerance", "0.05", "Tenant", "drained")
	shed := trace.NextID()
	if w := call(h, "POST", "/dispatch", body(3), "Tolerance", "0.05", "Tenant", "drained", api.HeaderTrace, trace.FormatID(shed)); w.Code != http.StatusTooManyRequests {
		t.Fatalf("drained tenant answered %d", w.Code)
	}
	if sp, ok := srv.Recorder().Get(shed); !ok || sp.Kind != trace.KindShed || sp.Admit != trace.AdmitShedRate {
		t.Fatalf("shed span = %+v %v", sp, ok)
	}

	// A coalesced window: concurrent singles of one ticket, each with its
	// own id, come back as per-item spans of a shared window. Backends
	// hold a dispatch for milliseconds, so all but the first MaxBatch-1 of
	// the n arrive into a crowd.
	const n = 32
	ids := make([]uint64, n)
	var wg sync.WaitGroup
	for i := range ids {
		ids[i] = trace.NextID()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if w := call(h, "POST", "/dispatch", body(i), "Tolerance", "0.05", api.HeaderTrace, trace.FormatID(ids[i])); w.Code != http.StatusOK {
				t.Errorf("concurrent dispatch answered %d: %s", w.Code, w.Body)
			}
		}(i)
	}
	wg.Wait()
	windowed := 0
	for _, id := range ids {
		sp, ok := srv.Recorder().Get(id)
		if !ok {
			t.Fatalf("id %s of a concurrent dispatch not in the recorder", trace.FormatID(id))
		}
		if sp.Window != 0 {
			windowed++
		}
	}
	if st := srv.Coalescer().Stats(); windowed == 0 || st.Windows == 0 || st.Coalesced < n/2 {
		t.Fatalf("%d of %d concurrent dispatches carry a window id; coalescer stats %+v", windowed, n, st)
	}
}
