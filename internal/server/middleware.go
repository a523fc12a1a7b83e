package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/trace"
)

// latencyBucketsMS are the handler-latency histogram's upper bounds in
// milliseconds (the final +Inf bucket is implicit). Fixed buckets keep
// observe to one array increment and make the exposition cumulative
// counts, at the cost of quantiles quantized to bucket bounds — fine
// for handler wall time, whose dynamic range these cover.
var latencyBucketsMS = [...]float64{
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
}

// unmatchedRoute labels every request no route pattern matched, so that
// probe paths and scans cannot grow the registry: one series per status.
const unmatchedRoute = "* (unmatched)"

// routeKey names one request series: the matched route pattern
// ("METHOD /path", unmatchedRoute for none) and the response status.
type routeKey struct {
	route  string
	status int
}

// Metrics tracks serving counters, exposed at GET /metrics. All methods
// are safe for concurrent use, and observe takes no lock: the counters
// are atomics, found through an index that is copied, never written,
// when a new (route, status) pair first appears — a bounded set, since
// routes are the server's patterns and not the clients' paths.
type Metrics struct {
	routes atomic.Pointer[map[routeKey]*atomic.Int64]
	growMu sync.Mutex // serialises index growth only
	// latencySum aggregates handler wall time; buckets is the fixed
	// histogram (buckets[i] counts observations at or under
	// latencyBucketsMS[i]; the last entry is the overflow bucket). Their
	// total is the request count.
	latencySum atomic.Int64 // nanoseconds
	buckets    [len(latencyBucketsMS) + 1]atomic.Int64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	m := &Metrics{}
	m.routes.Store(&map[routeKey]*atomic.Int64{})
	return m
}

// counter returns k's counter, publishing a grown index on first sight.
func (m *Metrics) counter(k routeKey) *atomic.Int64 {
	if c, ok := (*m.routes.Load())[k]; ok {
		return c
	}
	m.growMu.Lock()
	defer m.growMu.Unlock()
	old := *m.routes.Load()
	if c, ok := old[k]; ok {
		return c
	}
	grown := make(map[routeKey]*atomic.Int64, len(old)+1)
	for ok, oc := range old {
		grown[ok] = oc
	}
	c := new(atomic.Int64)
	grown[k] = c
	m.routes.Store(&grown)
	return c
}

// observe records one completed request.
func (m *Metrics) observe(route string, status int, d time.Duration) {
	ms := float64(d) / 1e6
	idx := len(latencyBucketsMS)
	for i, ub := range latencyBucketsMS {
		if ms <= ub {
			idx = i
			break
		}
	}
	m.counter(routeKey{route, status}).Add(1)
	m.latencySum.Add(int64(d))
	m.buckets[idx].Add(1)
}

// histogram is a point-in-time copy of the latency histogram.
type histogram struct {
	buckets [len(latencyBucketsMS) + 1]int64
	count   int64
	sum     time.Duration
}

func (m *Metrics) histogram() histogram {
	h := histogram{sum: time.Duration(m.latencySum.Load())}
	for i := range m.buckets {
		h.buckets[i] = m.buckets[i].Load()
		h.count += h.buckets[i]
	}
	return h
}

// quantile reports the histogram's q-quantile as the upper bound of the
// bucket holding the q-th observation (the overflow bucket answers the
// largest finite bound).
func (h *histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := int64(q * float64(h.count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			if i < len(latencyBucketsMS) {
				return latencyBucketsMS[i]
			}
			break
		}
	}
	return latencyBucketsMS[len(latencyBucketsMS)-1]
}

// requests renders the counters under "METHOD path status" keys.
func (m *Metrics) requests() map[string]int64 {
	routes := *m.routes.Load()
	out := make(map[string]int64, len(routes))
	for k, c := range routes {
		out[k.route+" "+strconv.Itoa(k.status)] = c.Load()
	}
	return out
}

// Snapshot returns a copyable view for /metrics.
func (m *Metrics) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{Requests: m.requests()}
	h := m.histogram()
	if h.count > 0 {
		snap.MeanHandlerLatencyMS = float64(h.sum) / float64(h.count) / 1e6
		snap.P50HandlerLatencyMS = h.quantile(0.50)
		snap.P95HandlerLatencyMS = h.quantile(0.95)
		snap.P99HandlerLatencyMS = h.quantile(0.99)
	}
	snap.Handled = h.count
	return snap
}

// writePrometheus renders the handler-level families — request counts
// by route/status and the latency histogram — in the text exposition
// format. Instrument prepends this to the server's own exposition when
// it wraps GET /metrics/prometheus.
func (m *Metrics) writePrometheus(b *bytes.Buffer) {
	snap := MetricsSnapshot{Requests: m.requests()}
	p := newPromWriter(b)
	p.family("toltiers_handler_requests_total", "counter", "Completed HTTP requests by route and status.")
	for _, k := range snap.SortedKeys() {
		method, path, status := splitRequestKey(k)
		p.count("toltiers_handler_requests_total", snap.Requests[k],
			"method", method, "path", path, "status", status)
	}
	h := m.histogram()
	p.family("toltiers_handler_latency_ms", "histogram", "Handler wall time in milliseconds.")
	var cum int64
	for i, ub := range latencyBucketsMS {
		cum += h.buckets[i]
		p.count("toltiers_handler_latency_ms_bucket", cum,
			"le", strconv.FormatFloat(ub, 'f', -1, 64))
	}
	p.count("toltiers_handler_latency_ms_bucket", h.count, "le", "+Inf")
	p.sample("toltiers_handler_latency_ms_sum", float64(h.sum)/1e6)
	p.count("toltiers_handler_latency_ms_count", h.count)
}

// splitRequestKey splits a "METHOD path status" metrics key (a route
// pattern followed by the status).
func splitRequestKey(k string) (method, path, status string) {
	first := strings.IndexByte(k, ' ')
	last := strings.LastIndexByte(k, ' ')
	if first < 0 || last <= first {
		return k, "", ""
	}
	return k[:first], k[first+1 : last], k[last+1:]
}

// MetricsSnapshot is the JSON shape of GET /metrics.
type MetricsSnapshot struct {
	Handled              int64   `json:"handled"`
	MeanHandlerLatencyMS float64 `json:"mean_handler_latency_ms"`
	// P50/P95/P99 are histogram quantiles, quantized to the fixed
	// bucket upper bounds (0 until the first request completes).
	P50HandlerLatencyMS float64          `json:"p50_handler_latency_ms"`
	P95HandlerLatencyMS float64          `json:"p95_handler_latency_ms"`
	P99HandlerLatencyMS float64          `json:"p99_handler_latency_ms"`
	Requests            map[string]int64 `json:"requests"`
}

// statusRecorder captures the response code for metrics/logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

var statusRecorders = sync.Pool{New: func() any { return new(statusRecorder) }}

// bodyWriter forwards writes but swallows status/header changes — used
// when a response preamble has already been written and the delegate
// handler's WriteHeader would be superfluous.
type bodyWriter struct {
	http.ResponseWriter
}

func (w *bodyWriter) WriteHeader(int) {}

// canonicalTraceID reports whether s is trace.FormatID's spelling (16
// lower-case hex digits) of the id it parses to, and so can be echoed
// as it came.
func canonicalTraceID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Instrument wraps an HTTP handler with request metrics, trace-id
// minting, and optional structured access logging. It serves
// GET /metrics (the JSON snapshot) itself and intercepts
// GET /metrics/prometheus to prepend the handler-level families to the
// wrapped server's exposition; every other request goes straight to
// next, whose mux is the only one it crosses.
//
// Requests are counted under the route pattern next's mux matched
// (Request.Pattern, e.g. "POST /dispatch", "GET /trace/{id}"), so the
// series set is the route table and not the clients' URL space;
// whatever matched nothing counts under one fixed label.
//
// Every request gets a trace id: the incoming X-Toltiers-Trace header's
// when it parses, freshly minted otherwise. The id is echoed on the
// response and stays in the request header — set when it was absent or
// not in canonical form — where the tier-execution path reads it for the
// dispatcher's flight recorder; so a slow exemplar in GET /trace/recent
// joins to the access log line and to the client that sent the id.
// logger may be nil to disable logging; log lines carry method, path,
// status, elapsed time, trace id, and the tier annotation headers.
func Instrument(next http.Handler, metrics *Metrics, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet || r.Method == http.MethodHead {
			switch r.URL.Path {
			case "/metrics":
				w.Header().Set("Content-Type", "application/json")
				_ = json.NewEncoder(w).Encode(metrics.Snapshot())
				return
			case "/metrics/prometheus":
				var b bytes.Buffer
				metrics.writePrometheus(&b)
				w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
				_, _ = w.Write(b.Bytes())
				// The server's exposition follows in the same response body; its
				// header writes are moot once the preamble is out.
				next.ServeHTTP(&bodyWriter{ResponseWriter: w}, r)
				return
			}
		}
		// Incoming header names are canonical, so the map is indexed
		// directly, and the one-value slice is shared by the request and
		// the response: nobody writes through it.
		vals := r.Header[api.HeaderTrace]
		var id uint64
		if len(vals) > 0 {
			id, _ = trace.ParseID(vals[0])
		}
		if id == 0 || !canonicalTraceID(vals[0]) {
			if id == 0 {
				id = trace.NextID()
			}
			vals = []string{trace.FormatID(id)}
			r.Header[api.HeaderTrace] = vals
		}
		w.Header()[api.HeaderTrace] = vals[:1:1]

		rec := statusRecorders.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status = w, http.StatusOK
		start := time.Now()
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		status := rec.status
		rec.ResponseWriter = nil
		statusRecorders.Put(rec)

		route := r.Pattern
		if route == "" {
			route = unmatchedRoute
		}
		metrics.observe(route, status, elapsed)
		if logger != nil {
			logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Duration("elapsed", elapsed),
				slog.String("trace", vals[0]),
				slog.String("tol", r.Header.Get(api.HeaderTolerance)),
				slog.String("obj", r.Header.Get(api.HeaderObjective)))
		}
	})
}

// SortedKeys returns the snapshot's request keys in stable order, for
// deterministic rendering in tools and tests.
func (s MetricsSnapshot) SortedKeys() []string {
	keys := make([]string, 0, len(s.Requests))
	for k := range s.Requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
