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
	"time"

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

// Metrics tracks serving counters, exposed at GET /metrics. All methods
// are safe for concurrent use.
type Metrics struct {
	mu sync.Mutex
	// requests counts completed requests by "METHOD path status" keys.
	requests map[string]int64
	// latencySum/latencyCount aggregate handler wall time; buckets is
	// the fixed histogram (buckets[i] counts observations at or under
	// latencyBucketsMS[i]; the last entry is the overflow bucket).
	latencySum   time.Duration
	latencyCount int64
	buckets      [len(latencyBucketsMS) + 1]int64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{requests: make(map[string]int64)}
}

// observe records one completed request.
func (m *Metrics) observe(key string, d time.Duration) {
	ms := float64(d) / 1e6
	idx := len(latencyBucketsMS)
	for i, ub := range latencyBucketsMS {
		if ms <= ub {
			idx = i
			break
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[key]++
	m.latencySum += d
	m.latencyCount++
	m.buckets[idx]++
}

// quantileLocked reports the histogram's q-quantile as the upper bound
// of the bucket holding the q-th observation (the overflow bucket
// answers the largest finite bound). Callers hold mu.
func (m *Metrics) quantileLocked(q float64) float64 {
	if m.latencyCount == 0 {
		return 0
	}
	target := int64(q * float64(m.latencyCount))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range m.buckets {
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

// Snapshot returns a copyable view for /metrics.
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := MetricsSnapshot{Requests: make(map[string]int64, len(m.requests))}
	for k, v := range m.requests {
		snap.Requests[k] = v
	}
	if m.latencyCount > 0 {
		snap.MeanHandlerLatencyMS = float64(m.latencySum) / float64(m.latencyCount) / 1e6
		snap.P50HandlerLatencyMS = m.quantileLocked(0.50)
		snap.P95HandlerLatencyMS = m.quantileLocked(0.95)
		snap.P99HandlerLatencyMS = m.quantileLocked(0.99)
	}
	snap.Handled = m.latencyCount
	return snap
}

// writePrometheus renders the handler-level families — request counts
// by route/status and the latency histogram — in the text exposition
// format. Instrument prepends this to the server's own exposition when
// it wraps GET /metrics/prometheus.
func (m *Metrics) writePrometheus(b *bytes.Buffer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := newPromWriter(b)
	p.family("toltiers_handler_requests_total", "counter", "Completed HTTP requests by route and status.")
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		method, path, status := splitRequestKey(k)
		p.count("toltiers_handler_requests_total", m.requests[k],
			"method", method, "path", path, "status", status)
	}
	p.family("toltiers_handler_latency_ms", "histogram", "Handler wall time in milliseconds.")
	var cum int64
	for i, ub := range latencyBucketsMS {
		cum += m.buckets[i]
		p.count("toltiers_handler_latency_ms_bucket", cum,
			"le", strconv.FormatFloat(ub, 'f', -1, 64))
	}
	p.count("toltiers_handler_latency_ms_bucket", m.latencyCount, "le", "+Inf")
	p.sample("toltiers_handler_latency_ms_sum", float64(m.latencySum)/1e6)
	p.count("toltiers_handler_latency_ms_count", m.latencyCount)
}

// splitRequestKey splits a "METHOD path status" metrics key.
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

// bodyWriter forwards writes but swallows status/header changes — used
// when a response preamble has already been written and the delegate
// handler's WriteHeader would be superfluous.
type bodyWriter struct {
	http.ResponseWriter
}

func (w *bodyWriter) WriteHeader(int) {}

// Instrument wraps an HTTP handler with request metrics, trace-id
// minting, and optional structured access logging. It mounts
// GET /metrics (the JSON snapshot) and intercepts
// GET /metrics/prometheus to prepend the handler-level families to the
// wrapped server's exposition.
//
// Every request gets a trace id: the incoming X-Toltiers-Trace header's
// when it parses, freshly minted otherwise. The id is echoed on the
// response header and parked in the request context, where the
// dispatcher's flight recorder picks it up — so a slow exemplar in
// GET /trace/recent joins to the access log line and to the client that
// sent the id. logger may be nil to disable logging; log lines carry
// method, path, status, elapsed time, trace id, and the tier
// annotation headers.
func Instrument(next http.Handler, metrics *Metrics, logger *slog.Logger) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		snap := metrics.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(snap)
	})
	mux.HandleFunc("GET /metrics/prometheus", func(w http.ResponseWriter, r *http.Request) {
		var b bytes.Buffer
		metrics.writePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(b.Bytes())
		// The server's exposition follows in the same response body; its
		// header writes are moot once the preamble is out.
		next.ServeHTTP(&bodyWriter{ResponseWriter: w}, r)
	})
	mux.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := trace.ParseID(r.Header.Get(trace.Header))
		if !ok {
			id = trace.NextID()
		}
		w.Header().Set(trace.Header, trace.FormatID(id))
		r = r.WithContext(trace.ContextWithID(r.Context(), id))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		key := r.Method + " " + r.URL.Path + " " + itoa(rec.status)
		metrics.observe(key, elapsed)
		if logger != nil {
			logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Duration("elapsed", elapsed),
				slog.String("trace", trace.FormatID(id)),
				slog.String("tol", r.Header.Get("Tolerance")),
				slog.String("obj", r.Header.Get("Objective")))
		}
	}))
	return mux
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

func itoa(code int) string {
	// Small, allocation-free int-to-string for status codes.
	if code == 0 {
		return "0"
	}
	var buf [4]byte
	i := len(buf)
	for code > 0 && i > 0 {
		i--
		buf[i] = byte('0' + code%10)
		code /= 10
	}
	return string(buf[i:])
}
