package server

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"github.com/toltiers/toltiers/internal/admit"
	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/coalesce"
	"github.com/toltiers/toltiers/internal/dispatch"
)

// memWriter is an in-memory ResponseWriter that keeps its header map
// across calls, so a handler measured through it is charged for what it
// allocates and not for a recorder's bookkeeping.
type memWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.hdr }
func (w *memWriter) WriteHeader(c int)   { w.status = c }
func (w *memWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *memWriter) reset() {
	clear(w.hdr)
	w.status = 0
	w.body.Reset()
}

// handlerCall is one canned request against a handler: the body reader
// is rewound and the mutable request state cleared between calls, so the
// request itself costs nothing per call.
type handlerCall struct {
	h    http.Handler
	w    *memWriter
	r    *http.Request
	body *bytes.Reader
}

func newHandlerCall(t testing.TB, h http.Handler, path, body string) *handlerCall {
	t.Helper()
	rd := bytes.NewReader([]byte(body))
	r, err := http.NewRequest(http.MethodPost, "http://node"+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	r.Header.Set("Content-Type", "application/json")
	r.Header.Set("Tolerance", "0.05")
	r.Header.Set("Objective", "response-time")
	r.Header.Set("Tenant", "acme")
	return &handlerCall{h: h, w: &memWriter{hdr: make(http.Header)}, r: r, body: rd}
}

func (c *handlerCall) do(t testing.TB) {
	c.body.Seek(0, 0)
	c.w.reset()
	delete(c.r.Header, api.HeaderTrace) // what Instrument mints, a client did not send
	c.h.ServeHTTP(c.w, c.r)
	if c.w.status != http.StatusOK {
		t.Fatalf("%s answered %d: %s", c.r.URL.Path, c.w.status, c.w.body.Bytes())
	}
}

// handlerCalls builds the node the served-path benchmark measures —
// replay backends, admission and coalescing on, limits that never bind —
// and the three calls of BenchmarkHandleDispatch against it.
func handlerCalls(t testing.TB) (bare, instrumented, batch64 *handlerCall) {
	reg, m, c := coalesceFixture(t)
	srv := NewWithConfig(reg, c.Requests, Config{
		Matrix:    m,
		Backends:  dispatch.NewReplayBackends(m),
		Admission: admit.Config{Enabled: true, MaxInFlight: 1 << 16, DefaultRate: admit.Rate{PerSec: 1e9, Burst: 1e9}},
		Coalesce:  &coalesce.Options{},
	})
	t.Cleanup(srv.Close)
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = strconv.Itoa(c.Requests[i].ID)
	}
	single := `{"request_id": ` + ids[7] + `, "deadline_ms": 40}`
	return newHandlerCall(t, srv, "/dispatch", single),
		newHandlerCall(t, Instrument(srv, NewMetrics(), nil), "/dispatch", single),
		newHandlerCall(t, srv, "/dispatch/batch", `{"request_ids": [`+strings.Join(ids, ", ")+`], "deadline_ms": 40}`)
}

// BenchmarkHandleDispatch is the handler's own cost, socket and client
// excluded: POST /dispatch bare and under Instrument, and a 64-item
// POST /dispatch/batch. scripts/bench.sh records it in BENCH.json and
// scripts/bench_check.sh pins its allocs/op.
func BenchmarkHandleDispatch(b *testing.B) {
	bare, instrumented, batch64 := handlerCalls(b)
	for _, bc := range []struct {
		name string
		call *handlerCall
	}{{"bare", bare}, {"instrumented", instrumented}, {"batch64", batch64}} {
		b.Run(bc.name, func(b *testing.B) {
			bc.call.do(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.call.do(b)
			}
		})
	}
}

// TestDispatchHandlerAllocs pins the handler's allocation budget, the
// quantity the served path's alloc_bytes_per_op is made of: what is left
// on a bare POST /dispatch is the header values and their backing array,
// Instrument adds the minted trace id and the dispatch context that
// carries it, and a batch allocates per call, not per item.
func TestDispatchHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	bare, instrumented, batch64 := handlerCalls(t)
	for _, tc := range []struct {
		name string
		call *handlerCall
		max  float64
	}{
		{"bare", bare, 3},
		{"instrumented", instrumented, 6},
		{"batch64", batch64, 3},
	} {
		tc.call.do(t)
		if got := testing.AllocsPerRun(200, func() { tc.call.do(t) }); got > tc.max {
			t.Errorf("%s: %v allocs per call, pinned at %v", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %v allocs per call", tc.name, got)
		}
	}
}
