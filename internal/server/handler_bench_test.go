package server

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

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
// carries it, and a batch allocates per call, not per item: the header
// values' backing array, the admission grant's Release closure, and the
// Content-Length value that keeps its answer from going out chunked.
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

// fleetProxyCall is a POST /dispatch against a front tier whose handler
// offers it to the fleet. The lease outlasts any run: nothing heartbeats.
func fleetProxyCall(t testing.TB) (*handlerCall, *httptest.Server) {
	srv, fts, c := fleetFront(t, time.Hour)
	return newHandlerCall(t, srv, "/dispatch", `{"request_id": `+strconv.Itoa(c.Requests[7].ID)+`, "deadline_ms": 40}`), fts
}

// doProxied is do, checked to have crossed the hop.
func (c *handlerCall) doProxied(t testing.TB) {
	c.do(t)
	if got := c.w.hdr.Get(api.HeaderWorker); got != "w0" {
		t.Fatalf("X-Toltiers-Worker = %q: the front tier served the call itself", got)
	}
}

// BenchmarkFleetProxy is the fleet hop in one process: the front tier's
// handler into a memory writer, Pool.Proxy over a real socket, and one
// snapshot-booted worker behind net/http answering it. scripts/bench.sh
// records it and scripts/bench_check.sh pins its allocs/op, which count
// both nodes.
func BenchmarkFleetProxy(b *testing.B) {
	call, fts := fleetProxyCall(b)
	startFleetWorker(b, fts, "w0", WorkerOptions{})
	call.doProxied(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call.doProxied(b)
	}
}

// cannedWorker is a worker that allocates nothing per request: it reads
// each request off the socket and answers with the same bytes, so what
// AllocsPerRun sees of a proxied call is the front tier's alone.
func cannedWorker(t testing.TB, response string) (base string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	answer := []byte(response)
	serve := func(c net.Conn) {
		defer c.Close()
		br, lengthKey := bufio.NewReader(c), []byte("Content-Length: ")
		for {
			length := 0
			for {
				line, err := br.ReadSlice('\n')
				if err != nil {
					return
				}
				if len(line) == 2 {
					break
				}
				if bytes.HasPrefix(line, lengthKey) {
					for _, d := range line[len(lengthKey) : len(line)-2] {
						length = 10*length + int(d-'0')
					}
				}
			}
			if _, err := br.Discard(length); err != nil {
				return
			}
			if _, err := c.Write(answer); err != nil {
				return
			}
		}
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return // the listener closed with the test
			}
			go serve(c)
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestFleetProxyAllocs pins what the front tier itself allocates per
// proxied call: the relay's two, one string holding every relayed header
// value and one []string backing their value slices. The request render,
// the hand-read response, the body, the routing, the counters and the
// abort polling allocate nothing.
func TestFleetProxyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const body = `{"confidence":0.9,"tier":0.05,"objective":"response-time","policy":"single:0","latency_ms":12.5,"cost_usd":0.001,"backend":"b0"}`
	call, fts := fleetProxyCall(t)
	registerWorker(t, fts, "w0", cannedWorker(t, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"+
		"X-Toltiers-Policy: single:0\r\nX-Toltiers-Backend: b0\r\nX-Toltiers-Latency-Ms: 12.500\r\n"+
		"X-Toltiers-Table-Version: 0\r\nContent-Length: "+strconv.Itoa(len(body))+"\r\n\r\n"+body), 0)
	call.doProxied(t)
	const pinned = 2
	if got := testing.AllocsPerRun(200, func() { call.doProxied(t) }); got > pinned {
		t.Errorf("%v allocs per proxied call, pinned at %v", got, pinned)
	} else {
		t.Logf("%v allocs per proxied call", got)
	}
}
