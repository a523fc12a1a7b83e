package fleet

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The worker-connection life cycle: what http.Transport used to do for
// the proxy and the pool now does itself.

// countingWorker is a stub worker that also counts the connections it
// accepted, so a test can tell a reused connection from a redial.
func countingWorker(t *testing.T, h http.HandlerFunc) (ts *httptest.Server, conns *atomic.Int64) {
	t.Helper()
	conns = new(atomic.Int64)
	ts = httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, conns
}

func okHandler(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, `{"ok":true}`)
}

// proxyOnce runs one anonymous dispatch and returns what was relayed.
func proxyOnce(t *testing.T, p *Pool) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	if !p.Proxy(context.Background(), rec, http.Header{}, "/dispatch", []byte(`{}`)) {
		t.Fatal("Proxy fell back to the local serve")
	}
	return rec
}

func workerStatus(t *testing.T, p *Pool, name string) (requests, failures, failedOver int64) {
	t.Helper()
	for _, w := range p.Status().Workers {
		if w.Name == name {
			return w.Requests, w.Failures, w.FailedOver
		}
	}
	t.Fatalf("worker %s not in the fleet status", name)
	return
}

func memberOf(p *Pool, name string) *member {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.members[name]
}

func TestRendezvousIsFNV1a(t *testing.T) {
	for _, tc := range [][2]string{{"", ""}, {"acme", "w0"}, {"tenant-a", "worker-17"}, {"é", "ü"}} {
		h := fnv.New64a()
		_, _ = h.Write([]byte(tc[0] + "\x00" + tc[1]))
		if got := rendezvous(tc[0], tc[1]); got != h.Sum64() {
			t.Errorf("rendezvous(%q, %q) = %#x, want FNV-1a %#x", tc[0], tc[1], got, h.Sum64())
		}
	}
}

func TestProxyReusesConnectionAndRedialsAStaleOne(t *testing.T) {
	ts, conns := countingWorker(t, okHandler)
	p := NewPool(Options{})
	defer p.Close()
	p.Register("w", ts.URL, 0)
	for i := 0; i < 3; i++ {
		proxyOnce(t, p)
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("3 serial dispatches opened %d connections, want 1 kept alive", got)
	}
	// The worker closes the idle connection under the pool. The next
	// dispatch finds out on use, redials, and nobody is blamed.
	ts.CloseClientConnections()
	if rec := proxyOnce(t, p); rec.Code != http.StatusOK {
		t.Fatalf("dispatch over a stale connection answered %d", rec.Code)
	}
	if got := conns.Load(); got != 2 {
		t.Fatalf("%d connections after the redial, want 2", got)
	}
	requests, failures, failedOver := workerStatus(t, p, "w")
	if requests != 4 || failures != 0 || failedOver != 0 {
		t.Fatalf("requests=%d failures=%d failed_over=%d, want 4/0/0: a redial is not a worker failure", requests, failures, failedOver)
	}
	if st := p.Status(); st.LocalFallback != 0 {
		t.Fatalf("local_fallback = %d, want 0", st.LocalFallback)
	}
}

func TestProxyFailsOverWhenWorkerDiesMidResponse(t *testing.T) {
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		c, bw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = bw.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"ok\":")
		_ = bw.Flush()
		c.Close()
	}))
	t.Cleanup(dying.Close)
	ok := workerStub(t, http.StatusOK, `{"ok":true}`, nil)
	p := NewPool(Options{})
	defer p.Close()
	p.Register("a-dying", dying.URL, 0)
	p.Register("b-ok", ok.URL, 0)

	// Anonymous round-robin starts at the name-sorted head: a-dying.
	rec := proxyOnce(t, p)
	if rec.Code != http.StatusOK || rec.Body.String() != `{"ok":true}` || rec.Header().Get("X-Toltiers-Worker") != "b-ok" {
		t.Fatalf("relayed %d %q from %q, want the sibling's whole answer", rec.Code, rec.Body.String(), rec.Header().Get("X-Toltiers-Worker"))
	}
	if _, failures, failedOver := workerStatus(t, p, "a-dying"); failures != 1 || failedOver != 1 {
		t.Fatalf("a-dying failures=%d failed_over=%d, want 1/1", failures, failedOver)
	}
	if c := memberOf(p, "a-dying").idleConn(); c != nil {
		t.Fatal("the connection that died mid-response went back on the free list")
	}
}

// stallingWorker answers one dispatch with partial, the start of an
// answer, then holds the connection open until the front tier closes it.
// arrived is closed once partial is on the wire, hungUp once the front
// tier has closed the connection.
func stallingWorker(t *testing.T, partial string) (ts *httptest.Server, arrived, hungUp chan struct{}) {
	arrived, hungUp = make(chan struct{}), make(chan struct{})
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		c, bw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		_, _ = bw.WriteString(partial)
		_ = bw.Flush()
		close(arrived)
		_, _ = io.Copy(io.Discard, c)
		close(hungUp)
	}))
	t.Cleanup(ts.Close)
	return ts, arrived, hungUp
}

func TestProxyAbortsWithCallerContext(t *testing.T) {
	for _, tc := range []struct{ name, partial string }{
		{"before the first byte", ""},
		{"after the status line", "HTTP/1.1 200 OK\r\n"},
		{"mid-headers", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Toltiers-Pol"},
		{"mid-chunked body", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n10\r\n{\"ok\":"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hang, arrived, hungUp := stallingWorker(t, tc.partial)
			p := NewPool(Options{})
			defer p.Close()
			p.Register("hung", hang.URL, 0)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cancelled := make(chan time.Time, 1)
			go func() {
				<-arrived
				cancelled <- time.Now()
				cancel()
			}()
			rec := httptest.NewRecorder()
			if p.Proxy(ctx, rec, http.Header{}, "/dispatch", []byte(`{}`)) {
				t.Fatal("Proxy answered for a worker that never did")
			}
			if took := time.Since(<-cancelled); took > 100*time.Millisecond {
				t.Fatalf("Proxy returned %v after the cancel, want under 100ms", took)
			}
			select {
			case <-hungUp:
			case <-time.After(2 * time.Second):
				t.Fatal("the aborted connection was left open")
			}
			if _, failures, _ := workerStatus(t, p, "hung"); failures != 0 {
				t.Fatalf("failures = %d: a caller giving up is not a worker failure", failures)
			}
			if st := p.Status(); st.LocalFallback != 1 {
				t.Fatalf("local_fallback = %d, want 1", st.LocalFallback)
			}
		})
	}
}

// TestProxyFailsOverOnAnswersItCannotRelay: an answer the proxy cannot
// read whole is a worker failure, found out without waiting on the rest.
func TestProxyFailsOverOnAnswersItCannotRelay(t *testing.T) {
	for _, tc := range []struct{ name, partial string }{
		{"header line over the reader's buffer", "HTTP/1.1 200 OK\r\nX-Toltiers-Policy: " + strings.Repeat("x", 8<<10) + "\r\nContent-Length: 2\r\n\r\n{}"},
		{"Content-Length over the relay limit", "HTTP/1.1 200 OK\r\nContent-Length: 33554433\r\n\r\n{\"ok\":"},
		{"chunk over the relay limit", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2000001\r\n{\"ok\":"},
		{"no framing", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{\"ok\":"},
		{"malformed status line", "HTTP/1.1 20 OK\r\nContent-Length: 2\r\n\r\n{}"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad, _, hungUp := stallingWorker(t, tc.partial)
			ok := workerStub(t, http.StatusOK, `{"ok":true}`, nil)
			p := NewPool(Options{})
			defer p.Close()
			p.Register("a-bad", bad.URL, 0)
			p.Register("b-ok", ok.URL, 0)

			start := time.Now()
			rec := proxyOnce(t, p) // anonymous round-robin starts at a-bad
			if took := time.Since(start); took > time.Second {
				t.Fatalf("the failover took %v: the proxy waited on the bad answer", took)
			}
			if rec.Code != http.StatusOK || rec.Body.String() != `{"ok":true}` || rec.Header().Get("X-Toltiers-Worker") != "b-ok" {
				t.Fatalf("relayed %d %q from %q, want the sibling's whole answer", rec.Code, rec.Body.String(), rec.Header().Get("X-Toltiers-Worker"))
			}
			if requests, failures, failedOver := workerStatus(t, p, "a-bad"); requests != 0 || failures != 1 || failedOver != 1 {
				t.Fatalf("a-bad requests=%d failures=%d failed_over=%d, want 0/1/1", requests, failures, failedOver)
			}
			select {
			case <-hungUp:
			case <-time.After(2 * time.Second):
				t.Fatal("the failed connection was left open")
			}
		})
	}
}

// TestProxyDoesNotPoolAClosingAnswer: an answer that ends its connection
// is read by its framing, relayed, and its connection closed.
func TestProxyDoesNotPoolAClosingAnswer(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    http.HandlerFunc
	}{
		{"Connection: close", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Connection", "close")
			okHandler(w, r)
		}},
		{"HTTP/1.0", func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			c, bw, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			_, _ = bw.WriteString("HTTP/1.0 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n{\"ok\":true}")
			_ = bw.Flush()
			_, _ = io.Copy(io.Discard, c) // open until the front tier closes it
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, conns := countingWorker(t, tc.h)
			p := NewPool(Options{})
			defer p.Close()
			p.Register("w", ts.URL, 0)
			for i := 0; i < 2; i++ {
				if rec := proxyOnce(t, p); rec.Code != http.StatusOK || rec.Body.String() != `{"ok":true}` {
					t.Fatalf("relayed %d %q", rec.Code, rec.Body.String())
				}
				if memberOf(p, "w").idleConn() != nil {
					t.Fatal("the connection went back on the free list")
				}
			}
			if got := conns.Load(); got != 2 {
				t.Fatalf("2 dispatches opened %d connections, want 2", got)
			}
			if requests, failures, _ := workerStatus(t, p, "w"); requests != 2 || failures != 0 {
				t.Fatalf("requests=%d failures=%d, want 2/0", requests, failures)
			}
		})
	}
}

func TestProxyRelaysChunkedBatchReplyByteForByte(t *testing.T) {
	// Chunked, here in as many chunks as items.
	want := batchReply()
	ts, conns := countingWorker(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		for _, piece := range bytes.SplitAfter(want, []byte("},")) {
			_, _ = w.Write(piece)
			w.(http.Flusher).Flush()
		}
	})
	p := NewPool(Options{})
	defer p.Close()
	p.Register("w", ts.URL, 0)
	for i := 0; i < 2; i++ { // the second reply rides the connection the first left behind
		rec := httptest.NewRecorder()
		if !p.Proxy(context.Background(), rec, http.Header{}, "/dispatch/batch", []byte(`{"request_ids":[1]}`)) {
			t.Fatal("Proxy fell back to the local serve")
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("relayed %d bytes, want the worker's %d byte for byte:\n%s", rec.Body.Len(), len(want), rec.Body.Bytes())
		}
	}
	if len(want) <= 2048 || conns.Load() != 1 {
		t.Fatalf("reply of %d bytes over %d connections, want over 2 KB on one", len(want), conns.Load())
	}
}

func TestReRegisterAtNewBaseIsDialledThere(t *testing.T) {
	var oldHits, newHits atomic.Int64
	oldTS := workerStub(t, http.StatusOK, `{}`, &oldHits)
	newTS := workerStub(t, http.StatusOK, `{}`, &newHits)
	p := NewPool(Options{})
	defer p.Close()
	p.Register("w", oldTS.URL, 0)
	proxyOnce(t, p)
	p.Register("w", newTS.URL+"/", 0) // the trailing slash is not part of the path
	proxyOnce(t, p)
	if oldHits.Load() != 1 || newHits.Load() != 1 {
		t.Fatalf("hits old=%d new=%d, want 1 each: the idle connection to the old base must not be reused", oldHits.Load(), newHits.Load())
	}
	if st := p.Status(); len(st.Workers) != 1 || st.Workers[0].BaseURL != newTS.URL+"/" {
		t.Fatalf("workers after the move: %+v", st.Workers)
	}
}

func TestCandidatesHonourExpiryBeforeAnyPrune(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	p := NewPool(Options{Lease: 3 * time.Second, Now: clk.now})
	p.Register("w1", "http://w1", 0)
	p.Register("w2", "http://w2", 0)
	if n := len(p.candidates("", nil)); n != 2 {
		t.Fatalf("%d anonymous candidates inside the lease, want 2", n)
	}
	clk.advance(2 * time.Second)
	p.Heartbeat("w2", 0)
	clk.advance(2 * time.Second) // w1 is past its lease, w2 is not; nothing has pruned
	for _, tenant := range []string{"", "acme"} {
		if c := p.candidates(tenant, nil); len(c) != 1 || c[0].name != "w2" {
			t.Fatalf("tenant %q: candidates %v, want only w2", tenant, c)
		}
	}
	clk.advance(3 * time.Second)
	if len(p.candidates("", nil)) != 0 || len(p.candidates("acme", nil)) != 0 {
		t.Fatal("expired workers are still candidates")
	}
	if n := len(*p.routes.Load()); n != 2 {
		t.Fatalf("snapshot holds %d members, want 2: the check must not depend on a prune", n)
	}
	if rec := httptest.NewRecorder(); p.Proxy(context.Background(), rec, http.Header{}, "/dispatch", nil) {
		t.Fatal("Proxy dispatched to an expired worker")
	}
}

func TestFailoverPrefersTheFirstPicksTableVersion(t *testing.T) {
	var hits [3]atomic.Int64
	bad := workerStub(t, http.StatusBadGateway, `boom`, &hits[0])
	stale := workerStub(t, http.StatusOK, `{}`, &hits[1])
	fresh := workerStub(t, http.StatusOK, `{}`, &hits[2])
	p := NewPool(Options{})
	defer p.Close()
	p.Register("a", bad.URL, 2)
	p.Register("b", stale.URL, 1)
	p.Register("c", fresh.URL, 2)
	if rec := proxyOnce(t, p); rec.Header().Get("X-Toltiers-Worker") != "c" {
		t.Fatalf("failover landed on %q, want c: the sibling on a's table version", rec.Header().Get("X-Toltiers-Worker"))
	}
	if hits[1].Load() != 0 {
		t.Fatal("the other-version sibling was tried first")
	}
}

// TestProxyHammer races the dispatch path against every control-plane
// call that republishes the routes or retires connections.
func TestProxyHammer(t *testing.T) {
	steady := workerStub(t, http.StatusOK, `{}`, nil)
	flappy := workerStub(t, http.StatusOK, `{}`, nil)
	p := NewPool(Options{})
	defer p.Close()
	p.Register("steady", steady.URL, 0)

	stop := make(chan struct{})
	var control sync.WaitGroup
	control.Add(1)
	go func() {
		defer control.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p.Register("flappy", flappy.URL, 0)
			p.Heartbeat("flappy", int64(i))
			if i%8 == 0 {
				p.Promote(int64(i/8+1), nil)
			}
			p.Status()
			p.Deregister("flappy")
		}
	}()
	var load sync.WaitGroup
	for g := 0; g < 4; g++ {
		load.Add(1)
		go func(g int) {
			defer load.Done()
			hdr := http.Header{}
			if g%2 == 1 {
				hdr.Set("Tenant", fmt.Sprintf("tenant-%d", g))
			}
			for i := 0; i < 200; i++ {
				rec := httptest.NewRecorder()
				if !p.Proxy(context.Background(), rec, hdr, "/dispatch", []byte(`{}`)) {
					t.Error("a dispatch fell back with a steady worker in the pool")
				} else if rec.Code != http.StatusOK || rec.Header().Get("X-Toltiers-Worker") == "" {
					t.Errorf("relayed %d from worker %q", rec.Code, rec.Header().Get("X-Toltiers-Worker"))
				}
			}
		}(g)
	}
	load.Wait()
	close(stop)
	control.Wait()
	if st := p.Status(); st.Proxied != 800 || st.LocalFallback != 0 {
		t.Fatalf("proxied=%d fallback=%d, want 800/0", st.Proxied, st.LocalFallback)
	}
}
