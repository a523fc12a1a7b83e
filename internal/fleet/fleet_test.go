package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/api"
)

// fakeClock pins the pool's notion of now so lease expiry is exact.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestLeaseExpiryRemovesWorker(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	p := NewPool(Options{Lease: 3 * time.Second, Now: clk.now})
	grant := p.Register("w1", "http://w1", 0)
	if grant.LeaseMS != 3000 {
		t.Fatalf("lease grant = %dms, want 3000", grant.LeaseMS)
	}
	if !p.HasLive() {
		t.Fatal("worker should be live right after register")
	}
	// A heartbeat inside the lease renews it.
	clk.advance(2 * time.Second)
	if hb := p.Heartbeat("w1", 0); !hb.Known {
		t.Fatal("heartbeat inside the lease should be Known")
	}
	// Hanging past the lease removes the worker; its next heartbeat is
	// told to re-register.
	clk.advance(3*time.Second + time.Millisecond)
	if p.HasLive() {
		t.Fatal("worker should have expired off the pool")
	}
	if hb := p.Heartbeat("w1", 0); hb.Known {
		t.Fatal("heartbeat after expiry must return Known=false")
	}
	if resp := p.Register("w1", "http://w1", 0); resp.Resync {
		t.Fatal("re-register at the fleet version should not demand a resync")
	}
	if !p.HasLive() {
		t.Fatal("re-register should restore liveness")
	}
}

func TestRegisterResyncOnVersionMismatch(t *testing.T) {
	p := NewPool(Options{})
	p.SetVersion(4)
	if resp := p.Register("w1", "http://w1", 1); !resp.Resync || resp.TableVersion != 4 {
		t.Fatalf("stale worker got %+v, want Resync at fleet v4", resp)
	}
	if resp := p.Register("w2", "http://w2", 4); resp.Resync {
		t.Fatal("current worker should not be told to resync")
	}
}

func TestTenantAffinityAndAnonymousRoundRobin(t *testing.T) {
	p := NewPool(Options{})
	for _, n := range []string{"w1", "w2", "w3"} {
		p.Register(n, "http://"+n, 0)
	}
	// A named tenant lands on the same worker every time.
	first := p.candidates("tenant-a", nil)[0].name
	for i := 0; i < 10; i++ {
		if got := p.candidates("tenant-a", nil)[0].name; got != first {
			t.Fatalf("tenant-a moved from %s to %s with stable membership", first, got)
		}
	}
	// Removing an unrelated worker must not move the tenant.
	for _, n := range []string{"w1", "w2", "w3"} {
		if n == first {
			continue
		}
		p.Deregister(n)
		if got := p.candidates("tenant-a", nil)[0].name; got != first {
			t.Fatalf("removing unrelated %s moved tenant-a from %s to %s", n, first, got)
		}
		p.Register(n, "http://"+n, 0)
	}
	// Anonymous traffic rotates across all three.
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		seen[p.candidates("", nil)[0].name] = true
	}
	if len(seen) != 3 {
		t.Fatalf("anonymous round-robin hit %d workers, want 3", len(seen))
	}
}

func workerStub(t *testing.T, status int, body string, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		if r.URL.Path == "/fleet/table" && status == http.StatusOK {
			// A healthy worker acks the version it was pushed.
			var upd api.FleetTableUpdate
			_ = json.NewDecoder(r.Body).Decode(&upd)
			_ = json.NewEncoder(w).Encode(api.FleetTableAck{Version: upd.Version})
			return
		}
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Toltiers-Policy", "single:0")
		w.WriteHeader(status)
		_, _ = io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestProxyFailsOverToSibling(t *testing.T) {
	var badHits, goodHits atomic.Int64
	bad := workerStub(t, http.StatusInternalServerError, `boom`, &badHits)
	good := workerStub(t, http.StatusOK, `{"ok":true}`, &goodHits)

	p := NewPool(Options{})
	// tenant-affine order is hash-determined; register both and find a
	// tenant whose first pick is the bad worker so failover is exercised.
	p.Register("bad", bad.URL, 0)
	p.Register("good", good.URL, 0)
	tenant := ""
	for _, cand := range []string{"t1", "t2", "t3", "t4", "t5", "t6"} {
		if p.candidates(cand, nil)[0].name == "bad" {
			tenant = cand
			break
		}
	}
	if tenant == "" {
		t.Fatal("no test tenant hashed to the bad worker first")
	}
	hdr := http.Header{}
	hdr.Set("Tenant", tenant)
	hdr.Set("Tolerance", "0.05")
	rec := httptest.NewRecorder()
	if !p.Proxy(context.Background(), rec, hdr, "/dispatch", []byte(`{"deadline_ms":50}`)) {
		t.Fatal("Proxy should have served via failover")
	}
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok":true`) {
		t.Fatalf("relayed %d %q, want the sibling's 200 body", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Toltiers-Worker"); got != "good" {
		t.Fatalf("X-Toltiers-Worker = %q, want good", got)
	}
	if got := rec.Header().Get("X-Toltiers-Policy"); got != "single:0" {
		t.Fatalf("wire header X-Toltiers-Policy = %q, want relayed", got)
	}
	if badHits.Load() != 1 || goodHits.Load() != 1 {
		t.Fatalf("hits bad=%d good=%d, want 1 each", badHits.Load(), goodHits.Load())
	}
	st := p.Status()
	if st.Proxied != 1 || st.LocalFallback != 0 {
		t.Fatalf("status proxied=%d fallback=%d, want 1/0", st.Proxied, st.LocalFallback)
	}
	for _, w := range st.Workers {
		switch w.Name {
		case "bad":
			if w.Failures != 1 || w.FailedOver != 1 {
				t.Fatalf("bad worker accounting %+v, want 1 failure / 1 failed-over", w)
			}
		case "good":
			if w.Requests != 1 {
				t.Fatalf("good worker accounting %+v, want 1 request", w)
			}
		}
	}
}

func TestProxyFallsBackWhenAllWorkersFail(t *testing.T) {
	bad := workerStub(t, http.StatusInternalServerError, `boom`, nil)
	p := NewPool(Options{})
	p.Register("bad", bad.URL, 0)
	rec := httptest.NewRecorder()
	if p.Proxy(context.Background(), rec, http.Header{}, "/dispatch", []byte(`{}`)) {
		t.Fatal("Proxy must report false when every candidate fails")
	}
	if rec.Body.Len() != 0 || rec.Header().Get("X-Toltiers-Worker") != "" {
		t.Fatal("Proxy must not touch the ResponseWriter on fallback")
	}
	if st := p.Status(); st.LocalFallback != 1 {
		t.Fatalf("fallback counter = %d, want 1", st.LocalFallback)
	}
}

func TestProxyRelaysWorkerRejectionsWithoutFailover(t *testing.T) {
	for _, tc := range []struct {
		name     string
		status   int
		retryMS  string // X-Toltiers-Retry-After-Ms, what shedError.write adds to a shed
		failover bool
	}{
		{"429 rate shed", http.StatusTooManyRequests, "12.500", false},
		{"503 admission shed", http.StatusServiceUnavailable, "250.000", false},
		{"bare 503", http.StatusServiceUnavailable, "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var okHits atomic.Int64
			shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Retry-After", "1")
				if tc.retryMS != "" {
					w.Header().Set("X-Toltiers-Retry-After-Ms", tc.retryMS)
				}
				http.Error(w, "shed", tc.status)
			}))
			t.Cleanup(shed.Close)
			ok := workerStub(t, http.StatusOK, `{}`, &okHits)

			p := NewPool(Options{})
			defer p.Close()
			p.Register("a-shed", shed.URL, 0)
			p.Register("b-ok", ok.URL, 0)
			// Anonymous round-robin starts at the name-sorted head: a-shed.
			rec := httptest.NewRecorder()
			if !p.Proxy(context.Background(), rec, http.Header{}, "/dispatch", []byte(`{}`)) {
				t.Fatal("Proxy should have relayed an answer")
			}
			requests, failures, failedOver := workerStatus(t, p, "a-shed")
			if tc.failover {
				// A 5xx without the shed's retry hint is a broken worker.
				if rec.Code != http.StatusOK || rec.Header().Get("X-Toltiers-Worker") != "b-ok" || okHits.Load() != 1 {
					t.Fatalf("got %d from %q, want the sibling's 200", rec.Code, rec.Header().Get("X-Toltiers-Worker"))
				}
				if requests != 0 || failures != 1 || failedOver != 1 {
					t.Fatalf("a-shed requests=%d failures=%d failed_over=%d, want 0/1/1", requests, failures, failedOver)
				}
				return
			}
			if rec.Code != tc.status || rec.Header().Get("Retry-After") != "1" ||
				rec.Header().Get("X-Toltiers-Retry-After-Ms") != tc.retryMS || rec.Header().Get("X-Toltiers-Worker") != "a-shed" {
				t.Fatalf("got %d with headers %v, want the %d relayed verbatim", rec.Code, rec.Header(), tc.status)
			}
			if okHits.Load() != 0 {
				t.Fatal("a shed is the worker's answer; it must not fail over")
			}
			if requests != 1 || failures != 0 || failedOver != 0 {
				t.Fatalf("a-shed requests=%d failures=%d failed_over=%d, want 1/0/0", requests, failures, failedOver)
			}
		})
	}
}

// tableSink is a stub worker control endpoint recording pushed versions.
type tableSink struct {
	mu       sync.Mutex
	versions []int64
	fail     bool
	ts       *httptest.Server
}

// newTableSink starts a stub worker whose POST /fleet/table records the
// pushed version and acks it, or, with fail, answers 500 without
// installing.
func newTableSink(t *testing.T, fail bool) *tableSink {
	s := &tableSink{fail: fail}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fleet/table" {
			http.NotFound(w, r)
			return
		}
		var upd api.FleetTableUpdate
		if err := json.NewDecoder(r.Body).Decode(&upd); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.fail {
			http.Error(w, "synthetic apply failure", http.StatusInternalServerError)
			return
		}
		s.versions = append(s.versions, upd.Version)
		_ = json.NewEncoder(w).Encode(api.FleetTableAck{Version: upd.Version})
	}))
	t.Cleanup(s.ts.Close)
	return s
}

func waitRollout(t *testing.T, p *Pool, ver int64) api.FleetRollout {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := p.Status()
		if st.Rollout != nil && st.Rollout.Version == ver && st.Rollout.Done {
			return *st.Rollout
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("rollout v%d did not finish", ver)
	return api.FleetRollout{}
}

func TestPromoteRollsTablesSequentiallyAndEvictsFailures(t *testing.T) {
	okA := newTableSink(t, false)
	okB := newTableSink(t, false)
	badC := newTableSink(t, true)
	p := NewPool(Options{})
	defer p.Close()
	p.Register("a", okA.ts.URL, 0)
	p.Register("b", okB.ts.URL, 0)
	p.Register("c", badC.ts.URL, 0)

	const ver = 1
	p.Promote(ver, nil) // empty table set still exercises the fence + push
	if got := p.Status().TableVersion; got != ver {
		t.Fatalf("promotion fenced v%d, want v%d", got, ver)
	}
	ro := waitRollout(t, p, ver)
	if want := []string{"a", "b"}; len(ro.Pushed) != 2 || ro.Pushed[0] != want[0] || ro.Pushed[1] != want[1] {
		t.Fatalf("pushed %v, want name-ordered %v", ro.Pushed, want)
	}
	if len(ro.Evicted) != 1 || ro.Evicted[0] != "c" {
		t.Fatalf("evicted %v, want [c]", ro.Evicted)
	}
	st := p.Status()
	if len(st.Workers) != 2 {
		t.Fatalf("%d workers live after eviction, want 2", len(st.Workers))
	}
	for _, w := range st.Workers {
		if w.TableVersion != ver {
			t.Fatalf("worker %s at v%d after rollout, want v%d", w.Name, w.TableVersion, ver)
		}
	}
	// The evicted worker's heartbeat now demands a re-register, and its
	// register demands a resync — the convergence path.
	if hb := p.Heartbeat("c", 0); hb.Known {
		t.Fatal("evicted worker's heartbeat must return Known=false")
	}
	if reg := p.Register("c", badC.ts.URL, 0); !reg.Resync {
		t.Fatal("evicted worker's re-register must demand a resync")
	}
}

func TestAgentRegistersHeartbeatsAndResyncs(t *testing.T) {
	p := NewPool(Options{Lease: time.Second})
	p.SetVersion(2)
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/register", func(w http.ResponseWriter, r *http.Request) {
		var req api.FleetRegisterRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		_ = json.NewEncoder(w).Encode(p.Register(req.Name, req.BaseURL, req.TableVersion))
	})
	mux.HandleFunc("/fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req api.FleetHeartbeatRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		_ = json.NewEncoder(w).Encode(p.Heartbeat(req.Name, req.TableVersion))
	})
	front := httptest.NewServer(mux)
	t.Cleanup(front.Close)

	var version atomic.Int64
	var resyncs atomic.Int64
	ag := &Agent{
		Join: front.URL, Name: "w1", Advertise: "http://w1",
		Heartbeat: 10 * time.Millisecond,
		Version:   version.Load,
		Resync: func(ctx context.Context, fleetVersion int64) error {
			resyncs.Add(1)
			version.Store(fleetVersion)
			return nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = ag.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && (resyncs.Load() == 0 || !p.HasLive()) {
		time.Sleep(5 * time.Millisecond)
	}
	if resyncs.Load() == 0 {
		t.Fatal("agent never resynced despite joining behind the fence")
	}
	if !p.HasLive() {
		t.Fatal("agent never became live")
	}
	if version.Load() != 2 {
		t.Fatalf("agent version after resync = %d, want 2", version.Load())
	}

	// Forget the worker server-side; the agent must re-register.
	p.Deregister("w1")
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !p.HasLive() {
		time.Sleep(5 * time.Millisecond)
	}
	if !p.HasLive() {
		t.Fatal("agent did not re-register after the front tier forgot it")
	}
	cancel()
	<-done
}

// A 409 is a worker's version fence refusing the push: it still serves
// another table set, so the rollout must evict it, not list it as
// pushed, and no worker may show the pushed version it never installed.
func TestPromoteEvictsWorkerThatRefusesWithConflict(t *testing.T) {
	ok := newTableSink(t, false)
	var pushes atomic.Int64
	fenced := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pushes.Add(1)
		http.Error(w, "version fence: serving v2, refusing v1", http.StatusConflict)
	}))
	defer fenced.Close()
	p := NewPool(Options{})
	defer p.Close()
	p.Register("a", ok.ts.URL, 0)
	p.Register("b", fenced.URL, 2)

	const ver = 1
	p.Promote(ver, nil)
	ro := waitRollout(t, p, ver)
	if len(ro.Pushed) != 1 || ro.Pushed[0] != "a" {
		t.Fatalf("pushed %v, want [a]", ro.Pushed)
	}
	if len(ro.Evicted) != 1 || ro.Evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", ro.Evicted)
	}
	if n := pushes.Load(); n != 1 {
		t.Fatalf("refused push sent %d times, want 1", n)
	}
	for _, w := range p.Status().Workers {
		if w.Name == "b" {
			t.Fatalf("worker b still in rotation at v%d after refusing v%d", w.TableVersion, ver)
		}
	}
}

// TestPromoteEvictsWorkerThatAcksAnotherVersion: a 200 is an ack of the
// version it names. A worker that answers 200 but serves some other
// version is evicted for resync like one that refuses with a 409, and
// the rollout records what each worker acked.
func TestPromoteEvictsWorkerThatAcksAnotherVersion(t *testing.T) {
	ok := newTableSink(t, false)
	var pushes atomic.Int64
	stale := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pushes.Add(1)
		_ = json.NewEncoder(w).Encode(api.FleetTableAck{Version: 2})
	}))
	defer stale.Close()
	p := NewPool(Options{})
	defer p.Close()
	p.Register("a", ok.ts.URL, 0)
	p.Register("b", stale.URL, 0)

	const ver = 3
	p.Promote(ver, nil)
	ro := waitRollout(t, p, ver)
	if len(ro.Pushed) != 1 || ro.Pushed[0] != "a" {
		t.Fatalf("pushed %v, want [a]", ro.Pushed)
	}
	if len(ro.Evicted) != 1 || ro.Evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", ro.Evicted)
	}
	if n := pushes.Load(); n != 1 {
		t.Fatalf("mis-acked push sent %d times, want 1", n)
	}
	for _, w := range p.Status().Workers {
		if w.Name == "b" {
			t.Fatalf("worker b still in rotation at v%d after acking v2 for v%d", w.TableVersion, ver)
		}
		if w.Name == "a" && w.TableVersion != ver {
			t.Fatalf("worker a recorded at v%d, acked v%d", w.TableVersion, ver)
		}
	}
}
