package fleet

import (
	"context"
	"encoding/json"
	"errors"
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
	if n := len(p.Status().Workers); n != 1 {
		t.Fatalf("%d workers right after register, want 1", n)
	}
	// A heartbeat inside the lease renews it.
	clk.advance(2 * time.Second)
	if hb := p.Heartbeat("w1", 0); !hb.Known {
		t.Fatal("heartbeat inside the lease should be Known")
	}
	// Hanging past the lease removes the worker; its next heartbeat is
	// told to re-register.
	clk.advance(3*time.Second + time.Millisecond)
	if n := len(p.Status().Workers); n != 0 {
		t.Fatalf("%d workers past the lease, want 0", n)
	}
	if hb := p.Heartbeat("w1", 0); hb.Known {
		t.Fatal("heartbeat after expiry must return Known=false")
	}
	p.Register("w1", "http://w1", 0)
	if n := len(p.Status().Workers); n != 1 {
		t.Fatalf("%d workers after re-register, want 1", n)
	}
}

// frontOver serves p's register, heartbeat and deregister endpoints the
// way the server package mounts them. onHeartbeat, when set, runs with
// the heartbeat's 1-based count before the pool answers it.
func frontOver(t *testing.T, p *Pool, onHeartbeat func(n int64)) *httptest.Server {
	t.Helper()
	var hbs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/register", func(w http.ResponseWriter, r *http.Request) {
		var req api.FleetRegisterRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		_ = json.NewEncoder(w).Encode(p.Register(req.Name, req.BaseURL, req.TableVersion))
	})
	mux.HandleFunc("/fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req api.FleetHeartbeatRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		if n := hbs.Add(1); onHeartbeat != nil {
			onHeartbeat(n)
		}
		_ = json.NewEncoder(w).Encode(p.Heartbeat(req.Name, req.TableVersion))
	})
	mux.HandleFunc("/fleet/deregister", func(w http.ResponseWriter, r *http.Request) {
		var req api.FleetHeartbeatRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		p.Deregister(req.Name)
		w.WriteHeader(http.StatusNoContent)
	})
	front := httptest.NewServer(mux)
	t.Cleanup(front.Close)
	return front
}

// testAgent is a real Agent over an in-memory table version: its
// Resync counts the pull and, unless fail is set, installs the fleet
// version it was asked for.
type testAgent struct {
	*Agent
	ver   atomic.Int64
	pulls atomic.Int64
	fail  atomic.Bool
}

// newAgent builds a testAgent at version ver with a 10ms heartbeat,
// advertising base; start runs it.
func newAgent(join, name, base string, ver int64) *testAgent {
	a := &testAgent{}
	a.ver.Store(ver)
	a.Agent = &Agent{
		Join: join, Name: name, Advertise: base,
		Heartbeat: 10 * time.Millisecond,
		Version:   a.ver.Load,
		Resync: func(_ context.Context, fleetVersion int64) error {
			a.pulls.Add(1)
			if a.fail.Load() {
				return errors.New("synthetic pull failure")
			}
			a.ver.Store(fleetVersion)
			return nil
		},
	}
	return a
}

// start runs the agent's loop until the test's cleanup stops it.
func (a *testAgent) start(t *testing.T) *testAgent {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = a.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return a
}

// runAgent starts newAgent(join, name, base, ver).
func runAgent(t *testing.T, join, name, base string, ver int64) *testAgent {
	return newAgent(join, name, base, ver).start(t)
}

// eventually polls cond for up to 5s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// reported is the version Status lists for the named worker, -1 when
// it is not listed.
func reported(p *Pool, name string) int64 {
	for _, w := range p.Status().Workers {
		if w.Name == name {
			return w.TableVersion
		}
	}
	return -1
}

// TestRegisterResyncOnVersionMismatch: a worker that registers behind
// the fence pulls at once; one at or ahead of it never pulls.
func TestRegisterResyncOnVersionMismatch(t *testing.T) {
	p := NewPool(Options{})
	p.SetVersion(4)
	front := frontOver(t, p, nil)
	behind := runAgent(t, front.URL, "behind", "http://behind", 1)
	current := runAgent(t, front.URL, "current", "http://current", 4)
	ahead := runAgent(t, front.URL, "ahead", "http://ahead", 6)
	eventually(t, "the behind worker reports v4", func() bool { return reported(p, "behind") == 4 })
	if n := behind.pulls.Load(); n != 1 {
		t.Fatalf("behind worker pulled %d times, want 1", n)
	}
	eventually(t, "all three are listed", func() bool { return len(p.Status().Workers) == 3 })
	if c, a := current.pulls.Load(), ahead.pulls.Load(); c != 0 || a != 0 {
		t.Fatalf("pulls: current %d, ahead %d; want none", c, a)
	}
}

// TestAgentPullsOnlyWhenBehind: an agent ahead of the fence never pulls,
// however long it heartbeats, and an agent behind it pulls on the first
// heartbeat that names the new version.
func TestAgentPullsOnlyWhenBehind(t *testing.T) {
	t.Run("ahead", func(t *testing.T) {
		p := NewPool(Options{})
		p.SetVersion(2)
		var hbs atomic.Int64
		front := frontOver(t, p, func(n int64) { hbs.Store(n) })
		a := runAgent(t, front.URL, "w", "http://w", 5)
		eventually(t, "ten heartbeats", func() bool { return hbs.Load() >= 10 })
		if n := a.pulls.Load(); n != 0 {
			t.Fatalf("an agent at v5 under a v2 fence pulled %d times, want 0", n)
		}
		if v := reported(p, "w"); v != 5 {
			t.Fatalf("pool lists the worker at v%d, want its own report v5", v)
		}
	})
	t.Run("behind", func(t *testing.T) {
		p := NewPool(Options{})
		p.SetVersion(2)
		const promoteAt = 3
		var hbs atomic.Int64
		front := frontOver(t, p, func(n int64) {
			hbs.Store(n)
			if n == promoteAt {
				p.Promote(3)
			}
		})
		a := newAgent(front.URL, "w", "http://w", 2)
		var pulledAt atomic.Int64
		resync := a.Resync
		a.Resync = func(ctx context.Context, v int64) error {
			pulledAt.CompareAndSwap(0, hbs.Load())
			return resync(ctx, v)
		}
		a.start(t)
		eventually(t, "the worker reports v3", func() bool { return reported(p, "w") == 3 })
		if n, at := a.pulls.Load(), pulledAt.Load(); n != 1 || at != promoteAt {
			t.Fatalf("%d pull(s), first after heartbeat %d; want 1, after heartbeat %d", n, at, promoteAt)
		}
	})
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

func TestAgentRegistersHeartbeatsAndResyncs(t *testing.T) {
	p := NewPool(Options{Lease: time.Second})
	p.SetVersion(2)
	a := runAgent(t, frontOver(t, p, nil).URL, "w1", "http://w1", 0)
	eventually(t, "the agent reports the fence", func() bool { return reported(p, "w1") == 2 })
	if n := a.pulls.Load(); n != 1 {
		t.Fatalf("agent joining behind the fence pulled %d times, want 1", n)
	}

	// Forget the worker server-side; the agent must re-register.
	p.Deregister("w1")
	eventually(t, "the agent re-registers", func() bool { return len(p.Status().Workers) == 1 })
}

// routed reports whether the named worker is in the routing snapshot.
func routed(p *Pool, name string) bool {
	for _, m := range *p.routes.Load() {
		if m.name == name {
			return true
		}
	}
	return false
}

// TestPromoteConvergesByPull: a promotion moves the fence and nothing
// else. Real agents pull it on their next heartbeat; until a worker
// reports the fence it is routed only for one lease at the version the
// promotion replaced, and it stays listed, at its own report, either way.
func TestPromoteConvergesByPull(t *testing.T) {
	var hits atomic.Int64
	stub := workerStub(t, http.StatusOK, `{}`, &hits) // every worker's advertised base
	p := NewPool(Options{Lease: 300 * time.Millisecond})
	defer p.Close()
	front := frontOver(t, p, nil)
	a := runAgent(t, front.URL, "a", stub.URL, 0)
	b := runAgent(t, front.URL, "b", stub.URL+"/b", 0)
	c := newAgent(front.URL, "c", stub.URL+"/c", 0)
	c.fail.Store(true)
	c.start(t)
	eventually(t, "three routed workers", func() bool { return len(*p.routes.Load()) == 3 })

	start := time.Now()
	p.Promote(1)
	if got := p.Status().TableVersion; got != 1 {
		t.Fatalf("promotion fenced v%d, want v1", got)
	}
	eventually(t, "a and b report v1", func() bool { return reported(p, "a") == 1 && reported(p, "b") == 1 })
	if r := routed(p, "c"); !r && time.Since(start) < 300*time.Millisecond {
		t.Fatal("c left the routes before its replaced-version allowance ran out")
	}
	eventually(t, "c is unrouted", func() bool { return !routed(p, "c") })
	if !routed(p, "a") || !routed(p, "b") {
		t.Fatal("a worker that reports the fence is unrouted")
	}
	if v := reported(p, "c"); v != 0 {
		t.Fatalf("c listed at v%d, want its own report v0", v)
	}
	if c.pulls.Load() < 2 {
		t.Fatalf("a failed pull was not retried on the next heartbeat (%d pulls)", c.pulls.Load())
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("the promotion sent %d request(s) to workers, want none", n)
	}

	c.fail.Store(false)
	eventually(t, "c converges and is routed", func() bool { return reported(p, "c") == 1 && routed(p, "c") })
	if pa, pb := a.pulls.Load(), b.pulls.Load(); pa != 1 || pb != 1 {
		t.Fatalf("pulls a=%d b=%d, want one each", pa, pb)
	}
}

// TestPromoteUnroutesWorkerAheadOfTheFence: a worker already past the
// version a promotion fences never pulls it and is never routed, but
// stays listed at its own report while its peer converges.
func TestPromoteUnroutesWorkerAheadOfTheFence(t *testing.T) {
	var hits atomic.Int64
	stub := workerStub(t, http.StatusOK, `{}`, &hits)
	p := NewPool(Options{})
	defer p.Close()
	front := frontOver(t, p, nil)
	a := runAgent(t, front.URL, "a", stub.URL, 0)
	b := runAgent(t, front.URL, "b", stub.URL+"/b", 2)
	eventually(t, "both workers listed", func() bool { return len(p.Status().Workers) == 2 })

	const ver = 1
	p.Promote(ver)
	eventually(t, "a reports the fence and is routed", func() bool { return reported(p, "a") == ver && routed(p, "a") })
	if routed(p, "b") {
		t.Fatalf("worker b routed at v2 under a v%d fence", ver)
	}
	if v := reported(p, "b"); v != 2 {
		t.Fatalf("b listed at v%d, want its own report v2", v)
	}
	if pa, pb := a.pulls.Load(), b.pulls.Load(); pa != 1 || pb != 0 {
		t.Fatalf("pulls a=%d b=%d, want 1 and 0", pa, pb)
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("the promotion sent %d request(s) to workers, want none", n)
	}
}

// TestPromoteUnroutesWorkerReportingAnotherVersion: a pull that
// succeeds yet leaves the worker at a version that is neither the fence
// nor the one the promotion replaced does not route it; it stays listed
// at what it reports and pulls again on later heartbeats.
func TestPromoteUnroutesWorkerReportingAnotherVersion(t *testing.T) {
	p := NewPool(Options{})
	defer p.Close()
	front := frontOver(t, p, nil)
	runAgent(t, front.URL, "a", "http://a", 0)
	b := newAgent(front.URL, "b", "http://b", 0)
	b.Resync = func(context.Context, int64) error {
		b.pulls.Add(1)
		b.ver.Store(2)
		return nil
	}
	b.start(t)
	eventually(t, "both workers routed", func() bool { return routed(p, "a") && routed(p, "b") })

	const ver = 3
	p.Promote(ver)
	eventually(t, "b reports v2", func() bool { return reported(p, "b") == 2 })
	eventually(t, "a reports the fence", func() bool { return reported(p, "a") == ver })
	if routed(p, "b") {
		t.Fatalf("worker b routed at v2 under a v%d fence that replaced v0", ver)
	}
	if !routed(p, "a") {
		t.Fatal("worker a at the fence is unrouted")
	}
	eventually(t, "b pulls again", func() bool { return b.pulls.Load() >= 2 })
}

// TestRoutingFollowsReportedVersions: whether a leased member is routed
// is a function of the version it reported, the fence, the version the
// last promotion replaced and the time since that promotion; Status
// lists it whatever the answer.
func TestRoutingFollowsReportedVersions(t *testing.T) {
	const lease = 3 * time.Second
	for _, tc := range []struct {
		name     string
		boot     int64   // SetVersion at boot
		promote  []int64 // promotions, in order, all at one instant
		since    time.Duration
		reported int64
		routed   bool
	}{
		{"at the boot fence", 2, nil, 0, 2, true},
		{"behind the boot fence", 2, nil, 0, 1, false},
		{"ahead of the boot fence", 0, nil, 0, 2, false},
		{"at the fence after a promotion", 1, []int64{2}, 0, 2, true},
		{"at the fence long after", 1, []int64{2}, 10 * lease, 2, true},
		{"at the replaced version inside the lease", 1, []int64{2}, lease - time.Millisecond, 1, true},
		{"at the replaced version at the lease's end", 1, []int64{2}, lease, 1, true},
		{"at the replaced version past the lease", 1, []int64{2}, lease + time.Millisecond, 1, false},
		{"below the replaced version", 1, []int64{2}, 0, 0, false},
		{"ahead of a promoted fence", 1, []int64{2}, 0, 3, false},
		{"two promotions: the first one's replaced version", 0, []int64{1, 2}, 0, 0, false},
		{"two promotions: the last one's replaced version", 0, []int64{1, 2}, 0, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(1000, 0)}
			p := NewPool(Options{Lease: lease, Now: clk.now})
			p.SetVersion(tc.boot)
			p.Register("fence", "http://fence", tc.boot)
			for _, v := range tc.promote {
				p.Promote(v)
				p.Heartbeat("fence", v)
			}
			clk.advance(tc.since)
			p.Register("fence", "http://fence", p.Status().TableVersion)
			p.Register("w", "http://w", tc.reported)
			if got := routed(p, "w"); got != tc.routed {
				t.Fatalf("routed %v, want %v", got, tc.routed)
			}
			if got := len(p.candidates("", nil)) == 2; got != tc.routed {
				t.Fatalf("anonymous candidates include w: %v, want %v", got, tc.routed)
			}
			st := p.Status()
			if len(st.Workers) != 2 || reported(p, "w") != tc.reported {
				t.Fatalf("status lists %+v, want both leased members and w at v%d", st.Workers, tc.reported)
			}
		})
	}
}
