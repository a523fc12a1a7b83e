package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/admit"
	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/client"
	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/fleet"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/tiers"
	"github.com/toltiers/toltiers/internal/trace"
	"github.com/toltiers/toltiers/internal/vision"
)

// Fleet failure-mode tests: the front tier's routing, failover, lease,
// and rolling-update guarantees exercised end to end over httptest —
// real HTTP between the front tier and real worker nodes assembled
// from shipped snapshots, all under -race in CI.

// fleetFront builds a front-tier server with the fleet armed and the
// usual small corpus/generator config the other server tests use.
func fleetFront(t testing.TB, lease time.Duration) (*Server, *httptest.Server, *dataset.VisionCorpus) {
	t.Helper()
	return fleetFrontWith(t, Config{Fleet: &fleet.Options{Lease: lease}})
}

// fleetFrontWith is fleetFront over cfg; the fixture sets its Matrix.
func fleetFrontWith(t testing.TB, cfg Config) (*Server, *httptest.Server, *dataset.VisionCorpus) {
	t.Helper()
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 240, Device: vision.GPU})
	m := profile.Build(c.Service, c.Requests)
	gcfg := rulegen.DefaultConfig()
	gcfg.MinTrials = 5
	gcfg.MaxTrials = 24
	gcfg.ThresholdPoints = 4
	gcfg.IncludePickBest = false
	g := rulegen.New(m, nil, gcfg)
	tols := []float64{0, 0.01, 0.05, 0.10}
	reg := tiers.NewRegistry(c.Service,
		g.Generate(tols, rulegen.MinimizeLatency),
		g.Generate(tols, rulegen.MinimizeCost))
	cfg.Matrix = m
	srv := NewWithConfig(reg, c.Requests, cfg)
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, c
}

// startFleetWorker bootstraps a worker the way ttserver -join does — pull
// the snapshot over HTTP, assemble the node, register with the front
// tier — and returns it serving on its own httptest listener.
func startFleetWorker(t testing.TB, front *httptest.Server, name string, opts WorkerOptions) (*Server, *httptest.Server) {
	t.Helper()
	snap, err := fleet.PullSnapshot(context.Background(), front.Client(), front.URL)
	if err != nil {
		t.Fatalf("pull snapshot: %v", err)
	}
	w, err := NewWorkerFromSnapshot(snap, opts)
	if err != nil {
		t.Fatalf("assemble worker: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	ws := httptest.NewServer(w)
	t.Cleanup(ws.Close)
	registerWorker(t, front, name, ws.URL, w.TableVersion())
	return w, ws
}

func registerWorker(t testing.TB, front *httptest.Server, name, base string, ver int64) api.FleetRegisterResponse {
	t.Helper()
	body, _ := json.Marshal(api.FleetRegisterRequest{Name: name, BaseURL: base, TableVersion: ver})
	resp, err := front.Client().Post(front.URL+"/fleet/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: status %d", name, resp.StatusCode)
	}
	var out api.FleetRegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func heartbeatWorker(t *testing.T, front *httptest.Server, name string, ver int64) api.FleetHeartbeatResponse {
	t.Helper()
	body, _ := json.Marshal(api.FleetHeartbeatRequest{Name: name, TableVersion: ver})
	resp, err := front.Client().Post(front.URL+"/fleet/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.FleetHeartbeatResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// postBatch fires one batch dispatch at base and reports which worker
// answered (empty when served locally) and the table version fence the
// response carries. ok is false when the request did not return 200 —
// the error is already recorded on t.
func postBatch(t *testing.T, hc *http.Client, base string, ids []int) (worker string, version int64, ok bool) {
	body, _ := json.Marshal(api.DispatchBatchRequest{RequestIDs: ids})
	req, err := http.NewRequest(http.MethodPost, base+"/dispatch/batch", bytes.NewReader(body))
	if err != nil {
		t.Errorf("build batch request: %v", err)
		return "", 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Tolerance", "0.05")
	resp, err := hc.Do(req)
	if err != nil {
		t.Errorf("batch dispatch: %v", err)
		return "", 0, false
	}
	defer resp.Body.Close()
	var out api.DispatchBatchResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Errorf("decode batch result: %v", err)
		return "", 0, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("batch dispatch: status %d", resp.StatusCode)
		return "", 0, false
	}
	if out.Failed != 0 {
		t.Errorf("batch dispatch: %d items failed", out.Failed)
		return "", 0, false
	}
	version, _ = strconv.ParseInt(resp.Header.Get("X-Toltiers-Table-Version"), 10, 64)
	return resp.Header.Get("X-Toltiers-Worker"), version, true
}

// TestFleetFailoverLosesNoRequests SIGKILLs (connection-level: client
// connections severed, listener closed) one of three workers while a
// concurrent dispatch load runs through the front tier, and requires
// every single request to succeed — requests in flight on the dying
// worker must fail over to a sibling (or the local fallback), never
// surface an error.
func TestFleetFailoverLosesNoRequests(t *testing.T) {
	_, fts, c := fleetFront(t, 30*time.Second)
	var workers []*httptest.Server
	for i := 0; i < 3; i++ {
		_, ws := startFleetWorker(t, fts, fmt.Sprintf("w%d", i), WorkerOptions{})
		workers = append(workers, ws)
	}
	cl := client.New(fts.URL, nil)
	ctx := context.Background()

	const goroutines, perG = 6, 40
	const total = goroutines * perG
	var (
		wg     sync.WaitGroup
		done   int64
		mu     sync.Mutex
		losses []error
	)
	killed := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := c.Requests[(g*perG+i)%len(c.Requests)].ID
				if _, err := cl.Dispatch(ctx, id, 0.05, rulegen.MinimizeLatency, 0); err != nil {
					mu.Lock()
					losses = append(losses, fmt.Errorf("goroutine %d request %d: %w", g, i, err))
					mu.Unlock()
				}
				// A third of the way in, crash one worker mid-load: sever
				// its live connections first so in-flight proxies see a
				// transport error, not a graceful drain.
				if atomic.AddInt64(&done, 1) == total/3 {
					workers[1].CloseClientConnections()
					workers[1].Close()
					close(killed)
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case <-killed:
	default:
		t.Fatal("the worker crash never triggered; the load was too small")
	}
	if len(losses) > 0 {
		t.Fatalf("%d of %d requests lost; first: %v", len(losses), total, losses[0])
	}

	st, err := cl.Fleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Proxied == 0 {
		t.Fatal("no dispatches were proxied to workers")
	}
	var failedOver int64
	for _, w := range st.Workers {
		failedOver += w.FailedOver
	}
	if failedOver == 0 && st.LocalFallback == 0 {
		t.Fatal("killing a worker mid-load never forced a failover or a local fallback")
	}
}

// TestFleetLeaseExpiryRemovesHungWorker registers a worker that then
// goes silent: after the lease elapses it must leave the fleet status,
// and its next heartbeat must answer Known=false so the worker knows to
// re-register.
func TestFleetLeaseExpiryRemovesHungWorker(t *testing.T) {
	_, fts, _ := fleetFront(t, 60*time.Millisecond)
	// The base URL is never dialed — a hung worker stops heartbeating
	// before it serves anything.
	registerWorker(t, fts, "hung", "http://127.0.0.1:1", 0)
	cl := client.New(fts.URL, nil)
	ctx := context.Background()

	st, err := cl.Fleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 1 || st.Workers[0].Name != "hung" {
		t.Fatalf("after register, workers = %+v", st.Workers)
	}
	if hb := heartbeatWorker(t, fts, "hung", 0); !hb.Known {
		t.Fatal("heartbeat within the lease answered Known=false")
	}

	time.Sleep(150 * time.Millisecond) // > 2x the lease, no renewals
	if st, err = cl.Fleet(ctx); err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 0 {
		t.Fatalf("hung worker still listed after lease expiry: %+v", st.Workers)
	}
	if hb := heartbeatWorker(t, fts, "hung", 0); hb.Known {
		t.Fatal("heartbeat after lease expiry still answered Known=true")
	}
}

// TestFleetRollingUpdateNeverServesMixedVersions promotes a new table
// version while concurrent batch load runs through the front tier and
// checks the fence: every batch carries exactly one version, and the
// version a worker reports never moves backwards — a worker is either
// wholly on the old tables or wholly on the new ones. The rollout must
// converge with both workers pushed and none evicted.
func TestFleetRollingUpdateNeverServesMixedVersions(t *testing.T) {
	front, fts, c := fleetFront(t, 30*time.Second)
	w1, _ := startFleetWorker(t, fts, "a", WorkerOptions{})
	w2, _ := startFleetWorker(t, fts, "b", WorkerOptions{})
	ids := make([]int, 4)
	for i := range ids {
		ids[i] = c.Requests[i].ID
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Requests within one goroutine are strictly sequential, so a
			// version decrease on the same worker is a real fence
			// violation, not an observation race.
			last := map[string]int64{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				worker, ver, ok := postBatch(t, fts.Client(), fts.URL, ids)
				if !ok {
					return
				}
				if worker == "" {
					continue // local fallback carries the front's own fence
				}
				if prev, seen := last[worker]; seen && ver < prev {
					t.Errorf("worker %s fence moved backwards: v%d after v%d", worker, ver, prev)
					return
				}
				last[worker] = ver
			}
		}()
	}

	time.Sleep(50 * time.Millisecond) // let the load establish on v0
	if err := front.install(tableSet{reg: front.registry(), job: &ruleJob{}}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := front.pool.Status()
		if st.Rollout != nil && st.Rollout.Done && st.Rollout.Version == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rollout never converged: %+v", st.Rollout)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // keep load on the new fence a moment
	close(stop)
	wg.Wait()

	st := front.pool.Status()
	if len(st.Rollout.Evicted) != 0 {
		t.Errorf("healthy workers evicted during rollout: %v", st.Rollout.Evicted)
	}
	if len(st.Rollout.Pushed) != 2 {
		t.Errorf("rollout pushed %v, want both workers", st.Rollout.Pushed)
	}
	if got := front.TableVersion(); got != 1 {
		t.Errorf("front fence = v%d, want v1", got)
	}
	for name, w := range map[string]*Server{"a": w1, "b": w2} {
		if got := w.TableVersion(); got != 1 {
			t.Errorf("worker %s fence = v%d, want v1", name, got)
		}
	}
	if worker, ver, ok := postBatch(t, fts.Client(), fts.URL, ids); ok && worker != "" && ver != 1 {
		t.Errorf("post-rollout dispatch served v%d by %s, want v1", ver, worker)
	}
}

// TestFleetSnapshotBootstrapAndFencedTablePush walks the worker
// lifecycle without a front-tier router in the path: bootstrap from the
// shipped snapshot, serve dispatch at the snapshot's fence, accept a
// higher fenced push, refuse a lower one with 409, re-install an equal
// one, and refuse a stale snapshot on resync.
func TestFleetSnapshotBootstrapAndFencedTablePush(t *testing.T) {
	front, fts, c := fleetFront(t, 30*time.Second)
	snap, err := fleet.PullSnapshot(context.Background(), fts.Client(), fts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Matrix == nil || len(snap.Tables) == 0 {
		t.Fatalf("snapshot missing matrix or tables: %+v", snap)
	}
	w, err := NewWorkerFromSnapshot(snap, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ws := httptest.NewServer(w)
	defer ws.Close()

	ids := []int{c.Requests[0].ID, c.Requests[1].ID}
	if _, ver, ok := postBatch(t, ws.Client(), ws.URL, ids); !ok || ver != snap.TableVersion {
		t.Fatalf("bootstrap dispatch fence = v%d, want v%d", ver, snap.TableVersion)
	}

	tables, err := fleet.EncodeTables(tablesOf(front.registry()))
	if err != nil {
		t.Fatal(err)
	}
	push := func(ver int64) int {
		body, _ := json.Marshal(api.FleetTableUpdate{Version: ver, Tables: tables})
		resp, err := ws.Client().Post(ws.URL+"/fleet/table", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if got := push(2); got != http.StatusOK {
		t.Fatalf("push v2: status %d", got)
	}
	if got := w.TableVersion(); got != 2 {
		t.Fatalf("after push, fence = v%d, want v2", got)
	}
	if got := push(1); got != http.StatusConflict {
		t.Fatalf("push v1 behind the fence: status %d, want 409", got)
	}
	if got := push(2); got != http.StatusOK {
		t.Fatalf("re-push of v2: status %d", got)
	}
	if _, ver, ok := postBatch(t, ws.Client(), ws.URL, ids); !ok || ver != 2 {
		t.Fatalf("post-push dispatch fence = v%d, want v2", ver)
	}
	if err := w.InstallSnapshot(snap); err == nil {
		t.Fatal("stale snapshot (v0 behind the v2 fence) was accepted on resync")
	}
}

// postDispatch sends one POST /dispatch and returns the response with
// its body drained and closed; nil after recording the error on t.
func postDispatch(t *testing.T, hc *http.Client, base string, id int) *http.Response {
	req, err := http.NewRequest(http.MethodPost, base+"/dispatch", bytes.NewReader([]byte(`{"request_id": `+strconv.Itoa(id)+`}`)))
	if err != nil {
		t.Error(err)
		return nil
	}
	req.Header.Set("Tolerance", "0.05")
	resp, err := hc.Do(req)
	if err != nil {
		t.Errorf("dispatch: %v", err)
		return nil
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestFleetRelaysWorkerShedsWithoutFailover overloads two workers that
// admit one request at a time. A worker's 503 shed is its answer: the
// front tier relays it, retry hints and all, under the worker's name,
// and neither replays it on the sibling nor books a worker failure —
// retrying sheds across a fleet that is all overloaded only adds load.
func TestFleetRelaysWorkerShedsWithoutFailover(t *testing.T) {
	_, fts, c := fleetFront(t, 30*time.Second)
	for _, name := range []string{"a", "b"} {
		// Replay invocations that take wall time, so dispatches overlap.
		w, _ := startFleetWorker(t, fts, name, WorkerOptions{SleepScale: 0.2})
		w.Admission().SetConfig(admit.Config{Enabled: true, MaxInFlight: 1})
	}

	const goroutines, perG = 8, 25
	var served, shed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp := postDispatch(t, fts.Client(), fts.URL, c.Requests[(g*perG+i)%len(c.Requests)].ID)
				if resp == nil {
					return
				}
				worker := resp.Header.Get(api.HeaderWorker)
				switch {
				case worker == "":
					t.Errorf("status %d without %s: answered by the front tier, not relayed", resp.StatusCode, api.HeaderWorker)
				case resp.StatusCode == http.StatusOK:
					served.Add(1)
				case resp.StatusCode == http.StatusServiceUnavailable:
					shed.Add(1)
					if resp.Header.Get(api.HeaderRetryAfter) == "" || resp.Header.Get(api.HeaderRetryAfterMS) == "" {
						t.Errorf("503 from %s lost its retry hints: %v", worker, resp.Header)
					}
				default:
					t.Errorf("status %d from %s", resp.StatusCode, worker)
				}
			}
		}(g)
	}
	wg.Wait()
	if served.Load() == 0 || shed.Load() == 0 {
		t.Fatalf("served=%d shed=%d: the load must produce both", served.Load(), shed.Load())
	}

	st, err := client.New(fts.URL, nil).Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var requests int64
	for _, w := range st.Workers {
		requests += w.Requests
		if w.Failures != 0 || w.FailedOver != 0 {
			t.Errorf("worker %s failures=%d failed_over=%d, want 0/0: a shed is not a failure", w.Name, w.Failures, w.FailedOver)
		}
	}
	if requests != goroutines*perG || st.LocalFallback != 0 {
		t.Errorf("worker requests=%d local_fallback=%d, want %d/0", requests, st.LocalFallback, goroutines*perG)
	}
}

// TestFleetTraceIDCrossesTheHop: the id the front tier's Instrument
// minted, and answers with, is the id the serving worker's flight
// recorder files the dispatch under.
func TestFleetTraceIDCrossesTheHop(t *testing.T) {
	front, fts, c := fleetFront(t, 30*time.Second)
	w, ws := startFleetWorker(t, fts, "w0", WorkerOptions{})
	its := httptest.NewServer(Instrument(front, NewMetrics(), nil))
	t.Cleanup(its.Close)

	// The worker head-samples on a fixed stride, so two strides of
	// dispatches leave at least two spans in its ring.
	minted := map[string]bool{}
	for i := 0; i < 2*w.Recorder().SampleEvery(); i++ {
		resp := postDispatch(t, its.Client(), its.URL, c.Requests[i].ID)
		if resp == nil {
			t.FailNow()
		}
		id := resp.Header.Get(api.HeaderTrace)
		if resp.StatusCode != http.StatusOK || resp.Header.Get(api.HeaderWorker) != "w0" || id == "" {
			t.Fatalf("status %d from worker %q with trace id %q", resp.StatusCode, resp.Header.Get(api.HeaderWorker), id)
		}
		minted[id] = true
	}
	found := 0
	for id := range minted {
		resp, err := ws.Client().Get(ws.URL + "/trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			found++
		}
	}
	if found == 0 {
		t.Fatalf("none of the front tier's %d trace ids is known to the worker's GET /trace/{id}", len(minted))
	}
	for _, sp := range w.Recorder().Recent(trace.Filter{}, w.Recorder().Size()) {
		if !minted[trace.FormatID(sp.ID)] {
			t.Errorf("worker span %s is filed under an id the front tier never issued", trace.FormatID(sp.ID))
		}
	}
}
