package server

import (
	"context"
	"encoding/json"
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
	"github.com/toltiers/toltiers/internal/client"
	"github.com/toltiers/toltiers/internal/coalesce"
	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/tiers"
	"github.com/toltiers/toltiers/internal/vision"
)

// coalesceFixture builds the small vision registry the coalescing
// server tests share.
func coalesceFixture(t testing.TB) (*tiers.Registry, *profile.Matrix, *dataset.VisionCorpus) {
	t.Helper()
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 240, Device: vision.GPU})
	m := profile.Build(c.Service, c.Requests)
	cfg := rulegen.DefaultConfig()
	cfg.MinTrials = 5
	cfg.MaxTrials = 24
	cfg.ThresholdPoints = 4
	cfg.IncludePickBest = false
	g := rulegen.New(m, nil, cfg)
	reg := tiers.NewRegistry(c.Service, g.Generate([]float64{0, 0.01, 0.05, 0.10}, rulegen.MinimizeLatency))
	return reg, m, c
}

// coalesceServer builds a serving node with dispatch coalescing armed
// (and optionally admission) over the shared fixture.
func coalesceServer(t testing.TB, reg *tiers.Registry, m *profile.Matrix, c *dataset.VisionCorpus,
	copts coalesce.Options, acfg admit.Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewWithConfig(reg, c.Requests, Config{Matrix: m, Coalesce: &copts, Admission: acfg})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestSplitTierKey(t *testing.T) {
	obj, tol, ok := splitTierKey("response-time/0.05")
	if !ok || obj != rulegen.MinimizeLatency || tol != 0.05 {
		t.Fatalf("got %v/%v/%v", obj, tol, ok)
	}
	for _, bad := range []string{"", "noslash", "bogus-objective/0.05", "response-time/notanumber"} {
		if _, _, ok := splitTierKey(bad); ok {
			t.Fatalf("%q parsed as a tier key", bad)
		}
	}
}

// slowBackend answers as the backend it wraps, after holding the
// invocation for d of wall time so that concurrent dispatches overlap.
type slowBackend struct {
	dispatch.Backend
	d time.Duration
}

func (b slowBackend) Invoke(ctx context.Context, req *service.Request) (dispatch.Response, error) {
	time.Sleep(b.d)
	return b.Backend.Invoke(ctx, req)
}

// dispatchEcho is the deterministic slice of a dispatch response
// (latency and cost renderings ride the simulated clock).
type dispatchEcho struct {
	class  int
	conf   float64
	tier   float64
	policy string
	esc    bool
}

// TestCoalescedDispatchParity proves the HTTP contract is unchanged by
// coalescing: a coalesced node and a serial node over the same registry
// and corpus answer POST /dispatch identically (grade, policy, tier,
// escalation), and the coalesced node's per-tenant telemetry is
// reachable both through GET /telemetry?tenant= and the snapshot's
// rollup.
//
// The coalescing node's backends occupy a millisecond of wall time and
// MaxBatch sits at half the worker count, so the workers are a crowd and
// the answers compared below really came out of windows.
func TestCoalescedDispatchParity(t *testing.T) {
	reg, m, corpus := coalesceFixture(t)
	backends := dispatch.NewServiceBackends(reg.Service())
	for i, b := range backends {
		backends[i] = slowBackend{b, time.Millisecond}
	}
	srv := NewWithConfig(reg, corpus.Requests, Config{Matrix: m, Backends: backends, Coalesce: &coalesce.Options{MaxBatch: 4}})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	serialSrv := New(reg, corpus.Requests)
	serialTS := httptest.NewServer(serialSrv)
	t.Cleanup(serialSrv.Close)
	t.Cleanup(serialTS.Close)
	ctx := context.Background()

	cl := client.New(ts.URL, ts.Client()).WithTenant("acme")
	serialCl := client.New(serialTS.URL, serialTS.Client())

	const n = 96
	want := make([]dispatchEcho, n)
	for i := 0; i < n; i++ {
		res, err := serialCl.Dispatch(ctx, corpus.Requests[i].ID, 0.05, rulegen.MinimizeLatency, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = dispatchEcho{class: *res.Class, conf: res.Confidence, tier: res.Tier, policy: res.Policy, esc: res.Escalated}
	}

	got := make([]dispatchEcho, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, err := cl.Dispatch(ctx, corpus.Requests[i].ID, 0.05, rulegen.MinimizeLatency, 0)
				if err != nil {
					errs[i] = err
					continue
				}
				got[i] = dispatchEcho{class: *res.Class, conf: res.Confidence, tier: res.Tier, policy: res.Policy, esc: res.Escalated}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("request %d diverged under coalescing:\ncoalesced %+v\nserial    %+v", i, got[i], want[i])
		}
	}

	st := srv.Coalescer().Stats()
	if st.Bypassed+st.Coalesced != n || st.Shed != 0 || st.Left != 0 {
		t.Fatalf("coalescer stats %+v, want %d delivered", st, n)
	}
	if st.Windows == 0 || st.Coalesced < n/4 {
		t.Fatalf("coalescer stats %+v: too few of %d dispatches rode a window for this to be a parity test", st, n)
	}

	tn, err := cl.TelemetryForTenant(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if tn.Tenant != "acme" || tn.Requests != n {
		t.Fatalf("tenant partition %+v, want %d requests", tn, n)
	}
	snap, err := cl.Telemetry(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Requests != n || len(snap.Tenants) != 1 || snap.Tenants[0].Requests != n {
		t.Fatalf("snapshot rollup %+v, want one tenant with %d requests", snap.Tenants, n)
	}
	if ghost, err := cl.TelemetryForTenant(ctx, "ghost"); err != nil || ghost.Requests != 0 {
		t.Fatalf("unknown tenant: %+v, %v — want the zero row", ghost, err)
	}

	// Cross-endpoint parity: the endpoints are adapters over one path, so
	// the same (tolerance, objective, request id) answers with the same
	// ComputeResult fields whichever way in — /compute, /dispatch and a
	// one-id /dispatch/batch, on the serial and on the coalescing node
	// (where /compute rides the coalescer too).
	for _, tol := range []float64{0, 0.05, 0.10} {
		for _, req := range corpus.Requests[:8] {
			var first *api.ComputeResult
			for _, node := range []struct {
				name string
				cl   *client.Client
			}{{"serial", serialCl}, {"coalescing", cl}} {
				comp, err := node.cl.Compute(ctx, req.ID, tol, rulegen.MinimizeLatency)
				if err != nil {
					t.Fatal(err)
				}
				disp, err := node.cl.Dispatch(ctx, req.ID, tol, rulegen.MinimizeLatency, 0)
				if err != nil {
					t.Fatal(err)
				}
				batch, err := node.cl.DispatchBatch(ctx, []int{req.ID}, tol, rulegen.MinimizeLatency, 0)
				if err != nil {
					t.Fatal(err)
				}
				for lane, got := range map[string]*api.ComputeResult{
					"/compute": comp, "/dispatch": &disp.ComputeResult, "/dispatch/batch": &batch.Items[0].ComputeResult,
				} {
					if first == nil {
						first = got
					}
					if *got.Class != *first.Class || got.Confidence != first.Confidence || got.Tier != first.Tier ||
						got.Objective != first.Objective || got.Policy != first.Policy || got.Escalated != first.Escalated {
						t.Fatalf("request %d at tolerance %v: %s on the %s node answered %+v, want %+v",
							req.ID, tol, lane, node.name, *got, *first)
					}
				}
			}
		}
	}
}

// TestPromotionBetweenResolveAndFlush pins "no mixed versions" on the
// coalesced path: the handler resolves under table v(n), a promotion to
// v(n+1) — a different policy for the same tolerance — lands before the
// window is admitted, and the response must still be v(n)'s throughout:
// version header, policy header and body. The admission function admits
// the ticket it is handed; it never resolves the tier key again.
func TestPromotionBetweenResolveAndFlush(t *testing.T) {
	reg, m, corpus := coalesceFixture(t)
	srv, ts := coalesceServer(t, reg, m, corpus, coalesce.Options{}, admit.Config{})
	old, err := reg.Resolve(0.05, rulegen.MinimizeLatency)
	if err != nil {
		t.Fatal(err)
	}
	table, _ := reg.Table(rulegen.MinimizeLatency)
	table.Rules = append([]rulegen.Rule(nil), table.Rules...)
	promoted := ensemble.Policy{Kind: ensemble.Single, Primary: (old.Candidate.Policy.Primary + 1) % len(srv.backends)}
	for i := range table.Rules {
		table.Rules[i].Candidate.Policy = promoted
	}
	next := tiers.NewRegistry(corpus.Service, table)

	var promote sync.Once
	// MaxBatch 1 makes each lone dispatch its own window, so the promotion
	// lands between a resolve and a window's flush, not a solo dispatch.
	srv.coal = coalesce.New(srv.disp, coalesce.Options{MaxBatch: 1, Gate: func(n int, tk dispatch.Ticket) (coalesce.Grant, error) {
		promote.Do(func() {
			if err := srv.install(tableSet{reg: next, job: &ruleJob{}}); err != nil {
				t.Error(err)
			}
		})
		g, err := srv.admitWindow(n, tk)
		if err == nil && g.Ticket.Policy != tk.Policy {
			t.Errorf("admission rewrote the ticket's policy %v to %v", tk.Policy, g.Ticket.Policy)
		}
		return g, err
	}})

	for i, want := range []struct {
		version string
		policy  ensemble.Policy
	}{{"0", old.Candidate.Policy}, {"1", promoted}} {
		status, hdr, res := laneDo(t, ts, lane{"/dispatch", `{"request_id": %d}`, true}, corpus.Requests[0].ID, 0.05, "")
		if status != http.StatusOK {
			t.Fatalf("dispatch %d: status %d", i, status)
		}
		if got := hdr.Get("X-Toltiers-Table-Version"); got != want.version {
			t.Fatalf("dispatch %d: table version %q, want %q", i, got, want.version)
		}
		if hdr.Get("X-Toltiers-Policy") != want.policy.String() || res.Policy != want.policy.String() {
			t.Fatalf("dispatch %d under table v%s rendered policy %q (header) / %q (body), want %q",
				i, want.version, hdr.Get("X-Toltiers-Policy"), res.Policy, want.policy)
		}
	}
	if st := srv.coal.Stats(); st.Windows != 2 || st.Coalesced != 2 {
		t.Fatalf("coalescer stats %+v, want both dispatches flushed as windows", st)
	}
}

// lane is one way into the tier-execution path: an endpoint, its body
// shape for one corpus id, and whether the node coalesces.
type lane struct {
	path, body string
	coalesced  bool
}

func (l lane) String() string {
	if l.coalesced {
		return l.path + " (coalescing node)"
	}
	return l.path
}

var lanes = []lane{
	{"/compute", `{"request_id": %d}`, false},
	{"/compute", `{"request_id": %d}`, true},
	{"/dispatch", `{"request_id": %d}`, false},
	{"/dispatch", `{"request_id": %d}`, true},
	{"/dispatch/batch", `{"request_ids": [%d]}`, false},
}

// laneDo posts one corpus id down a lane and returns the rendered
// status, headers and — on 200 — the result in its widest shape
// (/compute fills only the embedded ComputeResult).
func laneDo(t *testing.T, ts *httptest.Server, l lane, id int, tol float64, tenant string) (int, http.Header, api.DispatchResult) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+l.path, strings.NewReader(fmt.Sprintf(l.body, id)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Tolerance", strconv.FormatFloat(tol, 'f', -1, 64))
	if tenant != "" {
		req.Header.Set("Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res api.DispatchResult
	if resp.StatusCode == http.StatusOK {
		switch l.path {
		case "/compute":
			err = json.NewDecoder(resp.Body).Decode(&res.ComputeResult)
		case "/dispatch":
			err = json.NewDecoder(resp.Body).Decode(&res)
		default:
			var batch api.DispatchBatchResult
			if err = json.NewDecoder(resp.Body).Decode(&batch); err == nil {
				res = batch.Items[0].DispatchResult
			}
		}
		if err != nil {
			t.Fatalf("%v: decode: %v", l, err)
		}
	}
	return resp.StatusCode, resp.Header, res
}

// TestCoalescedShedWireFormat proves admission renders the same on every
// lane — there is one admission function, whether the handler calls it
// or the coalescer's flush does: a drained bucket answers 429 and a
// capacity shed 503, both with the two Retry-After forms in agreement,
// and a brownout downgrade answers 200 at the brownout tier, marked
// downgraded wherever the response shape has the field.
func TestCoalescedShedWireFormat(t *testing.T) {
	reg, m, corpus := coalesceFixture(t)
	id := corpus.Requests[0].ID
	for _, tc := range []struct {
		name string
		acfg admit.Config
		// arrange drives the node into the condition before the probe.
		arrange    func(t *testing.T, srv *Server, ts *httptest.Server, l lane)
		tol        float64
		wantStatus int
		wantTier   float64
	}{
		{
			name: "drained bucket",
			acfg: admit.Config{Enabled: true, DefaultRate: admit.Rate{PerSec: 0.001, Burst: 1}},
			arrange: func(t *testing.T, _ *Server, ts *httptest.Server, l lane) {
				// The single burst token admits one request...
				if status, _, _ := laneDo(t, ts, l, id, 0.05, ""); status != http.StatusOK {
					t.Fatalf("%v: first request status %d", l, status)
				}
			},
			tol: 0.05, wantStatus: http.StatusTooManyRequests,
		},
		{
			name: "capacity shed",
			acfg: admit.Config{Enabled: true, MaxInFlight: 2},
			arrange: func(t *testing.T, srv *Server, _ *httptest.Server, _ lane) {
				// Hold the single bulk slot (the other is the priority
				// reserve) for the rest of the test.
				hold := srv.Admission().Admit(time.Now(), "", 0.10, 0, math.NaN())
				if hold.Verdict != admit.Accept {
					t.Fatalf("setup hold: %v", hold.Verdict)
				}
				t.Cleanup(func() { srv.Admission().Done(hold) })
			},
			tol: 0.10, wantStatus: http.StatusServiceUnavailable,
		},
		{
			name: "brownout downgrade",
			acfg: admit.Config{Enabled: true, MaxInFlight: 1, Brownout: true, EngageIntervals: 1, Interval: 10 * time.Second},
			arrange: func(t *testing.T, srv *Server, _ *httptest.Server, _ lane) {
				// Saturate one interval, then roll past it.
				adm, now := srv.Admission(), time.Now()
				hold := adm.Admit(now, "", 0.05, 0, math.NaN())
				adm.Admit(now, "", 0.05, 0, math.NaN())
				adm.Admit(now.Add(10*time.Second+time.Millisecond), "", 0.05, 0, math.NaN())
				adm.Done(hold)
				if !adm.Engaged() {
					t.Fatal("brownout not engaged")
				}
			},
			tol: 0.05, wantStatus: http.StatusOK, wantTier: 0.10,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := reg.Resolve(tc.wantTier, rulegen.MinimizeLatency)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range lanes {
				cfg := Config{Matrix: m, Admission: tc.acfg}
				if l.coalesced {
					cfg.Coalesce = &coalesce.Options{}
				}
				srv := NewWithConfig(reg, corpus.Requests, cfg)
				t.Cleanup(srv.Close)
				ts := httptest.NewServer(srv)
				t.Cleanup(ts.Close)
				tc.arrange(t, srv, ts, l)

				status, hdr, res := laneDo(t, ts, l, id, tc.tol, "")
				if status != tc.wantStatus {
					t.Fatalf("%v: status %d, want %d", l, status, tc.wantStatus)
				}
				if status == http.StatusOK {
					if res.Tier != tc.wantTier || res.Policy != want.Candidate.Policy.String() ||
						hdr.Get("X-Toltiers-Policy") != res.Policy {
						t.Fatalf("%v: served tier %v policy %q (header %q), want the brownout tier %v %q",
							l, res.Tier, res.Policy, hdr.Get("X-Toltiers-Policy"), tc.wantTier, want.Candidate.Policy)
					}
					if l.path != "/compute" && !res.Downgraded {
						t.Fatalf("%v: downgraded answer not marked: %+v", l, res)
					}
					continue
				}
				secs, err := strconv.Atoi(hdr.Get("Retry-After"))
				if err != nil || secs < 1 {
					t.Fatalf("%v: Retry-After %q: whole positive seconds required", l, hdr.Get("Retry-After"))
				}
				ms, err := strconv.ParseFloat(hdr.Get("X-Toltiers-Retry-After-MS"), 64)
				if err != nil || ms <= 0 || float64(secs) != math.Ceil(ms/1000) {
					t.Fatalf("%v: X-Toltiers-Retry-After-MS %q does not round up to Retry-After %d",
						l, hdr.Get("X-Toltiers-Retry-After-MS"), secs)
				}
			}
		})
	}
}
