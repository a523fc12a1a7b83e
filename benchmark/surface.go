package main

// surface.go is the only file of the benchmark that imports the program.
// Every program type, constructor, method and field the harness depends
// on is named here and nowhere else, so a refactor of the program adapts
// the benchmark by editing this one file (README.md lists the surface).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/toltiers/toltiers/internal/admit"
	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/coalesce"
	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/drift"
	"github.com/toltiers/toltiers/internal/fleet"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/rulegen/shard"
	"github.com/toltiers/toltiers/internal/server"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/state"
	"github.com/toltiers/toltiers/internal/tiers"
	"github.com/toltiers/toltiers/internal/trace"
	"github.com/toltiers/toltiers/internal/vision"
	"github.com/toltiers/toltiers/internal/workload"
)

type (
	Request     = service.Request
	Service     = service.Service
	Matrix      = profile.Matrix
	RuleTable   = rulegen.RuleTable
	Rule        = rulegen.Rule
	Objective   = rulegen.Objective
	Registry    = tiers.Registry
	Server      = server.Server
	Dispatcher  = dispatch.Dispatcher
	Ticket      = dispatch.Ticket
	Outcome     = dispatch.Outcome
	Backend     = dispatch.Backend
	Controller  = admit.Controller
	Decision    = admit.Decision
	Coalescer   = coalesce.Coalescer
	Monitor     = drift.Monitor
	Recorder    = trace.Recorder
	Pool        = fleet.Pool
	Agent       = fleet.Agent
	Snapshot    = state.Snapshot
	WireRequest = api.DispatchRequest
	WireBatch   = api.DispatchBatchRequest
	WireResult  = api.DispatchResult
	WireItems   = api.DispatchBatchResult
)

// Wire names the harness writes or reads on the socket.
const (
	pathDispatch = "/dispatch"
	pathBatch    = "/dispatch/batch"
	workerHeader = "X-Toltiers-Worker"
)

// ---- set-up path -------------------------------------------------------

// mixClass is one consumer class of the request stream.
type mixClass struct {
	weight    float64
	tolerance float64
	objective Objective
}

// consumerMix is workload.DefaultMix: response-time/0 30 %,
// response-time/0.05 45 %, cost/0.10 25 %.
func consumerMix() []mixClass {
	var out []mixClass
	for _, c := range workload.DefaultMix() {
		out = append(out, mixClass{c.Weight, c.Tolerance, c.Objective})
	}
	return out
}

func newCorpus(n int) (*Service, []*Request) {
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: n, Device: vision.GPU})
	return c.Service, c.Requests
}

func buildProfile(svc *Service, reqs []*Request) *Matrix { return profile.Build(svc, reqs) }

// generateRules runs the sharded generator and emits both objectives on
// the grid ttserver ships (0.10 in 0.005 steps).
func generateRules(ctx context.Context, m *Matrix) ([]RuleTable, error) {
	g, _, err := shard.Generate(ctx, m, nil, rulegen.DefaultConfig(), shard.Options{})
	if err != nil {
		return nil, err
	}
	grid := rulegen.ToleranceGrid(0.10, 0.005)
	return []RuleTable{
		g.Generate(grid, rulegen.MinimizeLatency),
		g.Generate(grid, rulegen.MinimizeCost),
	}, nil
}

func newRegistry(svc *Service, tables []RuleTable) *Registry {
	return tiers.NewRegistry(svc, tables...)
}

// driftConfig turns detection on with thresholds stationary traffic
// cannot cross. With the shipped defaults the CUSUM detectors fire on
// stationary replay (README.md, "Findings"), which would fail runs at
// random; raised thresholds keep every observation, window close and
// detector update on the measured path and leave drift.events a guard
// that only a real fault trips.
func driftConfig() drift.Config {
	const never = 1e12
	return drift.Config{
		Enabled:   true,
		ErrLambda: never, LatLambda: never, CusumH: never, QuantileRatio: never,
	}
}

// admissionConfig is "-admit -brownout" with limits that never bind: the
// buckets, the slot gauge and the brownout interval roll all run, none
// sheds.
func admissionConfig() admit.Config {
	return admit.Config{
		Enabled:     true,
		MaxInFlight: 1 << 16,
		DefaultRate: admit.Rate{PerSec: 1e9, Burst: 1e9},
		Brownout:    true,
	}
}

// newServingNode assembles what `ttserver -admit -brownout -coalesce
// -drift` serves (plus -fleet for the front tier) over instant replay
// backends: detection on, self-healing off.
func newServingNode(reg *Registry, reqs []*Request, m *Matrix, front bool) *Server {
	cfg := server.Config{
		Matrix:    m,
		Backends:  dispatch.NewReplayBackends(m),
		Drift:     driftConfig(),
		Admission: admissionConfig(),
		Coalesce:  &coalesce.Options{},
	}
	if front {
		cfg.Fleet = &fleet.Options{}
	}
	return server.NewWithConfig(reg, reqs, cfg)
}

func instrument(h http.Handler) http.Handler {
	return server.Instrument(h, server.NewMetrics(), nil)
}

func closeNode(s *Server)                  { s.Close() }
func nodeDispatcher(s *Server) *Dispatcher { return s.Dispatcher() }
func nodeAdmission(s *Server) *Controller  { return s.Admission() }
func nodeCoalescer(s *Server) *Coalescer   { return s.Coalescer() }
func nodeMonitor(s *Server) *Monitor       { return s.DriftMonitor() }
func nodeRecorder(s *Server) *Recorder     { return s.Recorder() }
func nodePool(s *Server) *Pool             { return s.Fleet() }

// Worker assembly, as cmd/ttworker does it.
func pullSnapshot(ctx context.Context, frontURL string) (*Snapshot, error) {
	return fleet.PullSnapshot(ctx, nil, frontURL)
}

func newWorker(snap *Snapshot) (*Server, error) {
	return server.NewWorkerFromSnapshot(snap, server.WorkerOptions{})
}

func newAgent(frontURL, name, advertise string, w *Server) *Agent {
	return &Agent{
		Join: frontURL, Name: name, Advertise: advertise,
		Heartbeat: time.Second,
		Version:   w.TableVersion,
		Resync: func(ctx context.Context, _ int64) error {
			fresh, err := fleet.PullSnapshot(ctx, nil, frontURL)
			if err != nil {
				return err
			}
			return w.InstallSnapshot(fresh)
		},
	}
}

func agentRun(ctx context.Context, a *Agent) error  { return a.Run(ctx) }
func agentDeregister(ctx context.Context, a *Agent) { a.Deregister(ctx) }
func liveWorkers(p *Pool) int                       { return len(p.Status().Workers) }

func snapshotEncode(buf *bytes.Buffer, s *Snapshot) error { return state.Write(buf, s) }
func snapshotDecode(data []byte) (*Snapshot, error)       { return state.Read(data) }
func snapshotRows(s *Snapshot) int                        { return s.Matrix.NumRequests() }

// embeddedParts is the embedded_contended stack: no HTTP, the layers a
// dispatch crosses assembled directly.
type embeddedParts struct {
	reg  *Registry
	adm  *Controller
	mon  *Monitor
	rec  *Recorder
	disp *Dispatcher
	coal *Coalescer
}

func backendNames(bs []Backend) []string {
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name()
	}
	return names
}

func newEmbedded(reg *Registry, m *Matrix) *embeddedParts {
	backends := dispatch.NewReplayBackends(m)
	e := &embeddedParts{reg: reg, adm: admit.New(admissionConfig()), rec: trace.New(trace.Options{})}
	e.mon = drift.NewMonitor(driftConfig(), backendNames(backends), drift.BackendBaselines(m))
	e.disp = dispatch.New(backends, dispatch.Options{
		MaxConcurrentPerBackend: 1,
		Observer:                e.mon,
		Recorder:                e.rec,
	})
	e.coal = coalesce.New(e.disp, coalesce.Options{MaxBatch: 8, Gate: func(n int, t Ticket) (coalesce.Grant, error) {
		dec := e.adm.AdmitBatch(time.Now(), t.Tenant, toleranceOfTier(t.Tier), t.Budget, e.disp.Floor(t.Policy.Primary), n)
		if dec.Verdict.Shed() {
			return coalesce.Grant{}, fmt.Errorf("admission shed: %v", dec.Verdict)
		}
		if dec.Verdict == admit.Downgrade {
			return coalesce.Grant{}, fmt.Errorf("admission downgraded a request under brownout")
		}
		return coalesce.Grant{Ticket: t, Release: func() { e.adm.Done(dec) }}, nil
	}})
	return e
}

// toleranceOfTier reads the tolerance back out of a "objective/tol" key.
func toleranceOfTier(tier string) float64 {
	tol, _ := strconv.ParseFloat(tier[strings.LastIndexByte(tier, '/')+1:], 64)
	return tol
}

// newReferenceDispatcher is a bare dispatcher over the same replay
// columns: the embedded oracle, and the recorder-off arm of
// trace.recorder_overhead_ns (observer attached, recorder not).
func newReferenceDispatcher(m *Matrix, obs *Monitor) *Dispatcher {
	opts := dispatch.Options{}
	if obs != nil {
		opts.Observer = obs
	}
	return dispatch.New(dispatch.NewReplayBackends(m), opts)
}

// ---- layer calls (the traced pass puts one span around each) -------------

func decodeSingle(body []byte, into *WireRequest) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(into)
}

func decodeBatch(body []byte, into *WireBatch) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(into)
}

func encodeSingle(buf *bytes.Buffer, res *WireResult) error {
	return json.NewEncoder(buf).Encode(res)
}

func encodeBatch(enc *json.Encoder, res *WireItems) error { return enc.Encode(res) }

// batchResultOf wraps decoded single results as the batch wire shape.
func batchResultOf(items []WireResult) *WireItems {
	out := &WireItems{Items: make([]api.DispatchBatchItem, len(items))}
	for i := range items {
		out.Items[i].DispatchResult = items[i]
	}
	return out
}

func resolve(reg *Registry, tol float64, obj Objective) (Rule, error) { return reg.Resolve(tol, obj) }

func admitOne(a *Controller, now time.Time, tenant string, tol float64, budget time.Duration, floor float64) Decision {
	return a.Admit(now, tenant, tol, budget, floor)
}

func admitMany(a *Controller, now time.Time, tenant string, tol float64, budget time.Duration, floor float64, n int) Decision {
	return a.AdmitBatch(now, tenant, tol, budget, floor, n)
}

func admitDone(a *Controller, d Decision) { a.Done(d) }
func admitShed(d Decision) bool           { return d.Verdict.Shed() || d.Verdict == admit.Downgrade }

// ticketFor builds the ticket the handlers build from a resolved rule.
func ticketFor(rule Rule, obj Objective, tenant string, budget time.Duration) Ticket {
	return Ticket{
		Tier:   dispatch.TierKey(string(obj), rule.Tolerance),
		Tenant: tenant,
		Policy: rule.Candidate.Policy,
		Budget: budget,
	}
}

func ruleTolerance(r Rule) float64                { return r.Tolerance }
func policyFloor(d *Dispatcher, t Ticket) float64 { return d.Floor(t.Policy.Primary) }

func coalesceDo(c *Coalescer, ctx context.Context, req *Request, t Ticket) (Outcome, error) {
	out, _, err := c.Do(ctx, req, t)
	return out, err
}

func dispatchDo(d *Dispatcher, ctx context.Context, req *Request, t Ticket) (Outcome, error) {
	return d.Do(ctx, req, t)
}

func dispatchBatch(d *Dispatcher, ctx context.Context, reqs []*Request, t Ticket, outs []Outcome, errs []error) ([]Outcome, []error, error) {
	return d.DoBatch(ctx, reqs, t, outs, errs)
}

func observe(m *Monitor, tier string, o *Outcome) { m.ObserveOutcome(tier, o) }
func ticketTier(t Ticket) string                  { return t.Tier }

func poolProxy(p *Pool, ctx context.Context, w http.ResponseWriter, hdr http.Header, path string, body []byte) bool {
	return p.Proxy(ctx, w, hdr, path, body)
}

// ---- answers -----------------------------------------------------------

// answer is what the harness keeps of one oracle answer.
type answer struct {
	latencyMS float64
	costUSD   float64
	backend   string
}

// checkWire enforces the per-answer invariants on a decoded response:
// served tier within the requested tolerance, no hedge, no deadline
// miss, no downgrade.
func checkWire(res *WireResult, tol float64) (answer, error) {
	switch {
	case res.Tier > tol:
		return answer{}, fmt.Errorf("served tier %g above requested tolerance %g", res.Tier, tol)
	case res.Hedged:
		return answer{}, fmt.Errorf("answer was hedged")
	case res.DeadlineExceeded:
		return answer{}, fmt.Errorf("answer overran its deadline")
	case res.Downgraded:
		return answer{}, fmt.Errorf("answer was downgraded")
	case res.Backend == "":
		return answer{}, fmt.Errorf("answer names no backend")
	}
	return answer{latencyMS: res.LatencyMS, costUSD: res.CostUSD, backend: res.Backend}, nil
}

func checkOutcome(o *Outcome, t Ticket, tol float64) (answer, error) {
	switch {
	case toleranceOfTier(t.Tier) > tol:
		return answer{}, fmt.Errorf("served tier %s above requested tolerance %g", t.Tier, tol)
	case o.Hedged:
		return answer{}, fmt.Errorf("answer was hedged")
	case o.DeadlineExceeded:
		return answer{}, fmt.Errorf("answer overran its deadline")
	case o.Backend == "":
		return answer{}, fmt.Errorf("answer names no backend")
	}
	return answer{
		latencyMS: float64(o.Latency) / float64(time.Millisecond),
		costUSD:   o.InvCost,
		backend:   o.Backend,
	}, nil
}

// sameOutcome compares two dispatch outcomes field for field.
func sameOutcome(a, b *Outcome) bool {
	sameErr := a.Err == b.Err || (math.IsNaN(a.Err) && math.IsNaN(b.Err))
	return sameErr &&
		a.Result.Class == b.Result.Class &&
		a.Result.Confidence == b.Result.Confidence &&
		a.Result.Latency == b.Result.Latency &&
		a.Result.WorkUnits == b.Result.WorkUnits &&
		len(a.Result.Transcript) == len(b.Result.Transcript) &&
		a.Latency == b.Latency &&
		a.InvCost == b.InvCost &&
		a.IaaSCost == b.IaaSCost &&
		a.Escalated == b.Escalated &&
		a.Hedged == b.Hedged &&
		a.DeadlineExceeded == b.DeadlineExceeded &&
		a.Started == b.Started &&
		a.Backend == b.Backend
}

// grade is the harness's own grading of an answer: it runs the version
// the answer names on the corpus request and scores it with
// service.Top1Evaluator. Replay answers carry no class, so this is the
// only way the task error reaches the benchmark from outside the
// program's telemetry.
func grade(svc *Service, req *Request, backend string) (float64, error) {
	v := svc.VersionIndex(strings.TrimPrefix(backend, "replay:"))
	if v < 0 {
		return 0, fmt.Errorf("answer names unknown backend %q", backend)
	}
	return service.Top1Evaluator{}.Error(req, svc.Versions[v].Process(req)), nil
}

// ---- counters (growth over the timed phases) -----------------------------

type dispatchCounters struct{ requests, failures, escalations, hedges int64 }

func readDispatch(d *Dispatcher) dispatchCounters {
	s := d.Snapshot()
	c := dispatchCounters{requests: s.Requests, failures: s.Failures}
	for _, t := range s.Tiers {
		c.escalations += t.Escalations
		c.hedges += t.Hedges
	}
	return c
}

type admitCounters struct{ admitted, shed, downgraded int64 }

func readAdmit(a *Controller) admitCounters {
	s := a.Status()
	return admitCounters{
		admitted:   s.Admitted,
		shed:       s.ShedRate + s.ShedCapacity + s.ShedDeadline,
		downgraded: s.Downgraded,
	}
}

type coalesceCounters struct{ bypassed, coalesced, windows, sizeFlushes, shed int64 }

func readCoalesce(c *Coalescer) coalesceCounters {
	if c == nil {
		return coalesceCounters{}
	}
	s := c.Stats()
	return coalesceCounters{s.Bypassed, s.Coalesced, s.Windows, s.SizeFlushes, s.Shed}
}

type traceCounters struct{ dispatches, committed int64 }

func readTrace(r *Recorder) traceCounters {
	s := r.Stats()
	return traceCounters{s.Dispatches, s.Committed}
}

type fleetCounters struct {
	proxied, fallback, failedOver int64
	perWorker                     map[string]int64
}

func readFleet(p *Pool) fleetCounters {
	s := p.Status()
	c := fleetCounters{proxied: s.Proxied, fallback: s.LocalFallback, perWorker: map[string]int64{}}
	for _, w := range s.Workers {
		c.failedOver += w.FailedOver
		c.perWorker[w.Name] = w.Requests
	}
	return c
}

func driftEvents(m *Monitor) int { return len(m.Events()) }

// driftCheck is one tick of the server's drift loop, for the embedded
// stack that has no server to run it.
func driftCheck(m *Monitor, d *Dispatcher) { m.Check(time.Now(), d.P95) }
