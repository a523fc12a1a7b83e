// Command ttload is the scenario driver for a tolerance-tier serving
// node: it synthesizes an annotated arrival trace (Poisson or bursty,
// drawn from the paper's consumer mix), drives it at a target RPS
// through a bounded worker pool against the node's HTTP API, and checks
// that every arrival is accounted for — overload, coalescing, drift,
// chaos and fleet-failover scenarios all end in the same ledger
// (-assert).
//
// The node is either a remote endpoint (-target http://host:port) or —
// the default — one this process boots: the corpus is profiled, rule
// tables are generated, and the same server ttserver serves is assembled
// over replay backends and driven through the client SDK on an
// in-memory transport (no listener, no port). Either way requests take
// the node's one tier-execution path, and every report is read back
// through the node's own endpoints (GET /telemetry, /admission, /drift,
// /trace/recent). ttload is not a throughput instrument: the wall times
// it prints include the generator, the SDK and the HTTP handler; the
// served path's numbers are benchmark/REPEATABILITY.md.
//
// With -batch N, arrivals of one consumer class are grouped into
// N-item batches (dispatched when the last arrival of the group lands)
// and issued through POST /dispatch/batch, which reports the same
// per-item percentiles.
//
// Examples:
//
//	ttload -service vision -corpus 1000 -rps 5000 -duration 5s
//	ttload -rps 800 -deadline-ms 30 -sleep-scale 1 -concurrency 64
//	ttload -target http://localhost:8080 -rps 200 -duration 10s
//	ttload -rps 200000 -batch 64 -duration 5s
//	ttload -target http://localhost:8080 -rps 5000 -batch 128
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"github.com/toltiers/toltiers/internal/admit"
	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/client"
	"github.com/toltiers/toltiers/internal/coalesce"
	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/drift"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/server"
	"github.com/toltiers/toltiers/internal/tiers"
	"github.com/toltiers/toltiers/internal/trace"
	"github.com/toltiers/toltiers/internal/workload"
)

// options is the flag set (see register for what each one means).
type options struct {
	target, service, chaos                              string
	corpus, concurrency, perBackend, batch, tenants     int
	driftWindow, admitInflight, coalesceMax             int
	rps, burst, deadlineMS, sleepScale, step, admitRate float64
	duration, coalesceWindow                            time.Duration
	seed                                                uint64
	drift, trace, overload, coalesce, assert            bool
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.target, "target", "", "remote endpoint URL (empty = boot a replay node in this process)")
	fs.StringVar(&o.service, "service", "vision", "service the booted node serves: asr | vision | vision-cpu")
	fs.IntVar(&o.corpus, "corpus", 1000, "corpus size to profile for the booted node (a -target run reads the target's corpus from /healthz)")
	fs.Float64Var(&o.rps, "rps", 2000, "target mean arrival rate")
	fs.DurationVar(&o.duration, "duration", 5*time.Second, "trace length")
	fs.IntVar(&o.concurrency, "concurrency", 32, "closed-loop worker pool size")
	fs.Float64Var(&o.burst, "burst", 1, "arrival burstiness (>1 enables the two-state modulated process)")
	fs.Float64Var(&o.deadlineMS, "deadline-ms", 0, "per-request latency budget in ms (0 = none; arms hedging)")
	fs.Float64Var(&o.sleepScale, "sleep-scale", 0, "the booted node's replay backends occupy wall time for latency*scale")
	fs.IntVar(&o.perBackend, "max-per-backend", 0, "the booted node's per-backend concurrency limit (0 = unlimited)")
	fs.Float64Var(&o.step, "step", 0.01, "tolerance grid step of the booted node's rule tables")
	fs.Uint64Var(&o.seed, "seed", 0x10ad, "trace seed")
	fs.IntVar(&o.batch, "batch", 1, "group arrivals of one consumer class into batches of this size (1 = per-request dispatch)")
	fs.StringVar(&o.chaos, "chaos", "", "scripted backend perturbations for the booted node, e.g. 'backend=0,kind=latency,shape=step,start=1000,magnitude=2/backend=1,kind=accuracy,magnitude=0.5' (kinds latency|accuracy|error; shapes step|ramp|osc; logical time = invocations)")
	fs.BoolVar(&o.drift, "drift", false, "print the node's drift-detector state from GET /drift after the run (the booted node watches its traffic with a drift monitor)")
	fs.IntVar(&o.driftWindow, "drift-window", 64, "dispatches per drift-detector window of the booted node (-drift)")
	fs.BoolVar(&o.trace, "trace", false, "print the slowest flight-recorder exemplars per tier from GET /trace/recent after the run (the booted node records per-dispatch spans)")

	fs.BoolVar(&o.overload, "overload", false, "overload scenario: the booted node admits through its admission layer with brownout armed (a -target's 429/503 answers count as sheds either way); prints GET /admission after the run")
	fs.IntVar(&o.admitInflight, "admit-max-inflight", 0, "admitted in-flight cap of the booted node under -overload (0 = half of -concurrency)")
	fs.Float64Var(&o.admitRate, "admit-rate", 0, "per-consumer-class token-bucket refill under -overload, req/s (0 = unlimited)")

	fs.BoolVar(&o.coalesce, "coalesce", false, "the booted node gathers concurrent per-request dispatches of one tier into batch windows")
	fs.DurationVar(&o.coalesceWindow, "coalesce-window", 0, "coalescing time trigger (0 = 200µs; clamped to 100µs–500µs)")
	fs.IntVar(&o.coalesceMax, "coalesce-max", 0, "the batch worth waiting for: window size trigger and the in-flight caller count below which requests dispatch at once (0 = 64)")
	fs.IntVar(&o.tenants, "tenants", 0, "spread arrivals round-robin across this many named tenants (tenant-0..) of the booted node: each gets its own telemetry partition and report row")
	fs.BoolVar(&o.assert, "assert", false, "after the run, verify the accounting reconciles and exit 1 on mismatch: per tier, sent = graded + failed + shed with nothing failed unless -chaos injected it; per Tenant header sent, the node's telemetry partition agrees; on a booted -coalesce node, no waiter lost")
}

// validate rejects flag combinations that cannot mean anything.
func (o *options) validate() error {
	switch {
	case o.batch < 1:
		return errors.New("-batch must be >= 1")
	case o.target != "" && o.coalesce:
		return errors.New("-coalesce configures the booted node; point -target at a ttserver started with -coalesce instead")
	case o.target != "" && o.tenants > 0:
		return errors.New("-tenants applies to the booted node")
	case o.target != "" && o.chaos != "":
		return errors.New("-chaos applies to the booted node")
	case o.coalesce && o.batch != 1:
		return errors.New("-coalesce gathers per-request dispatch into windows; drop -batch")
	}
	return nil
}

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()
	if err := o.validate(); err != nil {
		log.Fatal(err)
	}
	var node *server.Server
	if o.target == "" {
		m, reg, err := profileCorpus(o.service, o.corpus, o.step)
		if err != nil {
			log.Fatal(err)
		}
		if node, err = bootNode(m, reg, o); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := run(o, node); err != nil {
		log.Fatal(err)
	}
}

// profileCorpus builds what a booted node serves: the profile matrix
// its replay backends answer from and the rule tables generated over it.
func profileCorpus(service string, n int, step float64) (*profile.Matrix, *tiers.Registry, error) {
	svc, reqs, err := dataset.ByName(service, n)
	if err != nil {
		return nil, nil, err
	}
	log.Printf("profiling %d requests of %s ...", len(reqs), svc.Domain)
	m := profile.Build(svc, reqs)
	log.Printf("generating rule tables (step %g) ...", step)
	gen := rulegen.New(m, nil, rulegen.DefaultConfig())
	grid := rulegen.ToleranceGrid(0.10, step)
	return m, tiers.NewRegistry(svc,
		gen.Generate(grid, rulegen.MinimizeLatency),
		gen.Generate(grid, rulegen.MinimizeCost)), nil
}

// bootNode assembles the node ttserver serves over replay backends of
// the matrix, configured by the scenario flags. Its drift loop ticks as
// a serving node's does — the per-backend quantile-shift tests need
// consecutive Check strikes — but never self-heals: a scenario reports
// the detectors, it does not re-profile under them.
func bootNode(m *profile.Matrix, reg *tiers.Registry, o options) (*server.Server, error) {
	backends := dispatch.NewReplayBackends(m)
	if o.sleepScale > 0 {
		for _, b := range backends {
			b.(*dispatch.ReplayBackend).SleepScale = o.sleepScale
		}
	}
	if o.chaos != "" {
		specs, err := dispatch.ParseChaos(o.chaos)
		if err != nil {
			return nil, err
		}
		if backends, err = dispatch.ApplyChaos(backends, specs); err != nil {
			return nil, err
		}
	}
	cfg := server.Config{
		Matrix:        m,
		Backends:      backends,
		Dispatch:      dispatch.Options{MaxConcurrentPerBackend: o.perBackend},
		Drift:         drift.Config{Enabled: o.drift, Window: o.driftWindow},
		DriftInterval: 250 * time.Millisecond,
		Trace:         trace.Options{Disabled: !o.trace},
	}
	if o.overload {
		inflight := o.admitInflight
		if inflight <= 0 {
			inflight = max(o.concurrency/2, 4)
		}
		cfg.Admission = admit.Config{
			Enabled:     true,
			MaxInFlight: inflight,
			DefaultRate: admit.Rate{PerSec: o.admitRate},
			Brownout:    true,
			Interval:    250 * time.Millisecond,
		}
	}
	if o.coalesce {
		cfg.Coalesce = &coalesce.Options{Window: o.coalesceWindow, MaxBatch: o.coalesceMax}
	}
	return server.NewWithConfig(reg, dispatch.ReplayRequests(m), cfg), nil
}

// inProcess is the transport of a booted node: each round trip is one
// ServeHTTP call on the caller's goroutine.
type inProcess struct{ h http.Handler }

func (t inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if req.Body != nil {
		_ = req.Body.Close() // a bytes.Reader behind a NopCloser: cannot fail
	}
	return rec.Result(), nil
}

// driver issues arrivals at the node through the client SDK and files
// every outcome in the ledger.
type driver struct {
	cl     *client.Client
	budget time.Duration
	// booted marks a node this process assembled (see tenantHeader).
	booted bool
	l      *ledger
}

// tenantHeader is the Tenant header an arrival of consumer class tier
// carries: the named tenant under -tenants; else, on a booted node, the
// class itself, so every class gets its own admission bucket and
// telemetry partition; else none — a remote target sees the anonymous
// traffic it always has.
func (d *driver) tenantHeader(named, tier string) string {
	if named == "" && d.booted {
		return tier
	}
	return named
}

func (d *driver) issue(ctx context.Context, arr workload.Arrival, named string) {
	tier := dispatch.TierKey(string(arr.Objective), arr.Tolerance)
	tenant := d.tenantHeader(named, tier)
	d.l.sent(tier, tenant, 1)
	start := time.Now()
	res, err := d.cl.WithTenant(tenant).Dispatch(ctx, arr.RequestIndex, arr.Tolerance, arr.Objective, d.budget)
	if err != nil {
		d.l.rejected(tier, tenant, 1, err)
		return
	}
	d.l.graded(tier, tenant, time.Since(start), res)
}

// issueBatch issues one batch; every arrival in it carries the same
// annotation (see batchTrace).
func (d *driver) issueBatch(ctx context.Context, arrs []workload.Arrival, named string) {
	tier := dispatch.TierKey(string(arrs[0].Objective), arrs[0].Tolerance)
	tenant := d.tenantHeader(named, tier)
	d.l.sent(tier, tenant, len(arrs))
	ids := make([]int, len(arrs))
	for i, arr := range arrs {
		ids[i] = arr.RequestIndex
	}
	start := time.Now()
	res, err := d.cl.WithTenant(tenant).DispatchBatch(ctx, ids, arrs[0].Tolerance, arrs[0].Objective, d.budget)
	wall := time.Since(start)
	if err != nil {
		d.l.rejected(tier, tenant, len(arrs), err)
		return
	}
	for i := range res.Items {
		if item := &res.Items[i]; item.Error != "" {
			d.l.rejected(tier, tenant, 1, errors.New(item.Error))
		} else {
			d.l.graded(tier, tenant, wall, &item.DispatchResult)
		}
	}
}

// run drives one scenario against node — or, with node nil, against
// o.target — prints the reports, and under -assert verifies the ledger.
func run(o options, node *server.Server) (*ledger, error) {
	cl := client.New(o.target, nil)
	if node != nil {
		defer node.Close()
		// ttserver's handler stack: the Instrument middleware mints the
		// trace ids that sheds and exemplars are recorded under.
		h := server.Instrument(node, server.NewMetrics(), nil)
		cl = client.New("http://ttload.in-process", &http.Client{Transport: inProcess{h}})
	}
	ctx := context.Background()
	st, err := cl.Health(ctx)
	if err != nil {
		return nil, fmt.Errorf("node not healthy: %w", err)
	}
	// The trace is sized to the corpus the node actually serves, so
	// request IDs never 404.
	arrivals := workload.Generate(workload.Config{
		RatePerSec: o.rps,
		Duration:   o.duration,
		CorpusSize: st.Corpus,
		Burstiness: o.burst,
		Seed:       o.seed,
	})
	if len(arrivals) == 0 {
		return nil, errors.New("empty trace: check -rps/-duration/-corpus")
	}
	// A job is one call: a batch, or a single arrival as a batch of one.
	jobs := batchTrace(arrivals, o.batch)

	log.Printf("driving %d arrivals over %v at target %.0f rps with %d workers (batch %d) ...",
		len(arrivals), o.duration, o.rps, o.concurrency, o.batch)
	l := newLedger()
	d := &driver{
		cl:     cl,
		budget: time.Duration(o.deadlineMS * float64(time.Millisecond)),
		booted: node != nil,
		l:      l,
	}
	next := make(chan int, o.concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				arrs := jobs[i]
				// Open-loop pacing to the trace clock — a job is
				// dispatchable when its last arrival lands — with
				// closed-loop back-pressure from the bounded pool: a
				// saturated pool falls behind rather than piling up
				// unbounded work.
				if wait := arrs[len(arrs)-1].At - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				named := ""
				if o.tenants > 0 {
					named = fmt.Sprintf("tenant-%d", i%o.tenants)
				}
				if o.batch > 1 {
					d.issueBatch(ctx, arrs, named)
				} else {
					d.issue(ctx, arrs[0], named)
				}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)

	report(l, elapsed, o.batch)
	global, err := cl.Telemetry(ctx)
	if err != nil {
		return l, err
	}
	reportTelemetry(global)
	parts := make(map[string]*api.TenantTelemetry, len(l.tenants))
	for k := range l.tenants {
		if parts[k], err = cl.TelemetryForTenant(ctx, k); err != nil {
			return l, err
		}
	}
	if len(parts) > 0 {
		reportTenants(l, parts)
	}
	// The one read that has no endpoint: a booted node's coalescer
	// counters, for the ledger's no-waiter-lost line.
	if node != nil && node.Coalescer() != nil {
		cs := node.Coalescer().Stats()
		l.coalescer = &cs
		log.Printf("coalescer: %d bypassed, %d coalesced into %d windows (%d size-triggered), %d shed, %d left",
			cs.Bypassed, cs.Coalesced, cs.Windows, cs.SizeFlushes, cs.Shed, cs.Left)
	}
	if o.overload {
		if l.admission, err = cl.Admission(ctx); err != nil {
			log.Printf("admission status: %v", err)
		} else {
			reportAdmission(*l.admission)
		}
	}
	if o.drift {
		if st, err := cl.Drift(ctx); err != nil {
			log.Printf("drift status: %v", err)
		} else {
			reportDrift(*st)
		}
	}
	if o.trace {
		if tr, err := cl.TraceRecent(ctx, "", "", "", 256); err != nil {
			log.Printf("trace exemplars: %v", err)
		} else {
			reportTrace(tr.Spans)
		}
	}
	if o.assert {
		if err := l.verify(global, parts, o.chaos != ""); err != nil {
			return l, fmt.Errorf("assert: %w", err)
		}
		log.Printf("assert: accounting reconciles (per tier and per Tenant header, sent = graded + failed + shed; telemetry partitions agree)")
	}
	return l, nil
}

// batchTrace groups a time-ordered trace into per-consumer-class
// batches of up to n arrivals, in completion order (a batch completes
// when its last arrival lands; the trailing partial batch of each class
// flushes at trace end). Every batch carries one (tolerance, objective)
// annotation, matching the one-tier-per-batch wire contract.
func batchTrace(trace []workload.Arrival, n int) [][]workload.Arrival {
	pending := make(map[string][]workload.Arrival)
	var out [][]workload.Arrival
	for _, arr := range trace {
		key := dispatch.TierKey(string(arr.Objective), arr.Tolerance)
		p := append(pending[key], arr)
		if len(p) == n {
			out = append(out, p)
			pending[key] = nil
			continue
		}
		pending[key] = p
	}
	// Flush partials deterministically (sorted by class key).
	keys := make([]string, 0, len(pending))
	for k, p := range pending {
		if len(p) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, pending[k])
	}
	return out
}
