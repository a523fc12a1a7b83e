// Benchmarks regenerating the paper's tables and figures (one bench per
// experiment, reporting the key quantity of the artifact via
// b.ReportMetric), plus micro-benchmarks of the substrates. Run:
//
//	go test -bench=. -benchmem
//
// The E-benches run the experiments at a reduced scale so `go test
// -bench` stays interactive; `cmd/ttbench` regenerates them at
// experiments.DefaultScale.
package toltiers_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/admit"
	"github.com/toltiers/toltiers/internal/asr"
	"github.com/toltiers/toltiers/internal/coalesce"
	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/drift"
	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/experiments"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/speech"
	"github.com/toltiers/toltiers/internal/tiers"
	"github.com/toltiers/toltiers/internal/trace"
	"github.com/toltiers/toltiers/internal/vision"
)

// ---- shared fixtures ----------------------------------------------------

var benchEnvOnce sync.Once
var benchEnv *experiments.Env

func getBenchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		s := experiments.QuickScale()
		s.SpeechN = 600
		s.VisionN = 1500
		s.KFolds = 3
		benchEnv = experiments.NewEnv(s)
	})
	return benchEnv
}

var speechFixtureOnce sync.Once
var speechLM *speech.LanguageModel
var speechAM *speech.AcousticModel
var speechCorpus []*speech.Utterance

func getSpeechFixture(b *testing.B) (*speech.LanguageModel, *speech.AcousticModel, []*speech.Utterance) {
	b.Helper()
	speechFixtureOnce.Do(func() {
		speechLM = speech.NewLanguageModel(speech.DefaultLMConfig())
		speechAM = speech.NewAcousticModel(speechLM.VocabSize(), speech.DefaultAcousticConfig())
		syn := speech.NewSynthesizer(speechLM, speechAM, 1)
		speechCorpus = syn.Corpus(0, 256)
	})
	return speechLM, speechAM, speechCorpus
}

// ---- experiment benches (one per table/figure) ---------------------------

// BenchmarkE1ASRVersions regenerates Table I and reports the measured
// v7/v1 latency span (paper: ~2.6x).
func BenchmarkE1ASRVersions(b *testing.B) {
	env := getBenchEnv(b)
	var span float64
	for i := 0; i < b.N; i++ {
		_, m := env.Speech()
		sums := m.Summaries(nil)
		span = float64(sums[len(sums)-1].MeanLatency) / float64(sums[0].MeanLatency)
	}
	b.ReportMetric(span, "latency-span-x")
}

// BenchmarkE2ICVersions regenerates Table II and reports the error
// reduction from the fastest to the most accurate model (paper: >65%).
func BenchmarkE2ICVersions(b *testing.B) {
	env := getBenchEnv(b)
	var reduction float64
	for i := 0; i < b.N; i++ {
		_, m := env.VisionCPU()
		sums := m.Summaries(nil)
		reduction = 1 - sums[len(sums)-1].MeanErr/sums[0].MeanErr
	}
	b.ReportMetric(100*reduction, "err-reduction-%")
}

// BenchmarkE3Pareto regenerates the Fig.-1 frontier series.
func BenchmarkE3Pareto(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if tables := env.E3(); len(tables) != 3 {
			b.Fatal("unexpected table count")
		}
	}
}

// BenchmarkE4Categories regenerates the Fig.-2 category breakdown and
// reports the unchanged share of the ASR service (paper: >74%).
func BenchmarkE4Categories(b *testing.B) {
	env := getBenchEnv(b)
	var unchanged float64
	for i := 0; i < b.N; i++ {
		_, m := env.Speech()
		bd, _ := m.Categorize()
		unchanged = bd.Fraction(profile.Unchanged)
	}
	b.ReportMetric(100*unchanged, "unchanged-%")
}

// BenchmarkE5CategoryError regenerates the Fig.-3 series.
func BenchmarkE5CategoryError(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		_, m := env.Speech()
		ce := m.CategoryErrors()
		if len(ce.All) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkE6Policies regenerates the Fig.-5 policy anatomy.
func BenchmarkE6Policies(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if tables := env.E6(); len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// BenchmarkE7LatencyTiers regenerates the Fig.-6 response-time panel and
// reports the held-out latency reduction of the ASR 10% tier.
func BenchmarkE7LatencyTiers(b *testing.B) {
	env := getBenchEnv(b)
	var reduction float64
	for i := 0; i < b.N; i++ {
		tables := env.E7()
		last := tables[0].Rows[len(tables[0].Rows)-1]
		reduction = parsePct(b, last[2])
	}
	b.ReportMetric(reduction, "asr-10pct-latency-cut-%")
}

// BenchmarkE8CostTiers regenerates the Fig.-6 cost panel and reports the
// held-out cost reduction of the ASR 10% tier.
func BenchmarkE8CostTiers(b *testing.B) {
	env := getBenchEnv(b)
	var reduction float64
	for i := 0; i < b.N; i++ {
		tables := env.E8()
		last := tables[0].Rows[len(tables[0].Rows)-1]
		reduction = parsePct(b, last[3])
	}
	b.ReportMetric(reduction, "asr-10pct-cost-cut-%")
}

// BenchmarkE9Guarantees runs the cross-validated guarantee audit and
// reports total violations (paper: 0).
func BenchmarkE9Guarantees(b *testing.B) {
	env := getBenchEnv(b)
	var violations float64
	for i := 0; i < b.N; i++ {
		tables := env.E9()
		violations = 0
		for _, row := range tables[0].Rows {
			violations += parseFloat(b, row[4])
		}
	}
	b.ReportMetric(violations, "violations")
}

// BenchmarkE10Headline regenerates the headline summary.
func BenchmarkE10Headline(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if tables := env.E10(); len(tables[0].Rows) != 9 {
			b.Fatal("unexpected headline rows")
		}
	}
}

// ---- ablation benches -----------------------------------------------------

// BenchmarkA1ConfidenceGate runs the confidence-gate ablation.
func BenchmarkA1ConfidenceGate(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if tables := env.A1(); len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// BenchmarkA4Billing runs the FO-vs-ET billing ablation.
func BenchmarkA4Billing(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if tables := env.A4(); len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// ---- substrate micro-benchmarks -------------------------------------------

// BenchmarkASRDecode measures real decode throughput per version preset.
func BenchmarkASRDecode(b *testing.B) {
	lm, am, corpus := getSpeechFixture(b)
	for _, cfg := range asr.Versions() {
		b.Run(cfg.Name, func(b *testing.B) {
			d := asr.NewDecoder(lm, am, cfg)
			var work int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := d.Decode(corpus[i%len(corpus)])
				work += res.WorkUnits
			}
			b.ReportMetric(float64(work)/float64(b.N), "work-units/op")
		})
	}
}

// BenchmarkVisionInfer measures prototype-space inference throughput.
func BenchmarkVisionInfer(b *testing.B) {
	w := vision.NewWorld(vision.DefaultWorldConfig())
	imgs := w.Corpus(0, 512)
	for _, name := range []string{"squeezenet", "resnet50", "sota"} {
		m, _ := vision.ZooModel(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := w.Infer(m, imgs[i%len(imgs)])
				if p.Class < 0 {
					b.Fatal("bad prediction")
				}
			}
		})
	}
}

// BenchmarkProfileBuild measures end-to-end corpus profiling.
func BenchmarkProfileBuild(b *testing.B) {
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 500, Device: vision.GPU})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := profile.Build(c.Service, c.Requests)
		if m.NumRequests() != 500 {
			b.Fatal("bad matrix")
		}
	}
}

// BenchmarkPolicySimulate measures row-oriented policy simulation (the
// pre-columnar inner loop of the Fig.-7 bootstrap, kept as the
// reference path).
func BenchmarkPolicySimulate(b *testing.B) {
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 200, Device: vision.GPU})
	m := profile.Build(c.Service, c.Requests)
	p := ensemble.Policy{Kind: ensemble.Concurrent, Primary: 0, Secondary: m.NumVersions() - 1, Threshold: 0.5}
	rows := make([][]profile.Cell, m.NumRequests())
	for i := range rows {
		rows[i] = m.Row(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := p.Simulate(rows[i%len(rows)])
		if o.Latency <= 0 {
			b.Fatal("bad outcome")
		}
	}
}

// BenchmarkEvaluatorTrial measures the columnar bootstrap kernel: one
// fused trial sum over every training row (the Evaluator replacement for
// per-row Policy.Simulate). The reported ns/row compares directly with
// BenchmarkPolicySimulate's ns/op.
func BenchmarkEvaluatorTrial(b *testing.B) {
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 200, Device: vision.GPU})
	m := profile.Build(c.Service, c.Requests)
	p := ensemble.Policy{Kind: ensemble.Concurrent, Primary: 0, Secondary: m.NumVersions() - 1, Threshold: 0.5}
	ev := ensemble.NewEvaluator(m, nil)
	ev.SetBaseline(m.NumVersions() - 1)
	ev.SetPolicy(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ev.Trial(nil)
		if t.LatNsSum <= 0 {
			b.Fatal("bad trial")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NumRequests()), "ns/row")
}

// BenchmarkEvaluatorSetPolicy measures fusing a policy into the
// evaluator's outcome columns (paid once per candidate, amortized over
// every bootstrap trial).
func BenchmarkEvaluatorSetPolicy(b *testing.B) {
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 200, Device: vision.GPU})
	m := profile.Build(c.Service, c.Requests)
	ev := ensemble.NewEvaluator(m, nil)
	kinds := []ensemble.Kind{ensemble.Failover, ensemble.Concurrent}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.SetPolicy(ensemble.Policy{Kind: kinds[i%2], Primary: 0, Secondary: m.NumVersions() - 1, Threshold: 0.5})
	}
}

// BenchmarkRuleGenerator measures the full Fig.-7 bootstrap over a small
// training set.
func BenchmarkRuleGenerator(b *testing.B) {
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 400, Device: vision.GPU})
	m := profile.Build(c.Service, c.Requests)
	cfg := rulegen.DefaultConfig()
	cfg.MinTrials = 5
	cfg.MaxTrials = 20
	cfg.ThresholdPoints = 4
	cfg.IncludePickBest = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := rulegen.New(m, nil, cfg)
		if len(g.Candidates()) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkColumnGather measures the per-worker column gather the
// shared ColumnSet amortizes: "fresh" is what every bootstrap worker
// used to pay per generator run, "shared" is an evaluator over an
// already-gathered set.
func BenchmarkColumnGather(b *testing.B) {
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 400, Device: vision.GPU})
	m := profile.Build(c.Service, c.Requests)
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ev := ensemble.NewEvaluator(m, nil); ev.NumRows() != 400 {
				b.Fatal("bad evaluator")
			}
		}
	})
	cols := ensemble.GatherColumns(m, nil)
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ev := ensemble.NewEvaluatorFromColumns(cols); ev.NumRows() != 400 {
				b.Fatal("bad evaluator")
			}
		}
	})
}

// BenchmarkDispatch measures the online tier-execution runtime over
// replay backends: resolve-free dispatch of one tier, serially, under
// parallel load, and batched. The acceptance floor for the runtime is
// 50k replay dispatches/sec (20 µs/op) on a CI-class machine; the
// serial path runs orders of magnitude inside that.
//
// The parallel variants drive RunParallel at GOMAXPROCS >= 4 (forced on
// smaller machines, where the workers timeshare and the numbers bound
// contention overhead rather than demonstrate speedup): /parallel uses
// the dispatcher's default telemetry sharding, /parallel-sharded pins
// an explicit per-core stripe count on a fresh dispatcher. /batch
// pushes the same b.N requests through DoBatch in 64-item batches;
// its ns/op is directly comparable to /serial's per-request cost.
func BenchmarkDispatch(b *testing.B) {
	corpus := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 400, Device: vision.GPU})
	matrix := profile.Build(corpus.Service, corpus.Requests)
	gcfg := rulegen.DefaultConfig()
	gcfg.MinTrials = 5
	gcfg.MaxTrials = 20
	gcfg.ThresholdPoints = 4
	gcfg.IncludePickBest = false
	gen := rulegen.New(matrix, nil, gcfg)
	table := gen.Generate(rulegen.ToleranceGrid(0.10, 0.01), rulegen.MinimizeLatency)
	rule, ok := table.Lookup(0.05)
	if !ok {
		b.Fatal("no 5% tier")
	}
	d := dispatch.New(dispatch.NewReplayBackends(matrix), dispatch.Options{})
	reqs := dispatch.ReplayRequests(matrix)
	ticket := dispatch.Ticket{
		Tier:   dispatch.TierKey(string(rulegen.MinimizeLatency), rule.Tolerance),
		Policy: rule.Candidate.Policy,
	}
	ctx := context.Background()

	runParallel := func(b *testing.B, d *dispatch.Dispatcher) {
		b.Helper()
		b.ReportAllocs()
		if procs := runtime.GOMAXPROCS(0); procs < 4 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		}
		var idx int64
		var failures int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			// b.Fatal must not run on a RunParallel worker goroutine;
			// record failures and report after the pool drains.
			for pb.Next() {
				i := int(atomic.AddInt64(&idx, 1))
				if _, err := d.Do(ctx, reqs[i%len(reqs)], ticket); err != nil {
					atomic.AddInt64(&failures, 1)
					return
				}
			}
		})
		if failures > 0 {
			b.Fatalf("%d dispatch failures", failures)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "dispatches/sec")
	}

	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Do(ctx, reqs[i%len(reqs)], ticket); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "dispatches/sec")
	})
	b.Run("serial-traced", func(b *testing.B) {
		// The recorder-on twin of /serial: same tier, same requests,
		// fresh dispatcher with the flight recorder attached at its
		// defaults. scripts/bench_check.sh gates this within 35% of
		// /serial in the same sweep; zero allocs/op is the recording
		// contract.
		b.ReportAllocs()
		td := dispatch.New(dispatch.NewReplayBackends(matrix),
			dispatch.Options{Recorder: trace.New(trace.Options{})})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := td.Do(ctx, reqs[i%len(reqs)], ticket); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "dispatches/sec")
	})
	b.Run("parallel", func(b *testing.B) {
		runParallel(b, d)
	})
	b.Run("parallel-sharded", func(b *testing.B) {
		procs := runtime.GOMAXPROCS(0)
		if procs < 4 {
			procs = 4
		}
		sharded := dispatch.New(dispatch.NewReplayBackends(matrix),
			dispatch.Options{TelemetryShards: 2 * procs})
		runParallel(b, sharded)
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		const batch = 64
		bd := dispatch.New(dispatch.NewReplayBackends(matrix), dispatch.Options{})
		var outs []dispatch.Outcome
		var errs []error
		var err error
		b.ResetTimer()
		for done := 0; done < b.N; done += batch {
			n := batch
			if b.N-done < n {
				n = b.N - done
			}
			if n > len(reqs) {
				n = len(reqs)
			}
			lo := done % (len(reqs) - n + 1)
			outs, errs, err = bd.DoBatch(ctx, reqs[lo:lo+n], ticket, outs, errs)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range errs {
				if e != nil {
					b.Fatal(e)
				}
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "dispatches/sec")
	})
}

// BenchmarkCoalescedDispatch measures what cross-request coalescing
// buys the POST /dispatch server path under contention, and what it
// costs without: callers drive one tier through a dispatcher with a
// single in-flight lease per backend (the saturated-accelerator regime)
// behind the admission layer with brownout on. serial-cN is the
// per-request path — every caller admits, takes a semaphore lease per
// policy leg, dispatches, and releases on its own; coalesced-cN puts the
// same callers through a MaxBatch-64 coalescer whose gate admits
// (AdmitBatch, n tokens + one slot) and whose flush dispatches (DoBatch,
// one lease per leg) once per window. At c128 the callers are a crowd:
// windows fill and flush by size, and batching must keep paying. At c8
// they are not: no window can fill, so the coalescer must be a
// pass-through, not a millisecond timer wait per request. embedded-c64
// is the embedded node's shape (see the arm). scripts/bench_check.sh
// gates each coalesced arm's ns/op over its serial twin's, and
// embedded-c64's over serial-c128's (same sweep, so host speed
// cancels). GOMAXPROCS is floored at 8 (matching
// BenchmarkDispatch/parallel) so the lease contention the coalescer
// amortizes actually materializes on single-core CI boxes.
func BenchmarkCoalescedDispatch(b *testing.B) {
	corpus := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 400, Device: vision.GPU})
	matrix := profile.Build(corpus.Service, corpus.Requests)
	gcfg := rulegen.DefaultConfig()
	gcfg.MinTrials = 5
	gcfg.MaxTrials = 20
	gcfg.ThresholdPoints = 4
	gcfg.IncludePickBest = false
	gen := rulegen.New(matrix, nil, gcfg)
	table := gen.Generate(rulegen.ToleranceGrid(0.10, 0.01), rulegen.MinimizeLatency)
	rule, ok := table.Lookup(0.05)
	if !ok {
		b.Fatal("no 5% tier")
	}
	reqs := dispatch.ReplayRequests(matrix)
	ticket := dispatch.Ticket{
		Tier:   dispatch.TierKey(string(rulegen.MinimizeLatency), rule.Tolerance),
		Tenant: "bench",
		Policy: rule.Candidate.Policy,
	}
	ctx := context.Background()

	newRuntime := func() (*dispatch.Dispatcher, *admit.Controller) {
		d := dispatch.New(dispatch.NewReplayBackends(matrix),
			dispatch.Options{MaxConcurrentPerBackend: 1})
		ctrl := admit.New(admit.Config{
			Enabled:     true,
			MaxInFlight: 1 << 20,
			DefaultRate: admit.Rate{PerSec: 1e9, Burst: 1e9},
			Brownout:    true,
		})
		return d, ctrl
	}

	// gateOf admits every flush through ctrl, n tokens and one slot.
	gateOf := func(ctrl *admit.Controller) func(int, dispatch.Ticket) (coalesce.Grant, error) {
		return func(n int, t dispatch.Ticket) (coalesce.Grant, error) {
			dec := ctrl.AdmitBatch(time.Now(), t.Tenant, rule.Tolerance, 0, math.NaN(), n)
			if dec.Verdict != admit.Accept {
				return coalesce.Grant{}, fmt.Errorf("shed: %v", dec.Verdict)
			}
			return coalesce.Grant{Ticket: t, Release: func() { ctrl.Done(dec) }}, nil
		}
	}
	reportWindow := func(b *testing.B, coal *coalesce.Coalescer) {
		if st := coal.Stats(); st.Windows > 0 {
			b.ReportMetric(float64(st.Coalesced)/float64(st.Windows), "reqs/window")
		}
	}

	// drive splits b.N ops across a pool of callers and reports throughput.
	drive := func(b *testing.B, callers int, do func(i int) error) {
		b.Helper()
		if procs := runtime.GOMAXPROCS(0); procs < 8 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
		}
		var idx, failures int64
		var wg sync.WaitGroup
		b.ResetTimer()
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&idx, 1))
					if i > b.N {
						return
					}
					if err := do(i); err != nil {
						atomic.AddInt64(&failures, 1)
						return
					}
				}
			}()
		}
		wg.Wait()
		if failures > 0 {
			b.Fatalf("%d dispatch failures", failures)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "dispatches/sec")
	}

	for _, callers := range []int{128, 8} {
		b.Run(fmt.Sprintf("serial-c%d", callers), func(b *testing.B) {
			d, ctrl := newRuntime()
			drive(b, callers, func(i int) error {
				dec := ctrl.Admit(time.Now(), ticket.Tenant, rule.Tolerance, 0, math.NaN())
				if dec.Verdict != admit.Accept {
					return fmt.Errorf("shed: %v", dec.Verdict)
				}
				defer ctrl.Done(dec)
				_, err := d.Do(ctx, reqs[i%len(reqs)], ticket)
				return err
			})
		})
		b.Run(fmt.Sprintf("coalesced-c%d", callers), func(b *testing.B) {
			d, ctrl := newRuntime()
			coal := coalesce.New(d, coalesce.Options{MaxBatch: 64, Gate: gateOf(ctrl)})
			drive(b, callers, func(i int) error {
				_, _, err := coal.Do(ctx, reqs[i%len(reqs)], ticket)
				return err
			})
			reportWindow(b, coal)
		})
	}
	// embedded-c64 is the embedded_contended node's shape: 64 callers
	// alternating between two tiers whose policies share both legs,
	// through a MaxBatch-8 coalescer. Windows are 8x smaller than
	// coalesced-c128's and every one leases the same two backends, so
	// nearly every flush hands its lease to a parked one: this arm
	// measures that hand-off, and bench_check.sh gates it against
	// serial-c128.
	b.Run("embedded-c64", func(b *testing.B) {
		d, ctrl := newRuntime()
		nv := matrix.NumVersions()
		shared := []dispatch.Ticket{
			{Tier: "response-time/0", Tenant: "bench", Policy: ensemble.Policy{
				Kind: ensemble.Concurrent, Primary: 0, Secondary: nv - 1, Threshold: 0.772}},
			{Tier: "cost/0.1", Tenant: "bench", Policy: ensemble.Policy{
				Kind: ensemble.Failover, Primary: 0, Secondary: nv - 1, Threshold: 0.504, PickBest: true}},
		}
		coal := coalesce.New(d, coalesce.Options{MaxBatch: 8, Gate: gateOf(ctrl)})
		drive(b, 64, func(i int) error {
			_, _, err := coal.Do(ctx, reqs[i%len(reqs)], shared[i%len(shared)])
			return err
		})
		reportWindow(b, coal)
	})
}

// BenchmarkDriftObserve measures the drift monitor's per-outcome
// observe path — the work every dispatch pays once a monitor hangs on
// DispatchOptions.Observer. It must stay allocation-free (the window
// closes every 64th call run the full detector arithmetic and are
// included in the mean), or attaching drift detection would cost the
// runtime its zero-allocation steady state; the alloc-regression test
// in internal/drift pins the same property, and scripts/bench.sh records
// the ns/op.
func BenchmarkDriftObserve(b *testing.B) {
	mon := drift.NewMonitor(drift.Config{Enabled: true, Window: 64},
		[]string{"replay:v0"}, nil)
	o := dispatch.Outcome{Err: 0.05, Latency: 20 * time.Millisecond}
	tier := dispatch.TierKey(string(rulegen.MinimizeLatency), 0.05)
	for i := 0; i < 128; i++ {
		mon.ObserveOutcome(tier, &o)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.ObserveOutcome(tier, &o)
	}
}

// BenchmarkCanaryDispatch measures the canary-split dispatch path: the
// same replay dispatch with a drift monitor attached, /off with no
// trial live (every ticket takes the regular observer path), /split
// with a live canary trial and tickets alternating between the canary
// and incumbent arms — the exact traffic shape of a stride-2 canary
// slice during a heal. The split path must stay within 20% of /off in
// the same sweep; scripts/bench_check.sh gates the pair.
func BenchmarkCanaryDispatch(b *testing.B) {
	corpus := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 400, Device: vision.GPU})
	matrix := profile.Build(corpus.Service, corpus.Requests)
	gcfg := rulegen.DefaultConfig()
	gcfg.MinTrials = 5
	gcfg.MaxTrials = 20
	gcfg.ThresholdPoints = 4
	gcfg.IncludePickBest = false
	gen := rulegen.New(matrix, nil, gcfg)
	table := gen.Generate(rulegen.ToleranceGrid(0.10, 0.01), rulegen.MinimizeLatency)
	rule, ok := table.Lookup(0.05)
	if !ok {
		b.Fatal("no 5% tier")
	}
	reqs := dispatch.ReplayRequests(matrix)
	ctx := context.Background()
	names := make([]string, matrix.NumVersions())
	for i := range names {
		names[i] = matrix.VersionNames[i]
	}

	run := func(b *testing.B, trial bool) {
		b.Helper()
		mon := drift.NewMonitor(drift.Config{Enabled: true, Window: 64}, names, nil)
		if trial {
			mon.StartCanaryTrial(time.Now())
		}
		d := dispatch.New(dispatch.NewReplayBackends(matrix),
			dispatch.Options{Observer: mon})
		ticket := dispatch.Ticket{
			Tier:   dispatch.TierKey(string(rulegen.MinimizeLatency), rule.Tolerance),
			Policy: rule.Candidate.Policy,
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ticket.Canary = trial && i&1 == 0
			if _, err := d.Do(ctx, reqs[i%len(reqs)], ticket); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("split", func(b *testing.B) { run(b, true) })
}

// BenchmarkTraceObserve measures the flight recorder's Observe in
// isolation — dispatch counter, tail-threshold feed, head sampler, and
// (on kept spans) the ring commit. This is the overhead recording adds
// to every dispatch once a recorder hangs on DispatchOptions.Recorder;
// it must stay allocation-free (the alloc-regression test in
// internal/trace pins the same property) and scripts/bench.sh records
// the ns/op.
func BenchmarkTraceObserve(b *testing.B) {
	rec := trace.New(trace.Options{})
	ctx := context.Background()
	var s trace.Span
	var c trace.Cache
	// Stationary latency jitter (a cheap xorshift), so tail-exemplar
	// keeps stay at their steady-state rate instead of a ramp turning
	// every observation into a "slow" commit.
	x := uint64(0x9e3779b97f4a7c15)
	jitter := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return 1_000_000 + int64(x&1023)
	}
	// Warm the tier's tail window so the steady state includes a live
	// p99 threshold.
	for i := 0; i < 256; i++ {
		s.Reset("bench/0.05", "tenant", trace.AdmitAccepted)
		s.LatencyNs = jitter()
		rec.Observe(ctx, &s, &c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset("bench/0.05", "tenant", trace.AdmitAccepted)
		s.LatencyNs = jitter()
		l := s.Leg()
		l.Backend = "replay:v0"
		l.ServiceNs = s.LatencyNs
		rec.Observe(ctx, &s, &c)
	}
}

// BenchmarkRegistryHandle measures the live annotated-request path
// through the public API.
func BenchmarkRegistryHandle(b *testing.B) {
	corpus := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 400, Device: vision.GPU})
	matrix := profile.Build(corpus.Service, corpus.Requests)
	gcfg := rulegen.DefaultConfig()
	gcfg.MinTrials = 5
	gcfg.MaxTrials = 20
	gcfg.ThresholdPoints = 4
	gcfg.IncludePickBest = false
	gen := rulegen.New(matrix, nil, gcfg)
	reg := tiers.NewRegistry(corpus.Service,
		gen.Generate(rulegen.ToleranceGrid(0.10, 0.01), rulegen.MinimizeLatency))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, err := reg.Handle(corpus.Requests[i%len(corpus.Requests)], 0.05, rulegen.MinimizeLatency)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmit measures the admission layer's accept path — the toll
// every request pays before reaching the dispatcher once a server arms
// ServerConfig.Admission. It must stay allocation-free and well under a
// microsecond (the alloc-regression test in internal/admit pins the
// zero-allocation property; scripts/bench.sh records the ns/op), or
// the QoS layer would eat the contention-free fast path it guards.
func BenchmarkAdmit(b *testing.B) {
	ctrl := admit.New(admit.Config{
		Enabled:     true,
		MaxInFlight: 1 << 20,
		DefaultRate: admit.Rate{PerSec: 1e9, Burst: 1e9},
		Brownout:    true,
	})
	// Warm: materialize the tenant bucket so the steady state is the
	// read-locked lookup, not the first-touch creation.
	for i := 0; i < 64; i++ {
		ctrl.Done(ctrl.Admit(time.Now(), "tenant-a", 0.05, 0, math.NaN()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := ctrl.Admit(time.Now(), "tenant-a", 0.05, 0, math.NaN())
		if dec.Verdict != admit.Accept {
			b.Fatalf("shed at iteration %d: %v", i, dec.Verdict)
		}
		ctrl.Done(dec)
	}
}

// ---- helpers ---------------------------------------------------------------

func parsePct(b *testing.B, s string) float64 {
	b.Helper()
	var v float64
	if _, err := sscanPct(s, &v); err != nil {
		b.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

func parseFloat(b *testing.B, s string) float64 {
	b.Helper()
	var v float64
	if _, err := sscanFloat(s, &v); err != nil {
		b.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

var _ = time.Second
