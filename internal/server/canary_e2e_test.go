package server

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/client"
	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/drift"
	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/state"
	"github.com/toltiers/toltiers/internal/tiers"
	"github.com/toltiers/toltiers/internal/vision"
)

// canaryFixture is the shared heal-loop harness of the canary e2e
// tests: a profiled corpus, generated tables, and replay backends.
type canaryFixture struct {
	corpus   *dataset.VisionCorpus
	matrix   *profile.Matrix
	reg      *tiers.Registry
	backends []dispatch.Backend
	ids      []int
	preRule  rulegen.Rule
}

func newCanaryFixture(t *testing.T) *canaryFixture {
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
	reg := tiers.NewRegistry(c.Service, g.Generate(tols, rulegen.MinimizeLatency))
	pre, err := reg.Resolve(0.05, rulegen.MinimizeLatency)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(c.Requests))
	for i, r := range c.Requests {
		ids[i] = r.ID
	}
	return &canaryFixture{
		corpus: c, matrix: m, reg: reg,
		backends: dispatch.NewReplayBackends(m),
		ids:      ids, preRule: pre,
	}
}

func (f *canaryFixture) driftConfig() drift.Config {
	return drift.Config{
		Enabled: true, AutoReprofile: true,
		Window: 32, WarmupWindows: 4,
		ErrDelta: 0.02, ErrLambda: 0.3,
		Cooldown:       250 * time.Millisecond,
		CanaryFraction: 2, CanaryMinSamples: 24,
		CanaryMaxDuration: 20 * time.Second,
	}
}

func (f *canaryFixture) reprofileReq() api.RuleGenRequest {
	return api.RuleGenRequest{
		Objectives: []string{string(rulegen.MinimizeLatency)},
		MinTrials:  5, MaxTrials: 24, ThresholdPoints: 4,
	}
}

// TestEndToEndCanaryRollback proves a bad heal cannot reach the
// incumbent: an accuracy collapse fires the detectors and the heal
// re-profiles, but a test seam rewrites the regenerated tables to pin
// every tier to a version whose answers are always wrong. The canary
// slice grades ~1.0 error against a healthy incumbent, the verdict
// controller rejects, and the incumbent registry — pointer and policy —
// is provably untouched.
func TestEndToEndCanaryRollback(t *testing.T) {
	ctx := context.Background()
	f := newCanaryFixture(t)

	// The trigger: the serving tier's primary starts answering wrong 80%
	// of the time after 600 invocations (same scripted regression the
	// self-healing e2e uses).
	degraded := f.preRule.Candidate.Policy.Primary
	f.backends[degraded] = dispatch.Chaos(f.backends[degraded], dispatch.Perturbation{
		Kind: dispatch.AccuracyDegrade, Shape: dispatch.Step,
		Start: 600, Magnitude: 0.8, Seed: 0xbad,
	})
	// The sabotage: a version the incumbent tier does not use, wrapped
	// to answer wrong always. The healed table will route everything
	// here, so the canary arm must lose decisively.
	vBad := -1
	for v := 0; v < f.matrix.NumVersions(); v++ {
		if v != degraded && v != f.preRule.Candidate.Policy.Secondary {
			vBad = v
			break
		}
	}
	if vBad < 0 {
		t.Fatal("no sabotage version available")
	}
	f.backends[vBad] = dispatch.Chaos(f.backends[vBad], dispatch.Perturbation{
		Kind: dispatch.AccuracyDegrade, Shape: dispatch.Step,
		Start: 0, Magnitude: 1.0, Seed: 0xbad2,
	})

	srv := NewWithConfig(f.reg, f.corpus.Requests, Config{
		Matrix:        f.matrix,
		Backends:      f.backends,
		Drift:         f.driftConfig(),
		DriftInterval: 5 * time.Millisecond,
		Reprofile:     f.reprofileReq(),
	})
	defer srv.Close()
	// The seam: every drift-healed table is rewritten to serve vBad
	// unescalated at every tolerance.
	srv.heal.tableHook = func(tables []rulegen.RuleTable) []rulegen.RuleTable {
		for ti := range tables {
			for ri := range tables[ti].Rules {
				tables[ti].Rules[ri].Candidate.Policy = ensemble.Policy{
					Kind: ensemble.Single, Primary: vBad,
				}
			}
		}
		return tables
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := client.New(ts.URL, nil)

	incumbentReg := srv.registry()

	// Drive traffic until the heal triggers, trials, and is rejected.
	deadline := time.Now().Add(60 * time.Second)
	var st *api.DriftStatus
	for {
		if _, err := cl.DispatchBatch(ctx, f.ids[:64], 0.05, rulegen.MinimizeLatency, 0); err != nil {
			t.Fatal(err)
		}
		var err error
		st, err = cl.Drift(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Heals) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no heal verdict before deadline; drift status %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	rec := st.Heals[0]
	if rec.Verdict != "rejected" || rec.Promoted {
		t.Fatalf("sabotaged heal was not rejected: %+v", rec)
	}
	if rec.Error == "" || rec.Trigger == "" {
		t.Fatalf("rejection record lost its provenance: %+v", rec)
	}
	if st.Reprofiles != 0 {
		t.Fatalf("rejected heal counted as a reprofile: %d", st.Reprofiles)
	}

	// The incumbent is untouched: same registry pointer, same policy.
	if srv.registry() != incumbentReg {
		t.Fatal("rejected heal swapped the registry")
	}
	rule, err := srv.registry().Resolve(0.05, rulegen.MinimizeLatency)
	if err != nil {
		t.Fatal(err)
	}
	if rule.Candidate.Policy != f.preRule.Candidate.Policy {
		t.Fatalf("incumbent policy changed across a rejected heal: %v -> %v",
			f.preRule.Candidate.Policy, rule.Candidate.Policy)
	}
	if srv.trainingMatrix() != f.matrix {
		t.Fatal("rejected heal promoted the re-profiled matrix")
	}

	// The job that generated the rejected tables reports drift
	// provenance and, crucially, no applied swap.
	job, err := cl.RulesStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !job.Drift || job.Applied {
		t.Fatalf("rejected drift job status %+v", job)
	}

	// Traffic keeps flowing on the incumbent after the rollback.
	if _, err := cl.DispatchBatch(ctx, f.ids[:64], 0.05, rulegen.MinimizeLatency, 0); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndRestartRecovery proves crash-safe persistence: a node
// heals to promotion with a state dir configured, is killed without any
// graceful shutdown (the promotion-time snapshot is the only durable
// artifact), and a fresh node booted from that snapshot serves the
// healed table immediately — zero re-profiling, heal history and
// baselines intact.
func TestEndToEndRestartRecovery(t *testing.T) {
	ctx := context.Background()
	f := newCanaryFixture(t)
	stateDir := t.TempDir()

	degraded := f.preRule.Candidate.Policy.Primary
	f.backends[degraded] = dispatch.Chaos(f.backends[degraded], dispatch.Perturbation{
		Kind: dispatch.AccuracyDegrade, Shape: dispatch.Step,
		Start: 600, Magnitude: 0.8, Seed: 0xe2e,
	})

	srv := NewWithConfig(f.reg, f.corpus.Requests, Config{
		Matrix:        f.matrix,
		Backends:      f.backends,
		Drift:         f.driftConfig(),
		DriftInterval: 5 * time.Millisecond,
		Reprofile:     f.reprofileReq(),
		StateDir:      stateDir,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := client.New(ts.URL, nil)

	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := cl.DispatchBatch(ctx, f.ids[:64], 0.05, rulegen.MinimizeLatency, 0); err != nil {
			t.Fatal(err)
		}
		st, err := cl.Drift(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Reprofiles >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no self-heal before deadline; drift status %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	healedRule, err := srv.registry().Resolve(0.05, rulegen.MinimizeLatency)
	if err != nil {
		t.Fatal(err)
	}
	healedMatrix := srv.trainingMatrix()

	// kill -9: no Close, no final snapshot. The promotion already wrote
	// one atomically; that file is all the next boot gets.
	snap, err := state.Load(StatePath(stateDir))
	if err != nil {
		t.Fatalf("promotion did not persist a snapshot: %v", err)
	}
	if err := snap.CompatibleWith(service.VisionDomain, f.matrix.VersionNames, f.matrix.RequestIDs); err != nil {
		t.Fatal(err)
	}
	if snap.Reprofiles < 1 || len(snap.Heals) == 0 || !snap.Heals[len(snap.Heals)-1].Promoted {
		t.Fatalf("snapshot missing the promoted heal: reprofiles %d, heals %+v", snap.Reprofiles, snap.Heals)
	}

	// Boot a fresh node from the snapshot: registry from the persisted
	// tables, matrix from the persisted re-profile, monitor seeded with
	// the persisted baselines and history. No profiling, no rule job.
	reg2 := tiers.NewRegistry(f.corpus.Service, snap.Tables...)
	srv2 := NewWithConfig(reg2, f.corpus.Requests, Config{
		Matrix:        snap.Matrix,
		Backends:      dispatch.NewReplayBackends(snap.Matrix),
		Drift:         f.driftConfig(),
		DriftInterval: 5 * time.Millisecond,
		Reprofile:     f.reprofileReq(),
		StateDir:      stateDir,
		Restore:       snap,
	})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	cl2 := client.New(ts2.URL, nil)

	rule2, err := srv2.registry().Resolve(0.05, rulegen.MinimizeLatency)
	if err != nil {
		t.Fatal(err)
	}
	if rule2.Candidate.Policy != healedRule.Candidate.Policy {
		t.Fatalf("restarted node lost the healed policy: %v, want %v",
			rule2.Candidate.Policy, healedRule.Candidate.Policy)
	}
	if got := srv2.trainingMatrix().NumRequests(); got != healedMatrix.NumRequests() {
		t.Fatalf("restored matrix has %d requests, want %d", got, healedMatrix.NumRequests())
	}

	// Zero re-profiling: the restored node reports the persisted heal
	// count and has never started a rule job of its own.
	st2, err := cl2.Drift(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Reprofiles != snap.Reprofiles {
		t.Fatalf("restored reprofile count %d, want %d", st2.Reprofiles, snap.Reprofiles)
	}
	if len(st2.Heals) != len(snap.Heals) || st2.Heals[len(st2.Heals)-1].Verdict != "promoted" {
		t.Fatalf("restored heal history: %+v", st2.Heals)
	}
	job2, err := cl2.RulesStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if job2.State != "idle" {
		t.Fatalf("restarted node ran a rule job: %+v", job2)
	}

	// And it serves: the healed table answers traffic immediately.
	if _, err := cl2.DispatchBatch(ctx, f.ids[:128], 0.05, rulegen.MinimizeLatency, 0); err != nil {
		t.Fatal(err)
	}
	st2, err = cl2.Drift(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State == "disabled" {
		t.Fatal("restored monitor disabled")
	}
}
