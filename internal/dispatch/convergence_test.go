package dispatch

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/stats"
	"github.com/toltiers/toltiers/internal/xrand"
)

// TestReplayConvergence is the seeded convergence proof of the dispatch
// runtime: dispatching N sampled requests through ReplayBackends must
// reproduce the offline tier predictions from the same profile matrix.
// Two levels are pinned per audited tier:
//
//  1. Exact: the dispatched sample's mean error/latency equals
//     ensemble.Evaluate over the same drawn rows (the runtime and the
//     simulator are the same arithmetic).
//  2. Statistical: the online telemetry means land inside the Fig.-7
//     bootstrap confidence interval of the tier's candidate — the
//     interval the rule generator derived its worst cases from.
func TestReplayConvergence(t *testing.T) {
	m := visionMatrix(t)
	cfg := rulegen.DefaultConfig()
	cfg.MinTrials = 8
	cfg.MaxTrials = 64
	cfg.ThresholdPoints = 5
	cfg.IncludePickBest = false
	gen := rulegen.New(m, nil, cfg)
	table := gen.Generate([]float64{0, 0.02, 0.05, 0.10}, rulegen.MinimizeLatency)

	// The candidates' canonical order recovers each rule's candidate
	// index, whose seed regenerates the exact bootstrap streams the
	// generator saw.
	indexOf := make(map[ensemble.Policy]int, len(gen.Candidates()))
	for i, c := range gen.Candidates() {
		indexOf[c.Policy] = i
	}

	d := New(NewReplayBackends(m), Options{DisableHedging: true})
	reqs := ReplayRequests(m)
	baseline := table.Best

	const draws = 4000
	rng := xrand.New(0xd15a7c4)
	subset := make([]int, draws)
	ctx := context.Background()

	for _, rule := range table.Rules {
		pol := rule.Candidate.Policy
		tier := TierKey(string(table.Objective), rule.Tolerance)
		tk := Ticket{Tier: tier, Policy: pol}
		rng.FillIntn(subset, m.NumRequests())

		var errSum, invSum, baseErrSum float64
		var latSum time.Duration
		for _, row := range subset {
			o, err := d.Do(ctx, reqs[row], tk)
			if err != nil {
				t.Fatalf("tier %s row %d: %v", tier, row, err)
			}
			errSum += o.Err
			latSum += o.Latency
			invSum += o.InvCost
			baseErrSum += m.Err[m.Index(row, baseline)]
		}

		// Level 1: the dispatched sample is the simulated sample.
		want := ensemble.Evaluate(m, subset, pol)
		n := float64(draws)
		if math.Abs(errSum/n-want.MeanErr) > 1e-12 {
			t.Fatalf("tier %s: dispatched mean err %v != simulated %v", tier, errSum/n, want.MeanErr)
		}
		if got := latSum / time.Duration(draws); got != want.MeanLatency {
			t.Fatalf("tier %s: dispatched mean latency %v != simulated %v", tier, got, want.MeanLatency)
		}
		if math.Abs(invSum/n-want.MeanInvCost) > 1e-12 {
			t.Fatalf("tier %s: dispatched mean cost %v != simulated %v", tier, invSum/n, want.MeanInvCost)
		}

		// Level 2: the online means land inside the candidate's
		// bootstrap CI. Regenerate the candidate's trial streams from
		// its index-derived seed; the trial means' spread bounds where
		// any fair sample of the matrix can land.
		idx, ok := indexOf[pol]
		if !ok {
			t.Fatalf("tier %s: policy %v not among the candidates", tier, pol)
		}
		ev := ensemble.NewEvaluator(m, nil)
		ev.SetBaseline(gen.Best())
		cs := rulegen.BootstrapCandidate(ev, pol, idx, cfg)
		if cand := cs.Candidate(pol); cand != rule.Candidate {
			t.Fatalf("tier %s: regenerated candidate diverges from the table's", tier)
		}

		var tel api.TierTelemetry
		for _, row := range d.Snapshot().Tiers {
			if row.Tier == tier {
				tel = row
			}
		}
		if tel.Graded != int64(draws) {
			t.Fatalf("tier %s: telemetry graded %d of %d", tier, tel.Graded, draws)
		}
		telDeg := ensemble.ErrDegradation(tel.MeanErr, baseErrSum/n)
		assertWithinCI(t, tier+" err degradation", telDeg, cs.Streams[0], cs.Trials)
		assertWithinCI(t, tier+" latency", tel.MeanLatencyMS*1e6, cs.Streams[1], cs.Trials)
	}
}

// assertWithinCI checks that an online mean lies inside the bootstrap
// trial-mean distribution: within mean ± z*stddev of the trials (z for
// 99.99% two-sided) and never outside the observed extremes by more
// than the same margin. The dispatched sample is much larger than one
// bootstrap subset, so its mean sits near the center of the trial
// distribution; the assertion fails only when the runtime measures a
// different quantity than the generator predicted.
func assertWithinCI(t *testing.T, what string, got float64, s stats.Stream, trials int) {
	t.Helper()
	if trials != s.N {
		t.Fatalf("%s: stream has %d trials, candidate says %d", what, s.N, trials)
	}
	z := stats.NormPPF(0.99995)
	margin := z * s.StdDev()
	// Degenerate spread (e.g. the single-best tier has zero degradation
	// in every trial) still tolerates float noise.
	if margin < 1e-9*math.Max(1, math.Abs(s.Mean)) {
		margin = 1e-9 * math.Max(1, math.Abs(s.Mean))
	}
	if got < s.Mean-margin || got > s.Mean+margin {
		t.Fatalf("%s: online mean %v outside bootstrap CI [%v, %v] (trials %d, spread [%v, %v])",
			what, got, s.Mean-margin, s.Mean+margin, s.N, s.Min, s.Max)
	}
}
