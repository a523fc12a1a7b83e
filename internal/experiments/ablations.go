package experiments

import (
	"fmt"

	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/tablewriter"
	"github.com/toltiers/toltiers/internal/tiers"
	"github.com/toltiers/toltiers/internal/xrand"
)

// A1 ablates the confidence gate: confidence-gated failover versus
// always-escalate and versus random escalation at the same escalation
// rate. This isolates how much of the tier win comes from the model's
// self-assessment rather than from merely mixing versions.
func (e *Env) A1() []*tablewriter.Table {
	var out []*tablewriter.Table
	for _, r := range e.tierRuns() {
		best := r.gen.Best()
		grid := ensemble.ThresholdGrid(r.m, r.train, 0, 9)
		th := grid[len(grid)/2]
		gated := r.heldOutAgg(ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: best, Threshold: th})

		// Random escalation at the same rate.
		rng := xrand.New(0xab1a7e)
		rate := gated.EscalationRate
		var sumErr float64
		var sumLat float64
		for _, i := range r.test {
			fast, acc := r.m.At(i, 0), r.m.At(i, best)
			if rng.Float64() < rate {
				sumErr += acc.Err
				sumLat += float64(fast.Latency + acc.Latency)
			} else {
				sumErr += fast.Err
				sumLat += float64(fast.Latency)
			}
		}
		n := float64(len(r.test))
		always := r.heldOutAgg(ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: best, Threshold: 2})
		fast := r.heldOutAgg(ensemble.Policy{Kind: ensemble.Single, Primary: 0})
		baseline := r.heldOutAgg(ensemble.Policy{Kind: ensemble.Single, Primary: best})

		t := tablewriter.New(fmt.Sprintf("A1 — value of the confidence gate (%s, failover v1->best)", r.name),
			"router", "mean err", "err deg vs best", "mean latency (ms)", "escalation rate")
		add := func(label string, meanErr, lat float64, esc float64) {
			t.AddStrings(label, pct(meanErr), pct(ensemble.ErrDegradation(meanErr, baseline.MeanErr)),
				fmt.Sprintf("%.1f", lat/1e6), pct(esc))
		}
		add("fast only (no escalation)", fast.MeanErr, float64(fast.MeanLatency), 0)
		add(fmt.Sprintf("confidence-gated (θ=%.3f)", th), gated.MeanErr, float64(gated.MeanLatency), gated.EscalationRate)
		add("random @ same rate", sumErr/n, sumLat/n, rate)
		add("always escalate", always.MeanErr, float64(always.MeanLatency), 1)
		t.Caption = "confidence gating concentrates escalations on requests the fast version actually gets wrong"
		out = append(out, t)
	}
	return out
}

// A2 compares two-version ensembles against three-version ladders
// (fast -> mid -> best), reproducing the paper's finding that "more
// complex solutions ... did not outperform" the simple policies.
func (e *Env) A2() []*tablewriter.Table {
	var out []*tablewriter.Table
	for _, r := range e.tierRuns() {
		nv := r.m.NumVersions()
		best := nv - 1
		mid := nv / 2
		grid0 := ensemble.ThresholdGrid(r.m, r.train, 0, 7)
		gridM := ensemble.ThresholdGrid(r.m, r.train, mid, 7)

		type point struct {
			label string
			err   float64
			lat   float64
		}
		var pts []point
		for _, th := range grid0 {
			agg := r.heldOutAgg(ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: best, Threshold: th})
			pts = append(pts, point{fmt.Sprintf("2-ver θ=%.2f", th), agg.MeanErr, float64(agg.MeanLatency)})
		}
		// Three-version ladder: v0 -> mid at θ0, then mid -> best at θm,
		// simulated row-wise.
		for _, th0 := range []float64{grid0[len(grid0)/3], grid0[2*len(grid0)/3]} {
			for _, thm := range []float64{gridM[len(gridM)/3], gridM[2*len(gridM)/3]} {
				var errSum, latSum float64
				rowBuf := make([]profile.Cell, r.m.NumVersions())
				for _, i := range r.test {
					row := r.m.ReadRow(i, rowBuf)
					switch {
					case row[0].Confidence >= th0:
						errSum += row[0].Err
						latSum += float64(row[0].Latency)
					case row[mid].Confidence >= thm:
						errSum += row[mid].Err
						latSum += float64(row[0].Latency + row[mid].Latency)
					default:
						errSum += row[best].Err
						latSum += float64(row[0].Latency + row[mid].Latency + row[best].Latency)
					}
				}
				n := float64(len(r.test))
				pts = append(pts, point{fmt.Sprintf("3-ver θ0=%.2f θm=%.2f", th0, thm), errSum / n, latSum / n})
			}
		}
		t := tablewriter.New(fmt.Sprintf("A2 — two-version vs three-version ladders (%s)", r.name),
			"config", "mean err", "mean latency (ms)", "dominated by a 2-ver point")
		for _, p := range pts {
			dominated := "no"
			for _, q := range pts {
				if q.label != p.label && len(q.label) > 4 && q.label[:5] == "2-ver" &&
					q.err <= p.err+1e-12 && q.lat <= p.lat+1e-6 && (q.err < p.err || q.lat < p.lat) {
					dominated = "yes"
					break
				}
			}
			t.AddStrings(p.label, pct(p.err), fmt.Sprintf("%.1f", p.lat/1e6), dominated)
		}
		t.Caption = "paper §IV-C: simple two-version policies outperformed more complex solutions"
		out = append(out, t)
	}
	return out
}

// A3 sweeps the bootstrap confidence level and reports held-out
// violations: lower confidence means less conservative worst cases and
// a higher risk of breaking the tier guarantee.
func (e *Env) A3() []*tablewriter.Table {
	t := tablewriter.New("A3 — bootstrap confidence level vs guarantee violations",
		"service", "confidence", "tiers audited", "violations", "worst held-out degradation", "mean latency reduction @5%")
	tols := []float64{0.01, 0.02, 0.05, 0.10}
	for _, r := range e.tierRuns() {
		for _, conf := range []float64{0.90, 0.99, 0.999} {
			cfg := e.Scale.Gen
			cfg.Confidence = conf
			g := rulegen.New(r.m, r.train, cfg)
			table := g.Generate(tols, rulegen.MinimizeLatency)
			rep := tiers.Audit(r.m, r.test, table)
			worst := 0.0
			for _, en := range rep.Entries {
				if en.Degradation > worst {
					worst = en.Degradation
				}
			}
			at5 := auditEntryAt(rep, 0.05)
			t.AddStrings(r.name, fmt.Sprintf("%.1f%%", conf*100), fmt.Sprint(len(rep.Entries)),
				fmt.Sprint(rep.Violations), pct(worst), pct(at5.LatencyReduction))
		}
	}
	t.Caption = "the paper evaluates at 99.9%; lower confidence trades guarantee safety for aggressiveness"
	return []*tablewriter.Table{t}
}

// A4 contrasts the sequential and concurrent policies under the two
// billing models, at matched thresholds: ET wins latency, FO wins cost.
func (e *Env) A4() []*tablewriter.Table {
	var out []*tablewriter.Table
	for _, r := range e.tierRuns() {
		best := r.gen.Best()
		grid := ensemble.ThresholdGrid(r.m, r.train, 0, 9)
		t := tablewriter.New(fmt.Sprintf("A4 — Seq(FO) vs Conc(ET) under both billing models (%s)", r.name),
			"threshold", "FO latency (ms)", "ET latency (ms)", "FO inv cost ($)", "ET inv cost ($)", "FO IaaS ($)", "ET IaaS ($)")
		for _, th := range grid[1 : len(grid)-1] {
			fo := r.heldOutAgg(ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: best, Threshold: th})
			et := r.heldOutAgg(ensemble.Policy{Kind: ensemble.Concurrent, Primary: 0, Secondary: best, Threshold: th})
			t.AddStrings(fmt.Sprintf("%.3f", th),
				ms(fo.MeanLatency), ms(et.MeanLatency),
				fmt.Sprintf("%.5f", fo.MeanInvCost), fmt.Sprintf("%.5f", et.MeanInvCost),
				fmt.Sprintf("%.6f", fo.MeanIaaSCost), fmt.Sprintf("%.6f", et.MeanIaaSCost))
		}
		t.Caption = "ET hedges (pays both invocations, cancels the loser's node time); FO pays the big version only on escalation"
		out = append(out, t)
	}
	return out
}

// A5 quantifies the PickBest result-selection variant: ensembles that
// keep the more confident of the two results can beat the most accurate
// single version (§IV's "better accuracy ... than any single service
// version").
func (e *Env) A5() []*tablewriter.Table {
	var out []*tablewriter.Table
	for _, r := range e.tierRuns() {
		best := r.gen.Best()
		baseline := r.heldOutAgg(ensemble.Policy{Kind: ensemble.Single, Primary: best})
		t := tablewriter.New(fmt.Sprintf("A5 — result selection on escalation (%s)", r.name),
			"policy", "mean err", "err deg vs best single", "beats best single")
		grid := ensemble.ThresholdGrid(r.m, r.train, 0, 9)
		for _, th := range []float64{grid[len(grid)/2], grid[len(grid)-2]} {
			for _, pick := range []bool{false, true} {
				p := ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: best, Threshold: th, PickBest: pick}
				agg := r.heldOutAgg(p)
				deg := ensemble.ErrDegradation(agg.MeanErr, baseline.MeanErr)
				t.AddStrings(p.String(), pct(agg.MeanErr), pct(deg), yesNo(deg < 0))
			}
		}
		out = append(out, t)
	}
	return out
}
