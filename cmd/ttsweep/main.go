// Command ttsweep runs the repository's two exhaustive grid sweeps.
//
// The default heuristics mode reproduces how the paper's ASR service
// versions were produced (§III-A): "exhaustively sweeping (i.e. grid
// search) of the heuristic values" and keeping the Pareto-optimal
// points. It sweeps the decoder's pruning heuristics over a grid,
// measures WER and work on a corpus, prints the frontier, and suggests
// seven evenly spaced presets.
//
// The policies mode sweeps every candidate ensemble routing policy of a
// profiled service on held-out rows through the columnar
// ensemble.Evaluator — one gather, then a fused fill-and-sum per
// configuration instead of a per-row simulation scan — and prints the
// held-out accuracy-latency Pareto frontier.
//
//	ttsweep -corpus 600 -top 7
//	ttsweep -mode policies -service vision -corpus 2000
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/toltiers/toltiers/internal/asr"
	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/metrics"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/speech"
	"github.com/toltiers/toltiers/internal/tablewriter"
)

type point struct {
	cfg  asr.Config
	wer  float64
	work int64
}

func main() {
	var (
		mode      = flag.String("mode", "heuristics", "sweep to run: heuristics | policies")
		corpusN   = flag.Int("corpus", 600, "corpus size (utterances per grid point, or requests to profile)")
		top       = flag.Int("top", 7, "presets to suggest from the frontier (heuristics mode)")
		svcName   = flag.String("service", "vision", "service for policies mode: asr | vision | vision-cpu")
		trainFrac = flag.Float64("train-frac", 0.7, "training fraction for the threshold grid (policies mode)")
		points    = flag.Int("thresholds", 15, "confidence thresholds per ensemble pair (policies mode)")
	)
	flag.Parse()

	if *mode == "policies" {
		sweepPolicies(*svcName, *corpusN, *trainFrac, *points)
		return
	}
	if *mode != "heuristics" {
		fmt.Fprintf(os.Stderr, "unknown -mode %q\n", *mode)
		os.Exit(2)
	}

	lm := speech.NewLanguageModel(speech.DefaultLMConfig())
	am := speech.NewAcousticModel(lm.VocabSize(), speech.DefaultAcousticConfig())
	syn := speech.NewSynthesizer(lm, am, 1)
	corpus := syn.Corpus(0, *corpusN)

	// The grid spans the two dominant heuristics; the others follow the
	// presets' scaling rules (beam delta and token budget grow with the
	// shortlist).
	var grid []asr.Config
	for _, k := range []int{24, 32, 41, 47, 55, 66, 80, 96} {
		for _, ma := range []int{10, 14, 18, 25, 32, 40} {
			if ma > k {
				continue
			}
			grid = append(grid, asr.Config{
				Name:        fmt.Sprintf("k%d-a%d", k, ma),
				ShortlistK:  k,
				MaxActive:   ma,
				BeamDelta:   9 + float64(k)/16,
				TokenBudget: 80 * k,
				LMWeight:    0.95,
			})
		}
	}

	fmt.Fprintf(os.Stderr, "sweeping %d grid points over %d utterances ...\n", len(grid), len(corpus))
	pts := make([]point, 0, len(grid))
	for _, cfg := range grid {
		d := asr.NewDecoder(lm, am, cfg)
		var errs, words int
		var work int64
		for _, u := range corpus {
			res := d.Decode(u)
			we := metrics.AlignWords(res.Words, u.Words)
			errs += we.Total()
			words += we.RefWords
			work += res.WorkUnits
		}
		pts = append(pts, point{cfg: cfg, wer: float64(errs) / float64(words), work: work / int64(len(corpus))})
	}

	// Pareto frontier: sort by work, keep strict WER improvements.
	sort.Slice(pts, func(i, j int) bool { return pts[i].work < pts[j].work })
	var frontier []point
	bestWER := 1e9
	for _, p := range pts {
		if p.wer < bestWER {
			frontier = append(frontier, p)
			bestWER = p.wer
		}
	}

	t := tablewriter.New(fmt.Sprintf("heuristic grid sweep — Pareto frontier (%d of %d points)", len(frontier), len(pts)),
		"config", "shortlistK", "maxActive", "WER", "work/utt", "work x fastest")
	w0 := float64(frontier[0].work)
	for _, p := range frontier {
		t.AddStrings(p.cfg.Name, fmt.Sprint(p.cfg.ShortlistK), fmt.Sprint(p.cfg.MaxActive),
			fmt.Sprintf("%.4f", p.wer), fmt.Sprint(p.work), fmt.Sprintf("%.2fx", float64(p.work)/w0))
	}
	if err := t.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Suggest presets: evenly spaced along the frontier's work axis.
	n := *top
	if n > len(frontier) {
		n = len(frontier)
	}
	fmt.Println("suggested presets (evenly spaced on the frontier):")
	for i := 0; i < n; i++ {
		idx := i * (len(frontier) - 1) / max(n-1, 1)
		p := frontier[idx]
		fmt.Printf("  v%d: ShortlistK=%d MaxActive=%d BeamDelta=%.1f TokenBudget=%d (WER %.4f, %.2fx)\n",
			i+1, p.cfg.ShortlistK, p.cfg.MaxActive, p.cfg.BeamDelta, p.cfg.TokenBudget,
			p.wer, float64(p.work)/w0)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// policyPoint is one evaluated ensemble configuration.
type policyPoint struct {
	policy ensemble.Policy
	agg    ensemble.Aggregate
}

// sweepPolicies profiles the service, enumerates every candidate
// routing policy (singles plus failover/concurrent pairs across the
// train-quantile threshold grid, with and without PickBest), and
// evaluates each configuration on the held-out rows through one
// ensemble.Evaluator. This replaces the per-configuration
// ensemble.Evaluate row scans such a sweep used to need: the column
// gather is paid once, thresholds are enumerated outside secondaries so
// the evaluator's escalation-mask cache hits across variants, and every
// aggregate is bit-identical to the row-oriented path.
func sweepPolicies(svcName string, corpusN int, trainFrac float64, points int) {
	svc, reqs, err := dataset.ByName(svcName, corpusN)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "profiling %d requests across %d versions of %s ...\n",
		len(reqs), len(svc.Versions), svc.Domain)
	m := profile.Build(svc, reqs)
	train, test := dataset.Split(m.NumRequests(), trainFrac, 0x53eeb)

	ev := ensemble.NewEvaluator(m, test)
	nv := m.NumVersions()
	var pts []policyPoint
	evaluate := func(p ensemble.Policy) {
		ev.SetPolicy(p)
		pts = append(pts, policyPoint{policy: p, agg: ev.Aggregate(nil)})
	}
	start := time.Now()
	for v := 0; v < nv; v++ {
		evaluate(ensemble.Policy{Kind: ensemble.Single, Primary: v})
	}
	for p := 0; p < nv; p++ {
		// Thresholds outer, secondaries inner: consecutive configurations
		// share the (primary, threshold) escalation mask.
		for _, th := range ensemble.ThresholdGrid(m, train, p, points) {
			if th == 0 {
				continue
			}
			for s := p + 1; s < nv; s++ {
				for _, kind := range []ensemble.Kind{ensemble.Failover, ensemble.Concurrent} {
					evaluate(ensemble.Policy{Kind: kind, Primary: p, Secondary: s, Threshold: th})
					evaluate(ensemble.Policy{Kind: kind, Primary: p, Secondary: s, Threshold: th, PickBest: true})
				}
			}
		}
	}
	elapsed := time.Since(start)

	// Held-out Pareto frontier over (mean latency, mean error).
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].agg.MeanLatency != pts[j].agg.MeanLatency {
			return pts[i].agg.MeanLatency < pts[j].agg.MeanLatency
		}
		return pts[i].agg.MeanErr < pts[j].agg.MeanErr
	})
	var frontier []policyPoint
	bestErr := 1e18
	for _, pt := range pts {
		if pt.agg.MeanErr < bestErr {
			frontier = append(frontier, pt)
			bestErr = pt.agg.MeanErr
		}
	}

	t := tablewriter.New(
		fmt.Sprintf("policy grid sweep (%s) — held-out Pareto frontier (%d of %d configurations, %d test rows)",
			svcName, len(frontier), len(pts), len(test)),
		"policy", "mean err", "mean latency (ms)", "inv cost ($)", "escalation rate")
	for _, pt := range frontier {
		t.AddStrings(pt.policy.String(),
			fmt.Sprintf("%.4f", pt.agg.MeanErr),
			fmt.Sprintf("%.2f", float64(pt.agg.MeanLatency)/1e6),
			fmt.Sprintf("%.5f", pt.agg.MeanInvCost),
			fmt.Sprintf("%.3f", pt.agg.EscalationRate))
	}
	t.Caption = fmt.Sprintf("evaluated %d configurations through the fused policy evaluator in %v (%.1f µs/config)",
		len(pts), elapsed.Round(time.Millisecond), float64(elapsed.Microseconds())/float64(len(pts)))
	if err := t.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
