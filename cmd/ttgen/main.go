// Command ttgen runs the routing-rule generator (the paper's Fig. 7)
// over a profiled corpus and prints the generated rule table: one line
// per tolerance tier with the chosen policy and its bootstrapped
// statistics.
//
//	ttgen -service asr -corpus 4000 -objective response-time -step 0.01
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/tablewriter"
	"github.com/toltiers/toltiers/internal/tiers"
)

func main() {
	var (
		svcName    = flag.String("service", "asr", "service: asr | vision | vision-cpu")
		corpusN    = flag.Int("corpus", 2000, "corpus size to profile")
		objective  = flag.String("objective", "response-time", "objective: response-time | cost")
		confidence = flag.Float64("confidence", 0.999, "bootstrap confidence")
		step       = flag.Float64("step", 0.01, "tolerance grid step")
		maxTol     = flag.Float64("max", 0.10, "largest tolerance")
		trainFrac  = flag.Float64("train", 1.0, "training fraction (rest audited as held-out)")
		outPath    = flag.String("o", "", "also save the rule table as JSON to this file")
	)
	flag.Parse()

	svc, reqs, err := dataset.ByName(*svcName, *corpusN)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	obj := rulegen.Objective(*objective)

	fmt.Fprintf(os.Stderr, "profiling %d requests ...\n", len(reqs))
	matrix := profile.Build(svc, reqs)

	var train, test []int
	if *trainFrac < 1 {
		train, test = dataset.Split(matrix.NumRequests(), *trainFrac, 1)
	}

	gcfg := rulegen.DefaultConfig()
	gcfg.Confidence = *confidence
	start := time.Now()
	// The bootstrap sweep runs on every CPU; its output does not depend
	// on how many there are.
	gen := rulegen.New(matrix, train, gcfg)
	fmt.Fprintf(os.Stderr, "bootstrapped %d candidates in %.1fs\n", len(gen.Candidates()), time.Since(start).Seconds())

	table := gen.Generate(rulegen.ToleranceGrid(*maxTol, *step), obj)
	out := tablewriter.New(
		fmt.Sprintf("routing rules — %s, objective=%s, confidence=%.3f", *svcName, obj, *confidence),
		"tolerance", "policy", "worst-case err deg", "mean latency (ms)", "mean inv cost ($)", "bootstrap trials")
	for _, r := range table.Rules {
		c := r.Candidate
		out.AddStrings(
			fmt.Sprintf("%.3f", r.Tolerance), c.Policy.String(),
			fmt.Sprintf("%.4f", c.WorstErrDeg),
			fmt.Sprintf("%.1f", float64(c.MeanLatency)/1e6),
			fmt.Sprintf("%.5f", c.MeanInvCost),
			fmt.Sprint(c.Trials))
	}
	if err := out.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if test != nil {
		rep := tiers.Audit(matrix, test, table)
		fmt.Printf("held-out audit: %d tiers, %d violations\n", len(rep.Entries), rep.Violations)
	}

	if *outPath != "" {
		if err := rulegen.SaveTableFile(*outPath, table); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rule table saved to %s\n", *outPath)
	}
}
