package toltiers_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/toltiers/toltiers"
	"github.com/toltiers/toltiers/internal/profile"
)

func sscanPct(s string, v *float64) (int, error) {
	f, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	*v = f
	return 1, err
}

func sscanFloat(s string, v *float64) (int, error) {
	f, err := strconv.ParseFloat(s, 64)
	*v = f
	return 1, err
}

// TestPublicAPIPipeline drives the full documented pipeline through the
// public facade only.
func TestPublicAPIPipeline(t *testing.T) {
	corpus := toltiers.NewVisionCorpus(400)
	if len(corpus.Requests) != 400 {
		t.Fatalf("corpus size %d", len(corpus.Requests))
	}
	matrix := toltiers.Profile(corpus.Service, corpus.Requests)
	if matrix.NumVersions() != len(corpus.Service.Versions) {
		t.Fatal("matrix shape mismatch")
	}

	train, test := toltiers.Split(matrix.NumRequests(), 0.7, 1)
	gcfg := toltiers.DefaultGeneratorConfig()
	gcfg.MinTrials = 5
	gcfg.MaxTrials = 24
	gcfg.ThresholdPoints = 4
	gcfg.IncludePickBest = false
	gen := toltiers.NewRuleGenerator(matrix, train, gcfg)
	table := gen.Generate(toltiers.ToleranceGrid(0.10, 0.02), toltiers.MinimizeLatency)

	rep := toltiers.Audit(matrix, test, table)
	if len(rep.Entries) != 6 {
		t.Fatalf("audit entries %d", len(rep.Entries))
	}

	reg := toltiers.NewRegistry(corpus.Service, table)
	res, out, rule, err := reg.Handle(corpus.Requests[0], 0.06, toltiers.MinimizeLatency)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class < 0 || out.Latency <= 0 {
		t.Fatalf("bad result %+v / %+v", res, out)
	}
	if rule.Tolerance != 0.06 {
		t.Fatalf("tier %v, want 0.06", rule.Tolerance)
	}
}

// TestPublicSpeechPipeline exercises the speech side of the facade.
func TestPublicSpeechPipeline(t *testing.T) {
	corpus := toltiers.NewSpeechCorpus(120)
	matrix := toltiers.Profile(corpus.Service, corpus.Requests)
	if matrix.NumVersions() != 7 {
		t.Fatalf("versions %d", matrix.NumVersions())
	}
	// Category analysis is exported through the matrix.
	bd, per := matrix.Categorize()
	if bd.Total != 120 || len(per) != 120 {
		t.Fatal("categorization shape wrong")
	}
	sum := bd.Fraction(profile.Unchanged) + bd.Fraction(profile.Improves) +
		bd.Fraction(profile.Degrades) + bd.Fraction(profile.Varies)
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func ExampleToleranceGrid() {
	grid := toltiers.ToleranceGrid(0.02, 0.01)
	fmt.Println(grid)
	// Output: [0 0.01 0.02]
}
