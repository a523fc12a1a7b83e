package stats

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/toltiers/toltiers/internal/xrand"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	q0, _ := Quantile(xs, 0)
	q50, _ := Quantile(xs, 0.5)
	q100, _ := Quantile(xs, 1)
	if q0 != 1 || q100 != 4 {
		t.Errorf("extremes = %v, %v", q0, q100)
	}
	if !approx(q50, 2.5, 1e-12) {
		t.Errorf("median = %v, want 2.5", q50)
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("expected error on empty quantile")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("expected error on out-of-range q")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	_, _ = Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestNormPPFKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.999, 3.090232306167813},
		{0.9995, 3.290526731491926},
		{0.025, -1.959963984540054},
		{0.841344746068543, 1.0},
	}
	for _, c := range cases {
		if got := NormPPF(c.p); !approx(got, c.want, 1e-8) {
			t.Errorf("NormPPF(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(NormPPF(0), -1) || !math.IsInf(NormPPF(1), 1) {
		t.Error("NormPPF extremes not infinite")
	}
}

func TestNormPPFInvertsCDF(t *testing.T) {
	f := func(u16 uint16) bool {
		p := 0.0001 + 0.9998*float64(u16)/65535.0
		x := NormPPF(p)
		return approx(NormCDF(x), p, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConfidenceTestNeedsMinTrials(t *testing.T) {
	ct := ConfidenceTest{Level: 0.999, MinTrials: 8}
	if ct.Confident([]float64{1, 2, 3}) {
		t.Error("confident with fewer than MinTrials observations")
	}
}

func TestConfidenceTestConstantSeries(t *testing.T) {
	ct := ConfidenceTest{Level: 0.999, MinTrials: 4}
	if !ct.Confident([]float64{2, 2, 2, 2}) {
		t.Error("constant series at MinTrials should be confident")
	}
}

func TestConfidenceTestMaxTrialsForcesStop(t *testing.T) {
	ct := ConfidenceTest{Level: 0.999, MinTrials: 2, MaxTrials: 5}
	series := []float64{1, 1.0001, 1.0002, 0.9999, 1.0001}
	if !ct.Confident(series) {
		t.Error("series at MaxTrials should be confident")
	}
}

func TestConfidenceTestSpreadCriterion(t *testing.T) {
	ct := ConfidenceTest{Level: 0.90, MinTrials: 3, MaxTrials: 1000}
	// Narrow spread: z-scores of a 3-point nearly-linear series stay
	// within +-1.3, below ppf(0.90)=1.2816 only barely — construct a
	// clearly insufficient spread with many mid values.
	narrow := []float64{10, 10.1, 10.05, 10.02, 10.08, 10.03}
	wide := append(append([]float64{}, narrow...), 5, 15) // inject extremes
	if got := ct.Confident(wide); !got {
		t.Error("wide series should be confident")
	}
}

func TestBootstrapConvergesAndRecordsWorstCase(t *testing.T) {
	rng := xrand.New(42)
	n := 100
	data := make([]float64, n)
	r2 := xrand.New(7)
	for i := range data {
		data[i] = r2.Float64() * 10
	}
	test := ConfidenceTest{Level: 0.95, MinTrials: 8, MaxTrials: 200}
	res := Bootstrap(rng, n, n/10, test, func(subset []int) Trial {
		sum := 0.0
		for _, idx := range subset {
			sum += data[idx]
		}
		mean := sum / float64(len(subset))
		return Trial{mean, mean * 2}
	})
	if res.Trials < 8 {
		t.Errorf("stopped before MinTrials: %d", res.Trials)
	}
	if len(res.WorstCase) != 2 || len(res.Mean) != 2 {
		t.Fatalf("metric arity wrong: %+v", res)
	}
	if res.WorstCase[0] < res.Mean[0] {
		t.Errorf("worst case %v below mean %v", res.WorstCase[0], res.Mean[0])
	}
	if !approx(res.WorstCase[1], 2*res.WorstCase[0], 1e-9) {
		t.Errorf("metric coupling lost: %v vs %v", res.WorstCase[1], res.WorstCase[0])
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	run := func() BootstrapResult {
		rng := xrand.New(1)
		test := ConfidenceTest{Level: 0.99, MinTrials: 4, MaxTrials: 64}
		return Bootstrap(rng, 50, 5, test, func(subset []int) Trial {
			s := 0.0
			for _, i := range subset {
				s += float64(i)
			}
			return Trial{s}
		})
	}
	a, b := run(), run()
	if a.Trials != b.Trials || a.WorstCase[0] != b.WorstCase[0] {
		t.Errorf("bootstrap not deterministic: %+v vs %+v", a, b)
	}
}

func TestBootstrapConstantMetricStopsAtMinTrials(t *testing.T) {
	rng := xrand.New(3)
	test := ConfidenceTest{Level: 0.999, MinTrials: 6, MaxTrials: 100}
	res := Bootstrap(rng, 20, 4, test, func(subset []int) Trial {
		return Trial{42}
	})
	if res.Trials != 6 {
		t.Errorf("constant metric should stop at MinTrials=6, ran %d", res.Trials)
	}
	if res.WorstCase[0] != 42 {
		t.Errorf("worst case = %v", res.WorstCase[0])
	}
}

func TestBootstrapSampleSizeClamped(t *testing.T) {
	rng := xrand.New(4)
	test := ConfidenceTest{Level: 0.9, MinTrials: 2, MaxTrials: 4}
	saw := 0
	Bootstrap(rng, 10, 0, test, func(subset []int) Trial {
		saw = len(subset)
		return Trial{float64(len(subset))}
	})
	if saw != 10 {
		t.Errorf("sampleSize 0 should clamp to n=10, got %d", saw)
	}
}
