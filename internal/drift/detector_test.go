package drift

import (
	"math"
	"testing"
)

func TestPageHinkleyDetectsStep(t *testing.T) {
	p := PageHinkley{Delta: 0.02, Lambda: 0.3, MinSamples: 5}
	for i := 0; i < 50; i++ {
		if p.Observe(0.05) {
			t.Fatalf("alarm on a constant stream at observation %d", i)
		}
	}
	fired := -1
	for i := 0; i < 20; i++ {
		if p.Observe(0.8) {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatalf("no alarm within 20 observations of a 0.05 -> 0.8 step (stat %v)", p.Stat())
	}
	if fired > 2 {
		t.Fatalf("step detected only after %d observations", fired+1)
	}
	if !p.Alarmed() {
		t.Fatal("Alarmed() false after Observe returned true")
	}
	p.Reset()
	if p.Alarmed() || p.N() != 0 || p.Stat() != 0 {
		t.Fatalf("Reset left state: n=%d stat=%v", p.N(), p.Stat())
	}
}

func TestPageHinkleyDetectsDecrease(t *testing.T) {
	p := PageHinkley{Delta: 0.02, Lambda: 0.3, MinSamples: 5}
	for i := 0; i < 50; i++ {
		p.Observe(0.9)
	}
	fired := false
	for i := 0; i < 20; i++ {
		if p.Observe(0.1) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("no alarm on a downward step")
	}
}

func TestPageHinkleyMinSamplesGate(t *testing.T) {
	p := PageHinkley{Delta: 0.001, Lambda: 0.01, MinSamples: 10}
	// A wild early stream must not alarm before MinSamples.
	vals := []float64{0, 5, -3, 8, 0.5}
	for i, v := range vals {
		if p.Observe(v) {
			t.Fatalf("alarm at observation %d, before MinSamples", i+1)
		}
	}
}

func TestCUSUMDetectsShift(t *testing.T) {
	c := CUSUM{K: 0.5, H: 6, Warmup: 20}
	// Warmup: alternate around mean 10 with spread ~1.
	for i := 0; i < 20; i++ {
		x := 10.0 + float64(i%2*2-1) // 9, 11, 9, 11, ...
		if c.Observe(x) {
			t.Fatalf("alarm during warmup at %d", i)
		}
	}
	mu, sigma := c.Baseline()
	if mu != 10 || sigma <= 0 {
		t.Fatalf("baseline (%v, %v) after warmup", mu, sigma)
	}
	// In-control stream stays quiet.
	for i := 0; i < 100; i++ {
		if c.Observe(10 + float64(i%2*2-1)) {
			t.Fatalf("false alarm on in-control stream at %d (stat %v)", i, c.Stat())
		}
	}
	// A 4-sigma shift fires within a few observations.
	fired := false
	for i := 0; i < 10; i++ {
		if c.Observe(mu + 4*sigma) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatalf("no alarm within 10 observations of a 4-sigma shift (stat %v)", c.Stat())
	}
	c.Reset()
	if c.Alarmed() || c.N() != 0 {
		t.Fatal("Reset left state")
	}
}

func TestCUSUMConstantWarmupFallbackScale(t *testing.T) {
	c := CUSUM{K: 0.5, H: 4, Warmup: 10}
	for i := 0; i < 10; i++ {
		c.Observe(2.0)
	}
	_, sigma := c.Baseline()
	if sigma <= 0 {
		t.Fatalf("constant warmup produced non-positive sigma %v", sigma)
	}
	// The stream never moved, so no alarm...
	for i := 0; i < 50; i++ {
		if c.Observe(2.0) {
			t.Fatal("alarm on a constant stream")
		}
	}
	// ...but a genuine jump still registers against the fallback scale.
	fired := false
	for i := 0; i < 50; i++ {
		if c.Observe(3.0) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("no alarm after a jump from a constant baseline")
	}
}

func TestCUSUMNearConstantWarmupFloorsSigma(t *testing.T) {
	c := CUSUM{K: 0.5, H: 6, Warmup: 10}
	// Near-constant warmup: sigma estimates orders of magnitude below
	// the mean and must be floored, or benign jitter standardizes into
	// multi-sigma alarms.
	for i := 0; i < 10; i++ {
		c.Observe(10.0 + float64(i%2)*1e-7)
	}
	if _, sigma := c.Baseline(); sigma < 0.5 {
		t.Fatalf("near-constant warmup sigma %v below the 5%%-of-mean floor", sigma)
	}
	for i := 0; i < 100; i++ {
		if c.Observe(10.0 + float64(i%3)*1e-3) {
			t.Fatalf("0.01%% jitter alarmed at %d (stat %v)", i, c.Stat())
		}
	}
	fired := false
	for i := 0; i < 20; i++ {
		if c.Observe(15.0) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("a 50% shift did not fire against the floored scale")
	}
}

func TestQuantileShift(t *testing.T) {
	q := QuantileShift{Baseline: 100, Ratio: 0.5, Strikes: 3}
	for i := 0; i < 10; i++ {
		if q.Observe(120) {
			t.Fatal("alarm inside the tolerated ratio")
		}
	}
	if q.Observe(200) || q.Observe(200) {
		t.Fatal("alarm before the strike count")
	}
	if !q.Observe(200) {
		t.Fatal("no alarm at the strike count")
	}
	// A dip resets the streak.
	q.Reset()
	q.Observe(200)
	q.Observe(120)
	if q.Observe(200) || q.Observe(200) {
		t.Fatal("streak survived a below-threshold observation")
	}
	// NaN (no estimate) neither strikes nor resets.
	q.Reset()
	q.Observe(200)
	q.Observe(200)
	if q.Observe(math.NaN()) {
		t.Fatal("NaN observation alarmed")
	}
	if !q.Observe(200) {
		t.Fatal("NaN observation reset the streak")
	}
	// Zero baseline disables the test.
	z := QuantileShift{Baseline: 0, Ratio: 0.5, Strikes: 1}
	if z.Observe(1e12) {
		t.Fatal("alarm with no baseline")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := withDefaults(Config{Enabled: true})
	if c.Window <= 0 || c.WarmupWindows <= 0 || c.ErrLambda <= 0 || c.LatLambda <= 0 ||
		c.CusumH <= 0 || c.QuantileStrikes <= 0 || c.Cooldown <= 0 {
		t.Fatalf("defaults left zero fields: %+v", c)
	}
	if !c.Enabled {
		t.Fatal("defaults cleared Enabled")
	}
}
