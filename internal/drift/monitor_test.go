package drift

import (
	"math"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/service"
)

// testMonitorConfig is a small, fast-firing configuration for monitor
// behaviour tests.
func testMonitorConfig() Config {
	return Config{
		Enabled: true, AutoReprofile: true,
		Window: 8, WarmupWindows: 3,
		ErrDelta: 0.02, ErrLambda: 0.3,
		LatDelta: 0.05, LatLambda: 1.0,
		CusumK: 0.5, CusumH: 12,
		QuantileRatio: 0.5, QuantileStrikes: 2,
		Cooldown: time.Hour,
	}
}

// feed pushes n outcomes with the given error and latency into a tier.
func feed(m *Monitor, tier string, n int, errVal float64, lat time.Duration) {
	o := dispatch.Outcome{Err: errVal, Latency: lat}
	for i := 0; i < n; i++ {
		m.ObserveOutcome(tier, &o)
	}
}

func TestMonitorDetectsErrorShift(t *testing.T) {
	m := NewMonitor(testMonitorConfig(), []string{"b0"}, nil)
	// Stationary warmup plus headroom: no alarms, no trigger.
	feed(m, "response-time/0.05", 8*6, 0.05, 20*time.Millisecond)
	events, trigger := m.Check(time.Unix(1000, 0), nil)
	if len(events) != 0 || trigger {
		t.Fatalf("stationary traffic alarmed: events %v trigger %v", events, trigger)
	}
	// A collapsed backend: mean error jumps to 0.8.
	feed(m, "response-time/0.05", 8*3, 0.8, 20*time.Millisecond)
	events, trigger = m.Check(time.Unix(1010, 0), nil)
	if len(events) == 0 {
		t.Fatal("error shift produced no events")
	}
	if !trigger {
		t.Fatal("error shift did not trigger with AutoReprofile armed")
	}
	foundPH := false
	for _, e := range events {
		if e.Stream != "tier:response-time/0.05" {
			t.Fatalf("event on unexpected stream %q", e.Stream)
		}
		if e.Detector == DetectorErrPH {
			foundPH = true
		}
		if e.Value <= e.Threshold {
			t.Fatalf("event value %v not beyond threshold %v", e.Value, e.Threshold)
		}
	}
	if !foundPH {
		t.Fatalf("no %s event among %v", DetectorErrPH, events)
	}
	// The same episode is not re-reported...
	events, trigger = m.Check(time.Unix(1011, 0), nil)
	if len(events) != 0 {
		t.Fatalf("alarm episode re-reported: %v", events)
	}
	// ...and the cooldown suppresses a second trigger.
	if trigger {
		t.Fatal("second trigger inside the cooldown")
	}
}

func TestMonitorDetectsLatencyShift(t *testing.T) {
	m := NewMonitor(testMonitorConfig(), []string{"b0"}, nil)
	feed(m, "response-time/0.01", 8*6, 0.05, 20*time.Millisecond)
	if events, _ := m.Check(time.Unix(1, 0), nil); len(events) != 0 {
		t.Fatalf("stationary traffic alarmed: %v", events)
	}
	// Latency inflates 4x at stable accuracy.
	feed(m, "response-time/0.01", 8*4, 0.05, 80*time.Millisecond)
	events, _ := m.Check(time.Unix(2, 0), nil)
	found := false
	for _, e := range events {
		if e.Detector == DetectorLatPH || e.Detector == DetectorLatCusum {
			found = true
		}
		if e.Detector == DetectorErrPH || e.Detector == DetectorErrCusum {
			t.Fatalf("error detector fired on a latency-only shift: %v", e)
		}
	}
	if !found {
		t.Fatalf("latency shift produced no latency events: %v", events)
	}
}

func TestMonitorQuantileShift(t *testing.T) {
	base := 100 * float64(time.Millisecond)
	m := NewMonitor(testMonitorConfig(), []string{"b0", "b1"}, []float64{base, base})
	// b0 within tolerance, b1 inflated beyond 1.5x baseline.
	p95 := func(i int) float64 {
		if i == 0 {
			return base * 1.2
		}
		return base * 2.5
	}
	if events, _ := m.Check(time.Unix(1, 0), p95); len(events) != 0 {
		t.Fatalf("first strike already alarmed: %v", events)
	}
	events, trigger := m.Check(time.Unix(2, 0), p95)
	if len(events) != 1 || events[0].Stream != "backend:b1" || events[0].Detector != DetectorQuantile {
		t.Fatalf("unexpected events %v", events)
	}
	if !trigger {
		t.Fatal("quantile shift did not trigger")
	}
	// A recovery ends the episode; a later breach is a fresh confirmed
	// shift and re-reports.
	recovered := func(int) float64 { return base }
	if events, _ := m.Check(time.Unix(3, 0), recovered); len(events) != 0 {
		t.Fatalf("recovery produced events: %v", events)
	}
	m.Check(time.Unix(4, 0), p95)
	events, _ = m.Check(time.Unix(5, 0), p95)
	if len(events) != 1 || events[0].Stream != "backend:b1" {
		t.Fatalf("second episode not re-reported: %v", events)
	}

	// NaN estimates (cold trackers) never strike.
	m2 := NewMonitor(testMonitorConfig(), []string{"b0"}, []float64{base})
	for i := 0; i < 5; i++ {
		if events, _ := m2.Check(time.Unix(int64(i), 0), func(int) float64 { return math.NaN() }); len(events) != 0 {
			t.Fatalf("NaN estimates alarmed: %v", events)
		}
	}
}

func TestMonitorReprofileLifecycle(t *testing.T) {
	m := NewMonitor(testMonitorConfig(), []string{"b0"}, nil)
	feed(m, "cost/0.05", 8*6, 0.05, 20*time.Millisecond)
	feed(m, "cost/0.05", 8*3, 0.9, 20*time.Millisecond)
	_, trigger := m.Check(time.Unix(1, 0), nil)
	if !trigger {
		t.Fatal("no trigger")
	}
	// The trigger claimed the in-flight slot: it suppresses further
	// triggers even past cooldown.
	if _, trigger := m.Check(time.Unix(1e6, 0), nil); trigger {
		t.Fatal("trigger while a reprofile is in flight")
	}
	st := m.Status(nil)
	if st.State != "triggered" {
		t.Fatalf("status %q during reprofile", st.State)
	}
	rec := healRec(time.Unix(1, 0), time.Unix(2, 0), "", HealPromoted, "")
	rec.JobID = 7
	m.FinishHeal(rec)
	if got := m.Reprofiles(); got != 1 {
		t.Fatalf("reprofiles %d after applied heal", got)
	}
	// Detectors reset: healed traffic at the new level re-baselines
	// without alarming.
	feed(m, "cost/0.05", 8*8, 0.9, 20*time.Millisecond)
	if events, _ := m.Check(time.Unix(2e6, 0), nil); len(events) != 0 {
		t.Fatalf("healed traffic re-alarmed: %v", events)
	}
	st = m.Status(nil)
	if st.State != "watching" || st.Reprofiles != 1 || len(st.Heals) != 1 || st.Heals[0].JobID != 7 {
		t.Fatalf("status %+v after heal", st)
	}
	if len(st.Events) == 0 {
		t.Fatal("event history lost across reset")
	}
}

// TestMonitorDetectsFailureStorm pins the catastrophic case: a backend
// outage produces no outcomes at all, only failures — the detectors
// must still see it (failures enter the error stream as maximal
// observations and advance the window).
func TestMonitorDetectsFailureStorm(t *testing.T) {
	m := NewMonitor(testMonitorConfig(), []string{"b0"}, nil)
	feed(m, "response-time/0.05", 8*6, 0.05, 20*time.Millisecond)
	if events, _ := m.Check(time.Unix(1, 0), nil); len(events) != 0 {
		t.Fatalf("stationary traffic alarmed: %v", events)
	}
	for i := 0; i < 8*3; i++ {
		m.ObserveFailure("response-time/0.05")
	}
	events, trigger := m.Check(time.Unix(2, 0), nil)
	if len(events) == 0 || !trigger {
		t.Fatalf("failure storm invisible: events %v trigger %v", events, trigger)
	}
	st := m.Status(nil)
	if st.Tiers[0].Failures != 8*3 {
		t.Fatalf("failures %d, want %d", st.Tiers[0].Failures, 8*3)
	}
	if st.Tiers[0].MeanErr != 1 {
		t.Fatalf("all-failure window mean err %v, want 1", st.Tiers[0].MeanErr)
	}
}

// TestMonitorFailureWindowsDoNotPoisonLatencyBaseline pins the warmup
// accounting: an all-failure window carries no latency sample and must
// neither burn a warmup slot nor dilute the frozen baseline, so the
// relative latency test still works after an early outage.
func TestMonitorFailureWindowsDoNotPoisonLatencyBaseline(t *testing.T) {
	m := NewMonitor(testMonitorConfig(), []string{"b0"}, nil)
	const tier = "response-time/0.05"
	// Two all-failure windows first, then a clean warmup.
	for i := 0; i < 8*2; i++ {
		m.ObserveFailure(tier)
	}
	feed(m, tier, 8*6, 0.05, 20*time.Millisecond)
	m.Check(time.Unix(1, 0), nil) // collect the failure-storm episode
	st := m.Status(nil)
	if got := st.Tiers[0].BaselineLatencyMS; got != 20 {
		t.Fatalf("latency baseline %vms after failure windows, want 20", got)
	}
	// A genuine 4x latency inflation at stable accuracy still fires.
	feed(m, tier, 8*4, 0.05, 80*time.Millisecond)
	events, _ := m.Check(time.Unix(2, 0), nil)
	found := false
	for _, e := range events {
		if e.Detector == DetectorLatPH || e.Detector == DetectorLatCusum {
			found = true
		}
	}
	if !found {
		t.Fatalf("latency shift missed after early failure windows: %v", events)
	}
}

func TestMonitorDisabledObservesNothing(t *testing.T) {
	cfg := testMonitorConfig()
	cfg.Enabled = false
	m := NewMonitor(cfg, []string{"b0"}, nil)
	feed(m, "response-time/0.05", 8*10, 0.9, time.Millisecond)
	if events, trigger := m.Check(time.Unix(1, 0), nil); len(events) != 0 || trigger {
		t.Fatal("disabled monitor alarmed")
	}
	if st := m.Status(nil); st.State != "disabled" || len(st.Tiers) != 0 {
		t.Fatalf("disabled monitor accumulated state: %+v", st)
	}
}

func TestMonitorSetConfigResetsDetectors(t *testing.T) {
	m := NewMonitor(testMonitorConfig(), []string{"b0"}, nil)
	feed(m, "response-time/0.05", 8*6, 0.05, 20*time.Millisecond)
	feed(m, "response-time/0.05", 8*3, 0.9, 20*time.Millisecond)
	if events, _ := m.Check(time.Unix(1, 0), nil); len(events) == 0 {
		t.Fatal("no alarm before reconfig")
	}
	cfg := testMonitorConfig()
	cfg.Window = 16
	m.SetConfig(cfg)
	st := m.Status(nil)
	if len(st.Tiers) != 0 {
		t.Fatalf("tier states survived SetConfig: %+v", st.Tiers)
	}
	if st.Config.Window != 16 {
		t.Fatalf("config not applied: %+v", st.Config)
	}
}

func TestMonitorUngradedOutcomesSkipErrorDetectors(t *testing.T) {
	m := NewMonitor(testMonitorConfig(), []string{"b0"}, nil)
	o := dispatch.Outcome{Err: math.NaN(), Latency: 20 * time.Millisecond}
	for i := 0; i < 8*6; i++ {
		m.ObserveOutcome("response-time/0.05", &o)
	}
	st := m.Status(nil)
	if len(st.Tiers) != 1 {
		t.Fatalf("tiers %+v", st.Tiers)
	}
	if st.Tiers[0].Windows != 6 {
		t.Fatalf("windows %d, want 6", st.Tiers[0].Windows)
	}
	if st.Tiers[0].ErrPH != 0 || st.Tiers[0].ErrCusum != 0 {
		t.Fatalf("error detectors moved on ungraded traffic: %+v", st.Tiers[0])
	}
}

func TestBackendBaselines(t *testing.T) {
	m := profile.New(service.VisionDomain, []string{"v0", "v1"}, []int{0, 1, 2, 3})
	for i := 0; i < 4; i++ {
		m.LatencyNs[m.Index(i, 0)] = float64(i+1) * 1e6 // 1..4 ms
		m.LatencyNs[m.Index(i, 1)] = float64(i+1) * 2e6 // 2..8 ms
	}
	base := BackendBaselines(m)
	if len(base) != 2 {
		t.Fatalf("baselines %v", base)
	}
	if base[0] <= 3e6 || base[0] > 4e6 || base[1] <= 6e6 || base[1] > 8e6 {
		t.Fatalf("p95 baselines %v outside expected ranges", base)
	}
}
