package drift

import (
	"strings"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/dispatch"
)

// canaryConfig keeps trial thresholds small enough for direct feeding.
func canaryConfig() Config {
	cfg := testMonitorConfig()
	cfg.CanaryMinSamples = 8
	cfg.CanaryMaxDuration = time.Minute
	cfg.CanaryErrSigma = 3
	cfg.CanaryLatSlack = 0.25
	return cfg
}

// feedArms pushes n outcomes into each arm of a live trial for a tier.
func feedArms(m *Monitor, tier string, n int, canaryErr, incumbentErr float64, canaryLat, incumbentLat time.Duration) {
	co := dispatch.Outcome{Err: canaryErr, Latency: canaryLat}
	io := dispatch.Outcome{Err: incumbentErr, Latency: incumbentLat}
	for i := 0; i < n; i++ {
		m.ObserveCanaryOutcome(tier, &co)
		m.ObserveOutcome(tier, &io)
	}
}

// healRec is the record a heal's owner hands FinishHeal: triggered at
// start by trigger, ended at `at` with verdict.
func healRec(start, at time.Time, trigger, verdict, errMsg string) HealRecord {
	return HealRecord{
		At: at, Trigger: trigger, Verdict: verdict, Promoted: verdict == HealPromoted,
		Duration: at.Sub(start), Err: errMsg,
	}
}

func TestCanaryVerdictPromotesOnWin(t *testing.T) {
	m := NewMonitor(canaryConfig(), []string{"b0"}, nil)
	start := time.Unix(1000, 0)

	// No trial: canary observations drop, verdict stays pending.
	m.ObserveCanaryOutcome("response-time/0.05", &dispatch.Outcome{Err: 0.05})
	if d := m.CanaryVerdict(start); d.Action != CanaryPending {
		t.Fatalf("verdict without a trial: %+v", d)
	}

	m.StartCanaryTrial(start)
	if st := m.Status(nil); st.State != "canary" {
		t.Fatalf("trial not active after start: state %q", st.State)
	}

	// Under-sampled: pending.
	feedArms(m, "response-time/0.05", 4, 0.05, 0.05, 20*time.Millisecond, 20*time.Millisecond)
	d := m.CanaryVerdict(start.Add(time.Second))
	if d.Action != CanaryPending {
		t.Fatalf("under-sampled trial decided early: %+v", d)
	}

	// Both arms full, canary matches the incumbent: promote.
	feedArms(m, "response-time/0.05", 8, 0.05, 0.05, 20*time.Millisecond, 20*time.Millisecond)
	d = m.CanaryVerdict(start.Add(2 * time.Second))
	if d.Action != CanaryPromote {
		t.Fatalf("matching canary not promoted: %+v", d)
	}
	if len(d.Tiers) != 1 || !d.Tiers[0].Ready || !d.Tiers[0].Pass {
		t.Fatalf("tier verdict: %+v", d.Tiers)
	}
}

func TestCanaryVerdictRejectsWorseError(t *testing.T) {
	m := NewMonitor(canaryConfig(), []string{"b0"}, nil)
	m.StartCanaryTrial(time.Unix(1000, 0))
	// The canary arm grades 0.6 against an incumbent at 0.05 — far
	// outside any combined standard error.
	feedArms(m, "response-time/0.05", 16, 0.6, 0.05, 20*time.Millisecond, 20*time.Millisecond)
	d := m.CanaryVerdict(time.Unix(1001, 0))
	if d.Action != CanaryReject {
		t.Fatalf("degraded canary not rejected: %+v", d)
	}
	if !strings.Contains(d.Reason, "response-time/0.05") {
		t.Fatalf("reject reason does not name the failing tier: %q", d.Reason)
	}
}

func TestCanaryVerdictRejectsLatencyRegression(t *testing.T) {
	m := NewMonitor(canaryConfig(), []string{"b0"}, nil)
	m.StartCanaryTrial(time.Unix(1000, 0))
	// Same error, but the canary p95 doubles — beyond the 25% slack.
	feedArms(m, "response-time/0.05", 16, 0.05, 0.05, 40*time.Millisecond, 20*time.Millisecond)
	d := m.CanaryVerdict(time.Unix(1001, 0))
	if d.Action != CanaryReject {
		t.Fatalf("slow canary not rejected: %+v", d)
	}
	if !strings.Contains(d.Reason, "p95") {
		t.Fatalf("reject reason should cite latency: %q", d.Reason)
	}
}

func TestCanaryVerdictFoldsFailuresAsError(t *testing.T) {
	m := NewMonitor(canaryConfig(), []string{"b0"}, nil)
	m.StartCanaryTrial(time.Unix(1000, 0))
	for i := 0; i < 16; i++ {
		m.ObserveCanaryFailure("response-time/0.05")
		m.ObserveOutcome("response-time/0.05", &dispatch.Outcome{Err: 0.05, Latency: 20 * time.Millisecond})
	}
	d := m.CanaryVerdict(time.Unix(1001, 0))
	if d.Action != CanaryReject {
		t.Fatalf("failing canary not rejected: %+v", d)
	}
}

func TestCanaryVerdictExpiry(t *testing.T) {
	m := NewMonitor(canaryConfig(), []string{"b0"}, nil)
	start := time.Unix(1000, 0)

	// Starved: past CanaryMaxDuration with no ready tier.
	m.StartCanaryTrial(start)
	feedArms(m, "response-time/0.05", 2, 0.05, 0.05, 20*time.Millisecond, 20*time.Millisecond)
	d := m.CanaryVerdict(start.Add(2 * time.Minute))
	if d.Action != CanaryReject || !strings.Contains(d.Reason, "starved") {
		t.Fatalf("starved trial not rejected: %+v", d)
	}

	// Expired with one ready passing tier and one still gathering:
	// promote on the evidence at hand.
	m.StartCanaryTrial(start)
	feedArms(m, "response-time/0.05", 16, 0.05, 0.05, 20*time.Millisecond, 20*time.Millisecond)
	feedArms(m, "response-time/0.10", 2, 0.05, 0.05, 20*time.Millisecond, 20*time.Millisecond)
	d = m.CanaryVerdict(start.Add(2 * time.Minute))
	if d.Action != CanaryPromote {
		t.Fatalf("expired trial with a passing tier not promoted: %+v", d)
	}
}

func TestCanaryStatusAndCancel(t *testing.T) {
	m := NewMonitor(canaryConfig(), []string{"b0"}, nil)
	alarmErr(m)
	start := time.Unix(1000, 0)
	if _, trigger := m.Check(start, nil); !trigger {
		t.Fatal("alarmed monitor did not trigger")
	}
	// The trigger claimed the in-flight slot; no trial yet.
	if st := m.Status(nil); st.State != "triggered" {
		t.Fatalf("state with a heal in flight and no trial: %q", st.State)
	}
	m.StartCanaryTrial(start)
	if st := m.Status(nil); st.State != "canary" {
		t.Fatalf("state during trial: %q", st.State)
	}
	// A heal cancelled mid-trial (shutdown) ends like any other: the
	// trial is torn down with it and the slot is free.
	m.FinishHeal(healRec(start, start.Add(time.Second), "test", HealFailed, "test teardown"))
	if d := m.CanaryVerdict(start.Add(2 * time.Second)); d.Reason != "no live trial" {
		t.Fatalf("trial survived the heal's end: %+v", d)
	}
	if st := m.Status(nil); st.State != "watching" {
		t.Fatalf("state after the heal ended: %q", st.State)
	}
}

// alarmErr warms a monitor up on clean traffic and then collapses the
// tier's error rate so the next Check confirms a shift.
func alarmErr(m *Monitor) {
	feed(m, "response-time/0.05", 8*6, 0.05, 20*time.Millisecond)
	feed(m, "response-time/0.05", 8*3, 0.8, 20*time.Millisecond)
}

func TestHealBackoffAndRetryBudget(t *testing.T) {
	cfg := canaryConfig()
	cfg.Cooldown = time.Millisecond
	cfg.HealBackoff = time.Minute
	cfg.MaxHealRetries = 2
	m := NewMonitor(cfg, []string{"b0"}, nil)
	alarmErr(m)

	now := time.Unix(1000, 0)
	if _, trigger := m.Check(now, nil); !trigger {
		t.Fatal("alarmed monitor did not trigger")
	}
	m.FinishHeal(healRec(now, now.Add(time.Second), "err shift", HealRejected, "canary lost"))

	// Inside the backoff window (first failure: 1x HealBackoff): even
	// well past the cooldown, no trigger.
	if _, trigger := m.Check(now.Add(30*time.Second), nil); trigger {
		t.Fatal("trigger fired inside heal backoff")
	}
	// Past the backoff: the still-alarmed detectors re-trigger.
	after := now.Add(time.Second).Add(time.Minute + time.Second)
	if _, trigger := m.Check(after, nil); !trigger {
		t.Fatal("trigger suppressed after backoff expired")
	}

	// Second consecutive non-promotion exhausts MaxHealRetries: healing
	// suspends no matter how much time passes.
	m.FinishHeal(healRec(after, after.Add(time.Second), "err shift", HealFailed, "rules job failed"))
	if _, trigger := m.Check(after.Add(24*time.Hour), nil); trigger {
		t.Fatal("trigger fired past the retry budget")
	}

	// SetConfig re-arms the budget (and resets detectors, so re-alarm).
	m.SetConfig(cfg)
	alarmErr(m)
	if _, trigger := m.Check(after.Add(48*time.Hour), nil); !trigger {
		t.Fatal("SetConfig did not re-arm self-healing")
	}

	// A promotion clears the failure streak and backoff entirely.
	if _, trigger := m.Check(after.Add(48*time.Hour+time.Second), nil); trigger {
		t.Fatal("trigger fired with the re-armed heal still in flight")
	}
	m.FinishHeal(healRec(after, after.Add(time.Second), "err shift", HealPromoted, ""))
	alarmErr(m)
	if _, trigger := m.Check(after.Add(72*time.Hour), nil); !trigger {
		t.Fatal("trigger suppressed after a promotion")
	}
}

func TestHealRecordsAndSeeding(t *testing.T) {
	m := NewMonitor(canaryConfig(), []string{"b0"}, nil)
	start := time.Unix(1000, 0)
	m.StartCanaryTrial(start)
	promoted := healRec(start, start.Add(3*time.Second), "tier response-time/0.05 error shift", HealPromoted, "")
	promoted.JobID = 7
	m.FinishHeal(promoted)
	if st := m.Status(nil); st.State == "canary" {
		t.Fatal("FinishHeal left the trial live")
	}

	heals := m.Heals()
	if len(heals) != 1 {
		t.Fatalf("heal history: %+v", heals)
	}
	rec := heals[0]
	if rec.Verdict != HealPromoted || !rec.Promoted || rec.Err != "" || rec.JobID != 7 ||
		rec.Trigger != "tier response-time/0.05 error shift" || rec.Duration != 3*time.Second {
		t.Fatalf("promoted record: %+v", rec)
	}
	if m.Reprofiles() != 1 {
		t.Fatalf("reprofiles after promotion: %d", m.Reprofiles())
	}

	m.FinishHeal(healRec(start.Add(time.Minute), start.Add(2*time.Minute), "latency shift", HealRejected, "tier x: canary lost"))
	heals = m.Heals()
	if len(heals) != 2 || heals[1].Verdict != HealRejected || heals[1].Promoted || heals[1].Err == "" {
		t.Fatalf("rejected record: %+v", heals)
	}
	if m.Reprofiles() != 1 {
		t.Fatalf("rejection bumped reprofiles: %d", m.Reprofiles())
	}

	// Seeding another monitor restores history and the applied count.
	m2 := NewMonitor(canaryConfig(), []string{"b0"}, nil)
	m2.SeedHeals(m.Heals(), m.Reprofiles())
	if got := m2.Heals(); len(got) != 2 || got[0] != heals[0] || got[1] != heals[1] {
		t.Fatalf("seeded history: %+v", got)
	}
	if m2.Reprofiles() != 1 {
		t.Fatalf("seeded reprofiles: %d", m2.Reprofiles())
	}
}
