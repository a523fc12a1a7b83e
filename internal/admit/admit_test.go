package admit

import (
	"math"
	"testing"
	"time"
)

// t0 is the synthetic admission clock's origin: every test advances it
// explicitly, so bucket refill and brownout intervals are exact.
var t0 = time.Unix(1_000_000, 0)

func TestDisabledAdmitsEverything(t *testing.T) {
	c := New(Config{})
	d := c.Admit(t0, "any", 0.01, time.Nanosecond, float64(time.Hour))
	if d.Verdict != Accept || d.Tolerance != 0.01 {
		t.Fatalf("disabled layer decided %+v", d)
	}
	c.Done(d)
	if got := c.InFlight(); got != 0 {
		t.Fatalf("disabled layer leaked in-flight gauge: %d", got)
	}
}

func TestTokenBucketRefillAndRetryAfter(t *testing.T) {
	c := New(Config{Enabled: true, DefaultRate: Rate{PerSec: 10, Burst: 2}})
	now := t0
	for i := 0; i < 2; i++ {
		d := c.Admit(now, "", 0.05, 0, math.NaN())
		if d.Verdict != Accept {
			t.Fatalf("admit %d: %v", i, d.Verdict)
		}
		c.Done(d)
	}
	d := c.Admit(now, "", 0.05, 0, math.NaN())
	if d.Verdict != ShedRate {
		t.Fatalf("drained bucket admitted: %v", d.Verdict)
	}
	// One token refills in 100ms at 10/s; the hint must say so.
	if d.RetryAfter != 100*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 100ms", d.RetryAfter)
	}
	// After exactly the hinted wait the next request fits again.
	now = now.Add(d.RetryAfter)
	if d := c.Admit(now, "", 0.05, 0, math.NaN()); d.Verdict != Accept {
		t.Fatalf("post-refill admit: %v", d.Verdict)
	} else {
		c.Done(d)
	}
}

func TestPerTenantRates(t *testing.T) {
	c := New(Config{
		Enabled:     true,
		DefaultRate: Rate{PerSec: 1, Burst: 1},
		Tenants:     map[string]Rate{"gold": {}}, // zero PerSec = unlimited
	})
	for i := 0; i < 50; i++ {
		d := c.Admit(t0, "gold", 0.05, 0, math.NaN())
		if d.Verdict != Accept {
			t.Fatalf("unlimited tenant shed on admit %d: %v", i, d.Verdict)
		}
		c.Done(d)
	}
	d := c.Admit(t0, "", 0.05, 0, math.NaN())
	c.Done(d)
	if d2 := c.Admit(t0, "", 0.05, 0, math.NaN()); d2.Verdict != ShedRate {
		t.Fatalf("default tenant not limited: %v", d2.Verdict)
	}
}

func TestPriorityReserve(t *testing.T) {
	c := New(Config{Enabled: true, MaxInFlight: 4, PriorityReserve: 2})
	bulk := make([]Decision, 0, 2)
	for i := 0; i < 2; i++ {
		d := c.Admit(t0, "", 0.10, 0, math.NaN())
		if d.Verdict != Accept {
			t.Fatalf("bulk admit %d: %v", i, d.Verdict)
		}
		bulk = append(bulk, d)
	}
	// Bulk traffic stops PriorityReserve slots early.
	if d := c.Admit(t0, "", 0.10, 0, math.NaN()); d.Verdict != ShedCapacity {
		t.Fatalf("bulk past reserve admitted: %v", d.Verdict)
	}
	// Priority traffic (tolerance <= 0.01) still finds the reserve.
	prio := make([]Decision, 0, 2)
	for i := 0; i < 2; i++ {
		d := c.Admit(t0, "", 0.01, 0, math.NaN())
		if d.Verdict != Accept {
			t.Fatalf("priority admit %d into reserve: %v", i, d.Verdict)
		}
		prio = append(prio, d)
	}
	// ... but not past the hard cap.
	if d := c.Admit(t0, "", 0.01, 0, math.NaN()); d.Verdict != ShedCapacity {
		t.Fatalf("priority past MaxInFlight admitted: %v", d.Verdict)
	}
	if got := c.InFlight(); got != 4 {
		t.Fatalf("in-flight = %d, want 4", got)
	}
	for _, d := range append(bulk, prio...) {
		c.Done(d)
	}
	if got := c.InFlight(); got != 0 {
		t.Fatalf("in-flight after Done = %d", got)
	}
}

func TestDeadlineShed(t *testing.T) {
	c := New(Config{Enabled: true})
	floor := float64(10 * time.Millisecond)

	if d := c.Admit(t0, "", 0.05, 5*time.Millisecond, floor); d.Verdict != ShedDeadline {
		t.Fatalf("budget below floor admitted: %v", d.Verdict)
	} else if d.RetryAfter <= 0 {
		t.Fatalf("deadline shed carries no Retry-After hint: %+v", d)
	}
	// A budget at or above the floor passes.
	if d := c.Admit(t0, "", 0.05, 10*time.Millisecond, floor); d.Verdict != Accept {
		t.Fatalf("budget at floor shed: %v", d.Verdict)
	} else {
		c.Done(d)
	}
	// No budget, or no floor estimate yet (NaN), stands the check down.
	if d := c.Admit(t0, "", 0.05, 0, floor); d.Verdict != Accept {
		t.Fatalf("budget-less request shed: %v", d.Verdict)
	} else {
		c.Done(d)
	}
	if d := c.Admit(t0, "", 0.05, time.Nanosecond, math.NaN()); d.Verdict != Accept {
		t.Fatalf("floor-less request shed: %v", d.Verdict)
	} else {
		c.Done(d)
	}

	// A negative ShedMargin disables deadline shedding outright; a
	// margin > 1 sheds budgets inside the safety band.
	c.SetConfig(Config{Enabled: true, ShedMargin: -1})
	if d := c.Admit(t0, "", 0.05, time.Nanosecond, floor); d.Verdict != Accept {
		t.Fatalf("disabled deadline shed still fired: %v", d.Verdict)
	} else {
		c.Done(d)
	}
	c.SetConfig(Config{Enabled: true, ShedMargin: 2})
	if d := c.Admit(t0, "", 0.05, 15*time.Millisecond, floor); d.Verdict != ShedDeadline {
		t.Fatalf("budget inside 2x margin admitted: %v", d.Verdict)
	}
}

func TestAdmitBatchAllOrNothing(t *testing.T) {
	c := New(Config{Enabled: true, DefaultRate: Rate{PerSec: 10, Burst: 10}})
	d := c.AdmitBatch(t0, "", 0.05, 0, math.NaN(), 8)
	if d.Verdict != Accept {
		t.Fatalf("first batch: %v", d.Verdict)
	}
	// 2 tokens remain; an 8-item batch is refused whole, leaving the
	// level untouched for the singles that still fit.
	if d2 := c.AdmitBatch(t0, "", 0.05, 0, math.NaN(), 8); d2.Verdict != ShedRate {
		t.Fatalf("oversized batch admitted: %v", d2.Verdict)
	}
	for i := 0; i < 2; i++ {
		s := c.Admit(t0, "", 0.05, 0, math.NaN())
		if s.Verdict != Accept {
			t.Fatalf("single %d after refused batch: %v", i, s.Verdict)
		}
		c.Done(s)
	}
	c.Done(d)
}

func TestBatchHoldsOneSlot(t *testing.T) {
	c := New(Config{Enabled: true, MaxInFlight: 2, PriorityReserve: 1})
	d := c.AdmitBatch(t0, "", 0.10, 0, math.NaN(), 64)
	if d.Verdict != Accept {
		t.Fatalf("batch: %v", d.Verdict)
	}
	// A whole batch mirrors the dispatcher's single limiter lease: one
	// slot, however many items — so the bulk limit (1) is now full.
	if got := c.InFlight(); got != 1 {
		t.Fatalf("in-flight = %d, want 1", got)
	}
	if d2 := c.AdmitBatch(t0, "", 0.10, 0, math.NaN(), 2); d2.Verdict != ShedCapacity {
		t.Fatalf("second bulk batch admitted: %v", d2.Verdict)
	}
	c.Done(d)
	if got := c.InFlight(); got != 0 {
		t.Fatalf("in-flight after Done = %d", got)
	}
}

// TestBrownoutHysteresis drives the controller through a full overload
// episode on a synthetic clock: sustained capacity saturation engages
// brownout after EngageIntervals breached intervals, engaged bulk
// traffic downgrades to the brownout tier while priority traffic is
// untouched, and ReleaseIntervals calm intervals release it again.
func TestBrownoutHysteresis(t *testing.T) {
	const interval = 100 * time.Millisecond
	c := New(Config{
		Enabled:          true,
		MaxInFlight:      1,
		Brownout:         true,
		Interval:         interval,
		EngageIntervals:  2,
		ReleaseIntervals: 2,
	})
	// MaxInFlight 1 normalizes PriorityReserve to 0 — bulk may use the
	// whole (single-slot) budget.
	if got := c.Status().Config.PriorityReserve; got != 0 {
		t.Fatalf("PriorityReserve normalized to %d, want 0", got)
	}

	now := t0
	hold := c.Admit(now, "", 0.05, 0, math.NaN()) // occupies the only slot
	if hold.Verdict != Accept {
		t.Fatalf("first admit: %v", hold.Verdict)
	}

	// Two intervals of pure saturation. The boundary-crossing admission
	// folds the finished interval into the breach streak.
	for i := 0; i < 4; i++ {
		if d := c.Admit(now, "", 0.05, 0, math.NaN()); d.Verdict != ShedCapacity {
			t.Fatalf("saturated admit %d: %v", i, d.Verdict)
		}
		now = now.Add(interval / 2)
	}
	now = now.Add(interval)
	if d := c.Admit(now, "", 0.05, 0, math.NaN()); d.Verdict != ShedCapacity {
		t.Fatalf("engaging admit: %v", d.Verdict)
	}
	if !c.Engaged() {
		t.Fatal("brownout not engaged after sustained saturation")
	}
	c.Done(hold)

	// Engaged: tolerant bulk traffic downgrades to the brownout tier...
	d := c.Admit(now, "", 0.05, 0, math.NaN())
	if d.Verdict != Downgrade || d.Tolerance != 0.10 {
		t.Fatalf("browned-out bulk decision %+v, want Downgrade to 0.10", d)
	}
	c.Done(d)
	// ...traffic already at or past the brownout tier passes unchanged...
	d = c.Admit(now, "", 0.20, 0, math.NaN())
	if d.Verdict != Accept || d.Tolerance != 0.20 {
		t.Fatalf("already-cheap tier decision %+v, want untouched Accept", d)
	}
	c.Done(d)
	// ...and priority traffic is never browned out.
	d = c.Admit(now, "", 0.01, 0, math.NaN())
	if d.Verdict != Accept || d.Tolerance != 0.01 {
		t.Fatalf("priority decision %+v, want untouched Accept", d)
	}
	c.Done(d)

	// Calm traffic for ReleaseIntervals intervals releases the brownout.
	for i := 0; i < 3; i++ {
		now = now.Add(interval + time.Millisecond)
		d := c.Admit(now, "", 0.05, 0, math.NaN())
		if d.Verdict.Shed() {
			t.Fatalf("calm admit %d shed: %v", i, d.Verdict)
		}
		c.Done(d)
	}
	if c.Engaged() {
		t.Fatal("brownout still engaged after calm intervals")
	}
	st := c.Status()
	if st.BrownoutEngaged != 1 || st.BrownoutReleased != 1 {
		t.Fatalf("engage/release counters = %d/%d, want 1/1", st.BrownoutEngaged, st.BrownoutReleased)
	}
	if st.State != "normal" {
		t.Fatalf("state = %q after release", st.State)
	}
}

// TestBrownoutIdleRelease pins the idle-credit rule: a node that went
// quiet releases on its first admission after the lull instead of
// waiting ReleaseIntervals more live intervals.
func TestBrownoutIdleRelease(t *testing.T) {
	const interval = 100 * time.Millisecond
	c := New(Config{
		Enabled:          true,
		MaxInFlight:      1,
		Brownout:         true,
		Interval:         interval,
		EngageIntervals:  1,
		ReleaseIntervals: 4,
	})
	now := t0
	hold := c.Admit(now, "", 0.05, 0, math.NaN())
	c.Admit(now, "", 0.05, 0, math.NaN()) // saturation shed
	now = now.Add(interval + time.Millisecond)
	c.Admit(now, "", 0.05, 0, math.NaN()) // folds breached interval -> engage
	if !c.Engaged() {
		t.Fatal("not engaged")
	}
	c.Done(hold)

	// The engaging admission itself shed on capacity, polluting the
	// current interval with a saturation mark; roll past it, then run
	// one clean calm admission followed by a long silence spanning many
	// intervals: the idle span credits the calm streak wholesale.
	now = now.Add(interval + time.Millisecond)
	d := c.Admit(now, "", 0.05, 0, math.NaN())
	c.Done(d)
	now = now.Add(10 * interval)
	d = c.Admit(now, "", 0.05, 0, math.NaN())
	c.Done(d)
	if c.Engaged() {
		t.Fatal("brownout survived a long idle span")
	}
}

func TestSetConfigRetunesLiveTenants(t *testing.T) {
	c := New(Config{Enabled: true, DefaultRate: Rate{PerSec: 100, Burst: 100}})
	// Materialize the tenant and leave it nearly full.
	d := c.Admit(t0, "", 0.05, 0, math.NaN())
	c.Done(d)
	// Shrink the burst: the stored level must clamp immediately, so the
	// very next window honors the new ceiling.
	c.SetConfig(Config{Enabled: true, DefaultRate: Rate{PerSec: 100, Burst: 2}})
	now := t0.Add(time.Millisecond) // refill is clamped at the new burst
	for i := 0; i < 2; i++ {
		d := c.Admit(now, "", 0.05, 0, math.NaN())
		if d.Verdict != Accept {
			t.Fatalf("admit %d after retune: %v", i, d.Verdict)
		}
		c.Done(d)
	}
	if d := c.Admit(now, "", 0.05, 0, math.NaN()); d.Verdict != ShedRate {
		t.Fatalf("retuned burst not enforced: %v", d.Verdict)
	}
}

// TestDoneSurvivesConfigFlip pins the leased-decision contract: a
// decision admitted while the layer was enabled releases its slot even
// if the layer is disabled (or re-limited) before the dispatch ends.
func TestDoneSurvivesConfigFlip(t *testing.T) {
	c := New(Config{Enabled: true, MaxInFlight: 4})
	d := c.Admit(t0, "", 0.05, 0, math.NaN())
	if d.Verdict != Accept || c.InFlight() != 1 {
		t.Fatalf("setup: %+v in-flight %d", d, c.InFlight())
	}
	c.SetConfig(Config{}) // disabled mid-flight
	d2 := c.Admit(t0, "", 0.05, 0, math.NaN())
	c.Done(d2) // unleased: must not decrement
	c.Done(d)  // leased: must decrement
	if got := c.InFlight(); got != 0 {
		t.Fatalf("in-flight after flip = %d, want 0", got)
	}
}

func TestStatusCounters(t *testing.T) {
	c := New(Config{
		Enabled:     true,
		MaxInFlight: 1,
		DefaultRate: Rate{PerSec: 1, Burst: 1},
		Tenants:     map[string]Rate{"gold": {}},
	})
	hold := c.Admit(t0, "gold", 0.10, 0, math.NaN())             // admitted, holds the slot
	c.Admit(t0, "gold", 0.10, 0, math.NaN())                     // capacity shed (slot held)
	c.Admit(t0, "", 0.10, 0, math.NaN())                         // rate shed? no: bucket has 1 token -> capacity shed
	c.Admit(t0, "", 0.10, 0, math.NaN())                         // rate shed (bucket drained)
	c.Admit(t0, "", 0.10, time.Nanosecond, float64(time.Second)) // deadline shed
	c.Done(hold)

	st := c.Status()
	if st.Admitted != 1 || st.ShedCapacity != 2 || st.ShedRate != 1 || st.ShedDeadline != 1 {
		t.Fatalf("fleet counters: %+v", st)
	}
	if len(st.Tenants) != 2 || st.Tenants[0].Tenant != "default" || st.Tenants[1].Tenant != "gold" {
		t.Fatalf("tenant rows: %+v", st.Tenants)
	}
	var sum int64
	for _, tn := range st.Tenants {
		sum += tn.Admitted + tn.ShedRate + tn.ShedCapacity + tn.ShedDeadline
	}
	if sum != st.Admitted+st.ShedRate+st.ShedCapacity+st.ShedDeadline {
		t.Fatalf("per-tenant rows do not sum to the fleet totals: %+v", st)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d", st.InFlight)
	}
}
