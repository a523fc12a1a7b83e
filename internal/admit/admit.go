// Package admit is the admission-and-overload layer between the HTTP
// handlers and the dispatch runtime. The paper's tolerance tier is a
// contract — "within X% of the best accuracy, as fast as possible" —
// but a contract the dispatcher alone can only honor at light load:
// under overload every request queues on the backend limiters until its
// deadline burns, and the fleet collapses instead of degrading. The
// Controller restores graceful degradation with four mechanisms,
// applied in cost order before a request leases any backend slot:
//
//  1. Deadline-aware shedding: a request whose latency budget is below
//     the empirical floor of its tier's primary backend (the
//     dispatcher's cached window minimum) cannot possibly meet its
//     deadline, so it is rejected for 503 + Retry-After instead of
//     burning a backend leg to produce a late answer.
//  2. Per-tenant token buckets keyed by the dispatch ticket's tenant
//     ID, with runtime-tunable rates (429 + Retry-After when drained).
//  3. Tier-aware priority admission: a slice of the in-flight budget is
//     reserved for priority tiers (tolerance <= PriorityTolerance), so
//     bulk 20%-tolerance traffic can saturate the node without ever
//     starving a 1%-tolerance request of a slot.
//  4. A brownout controller: when the shed rate or queue saturation
//     stays above threshold for consecutive evaluation intervals, the
//     node downgrades tolerant traffic to a cheaper tier's policy — a
//     20%-tolerance request is a pre-negotiated permission to degrade —
//     and restores with hysteresis once the overload clears. Brownout
//     never upgrades and never touches priority-tier traffic.
//
// The admit-accept fast path is allocation-free: the tenant registry is
// a read-locked map of long-lived entries, buckets take one short
// per-tenant mutex, the in-flight gauge and interval counters are
// atomics, and the Decision travels by value.
package admit

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/toltiers/toltiers/internal/api"
)

// Rate is one tenant's token-bucket parameters.
type Rate = api.Rate

// Config parameterizes a Controller. It is defined once, with its wire
// form, in internal/api. The zero value is a disabled layer that admits
// everything untouched; see the field defaults there.
type Config = api.AdmissionConfig

// normalized returns cfg with defaults filled in.
func normalized(cfg Config) Config {
	if cfg.PriorityTolerance <= 0 {
		cfg.PriorityTolerance = 0.01
	}
	if cfg.MaxInFlight > 0 {
		if cfg.PriorityReserve <= 0 {
			cfg.PriorityReserve = cfg.MaxInFlight / 10
			if cfg.PriorityReserve < 1 {
				cfg.PriorityReserve = 1
			}
		}
		if cfg.PriorityReserve >= cfg.MaxInFlight {
			cfg.PriorityReserve = cfg.MaxInFlight - 1
		}
	}
	if cfg.ShedMargin == 0 {
		cfg.ShedMargin = 1
	}
	if cfg.BrownoutTolerance <= 0 {
		cfg.BrownoutTolerance = 0.10
	}
	if cfg.EngageShed <= 0 {
		cfg.EngageShed = 0.10
	}
	if cfg.ReleaseShed <= 0 {
		cfg.ReleaseShed = 0.02
	}
	if cfg.EngageIntervals <= 0 {
		cfg.EngageIntervals = 2
	}
	if cfg.ReleaseIntervals <= 0 {
		cfg.ReleaseIntervals = 4
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 250 * time.Millisecond
	}
	return cfg
}

// rateFor resolves one tenant's bucket parameters.
func rateFor(cfg *Config, id string) Rate {
	r, ok := cfg.Tenants[id]
	if !ok {
		r = cfg.DefaultRate
	}
	if r.Burst <= 0 && r.PerSec > 0 {
		r.Burst = r.PerSec
		if r.Burst < 1 {
			r.Burst = 1
		}
	}
	return r
}

// Verdict classifies an admission decision.
type Verdict uint8

const (
	// Accept admits the request unchanged.
	Accept Verdict = iota
	// Downgrade admits the request, to be served with the brownout
	// tier's (cheaper) policy instead of the one it asked for.
	Downgrade
	// ShedRate rejects for a drained tenant token bucket (HTTP 429).
	ShedRate
	// ShedCapacity rejects for in-flight slot exhaustion (HTTP 503).
	ShedCapacity
	// ShedDeadline rejects a budget provably below the tier's observed
	// latency floor (HTTP 503).
	ShedDeadline
)

// Shed reports whether the verdict rejects the request.
func (v Verdict) Shed() bool { return v >= ShedRate }

// StatusCode is the HTTP status a shed maps to (0 for admissions).
func (v Verdict) StatusCode() int {
	switch v {
	case ShedRate:
		return 429
	case ShedCapacity, ShedDeadline:
		return 503
	}
	return 0
}

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Accept:
		return "accept"
	case Downgrade:
		return "downgrade"
	case ShedRate:
		return "shed-rate"
	case ShedCapacity:
		return "shed-capacity"
	case ShedDeadline:
		return "shed-deadline"
	}
	return "unknown"
}

// Decision is the outcome of one admission. It travels by value and
// must be handed back to Done exactly once when the verdict admitted
// the request (sheds may skip the call; Done is a no-op for them).
type Decision struct {
	Verdict Verdict
	// RetryAfter is the client backoff hint on sheds.
	RetryAfter time.Duration
	// Tolerance is the tier tolerance to serve: the requested one, or
	// the brownout tier on Downgrade.
	Tolerance float64
	// leased records that the decision holds an in-flight slot, so Done
	// stays correct across runtime config flips.
	leased bool
}

// tenant is one tenant's bucket and counters. Entries live for the
// controller's lifetime, so the admit fast path never allocates.
type tenant struct {
	mu    sync.Mutex // guards the bucket fields below
	rate  Rate
	level float64
	last  int64 // unix nanos of the last refill (0 = never)

	admitted     atomic.Int64
	shedRate     atomic.Int64
	shedCapacity atomic.Int64
	shedDeadline atomic.Int64
	downgraded   atomic.Int64
}

// take draws n tokens, refilling for the elapsed time first. On refusal
// it reports how long until the deficit refills.
func (t *tenant) take(now int64, n float64) (bool, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rate.PerSec <= 0 {
		return true, 0
	}
	if t.last == 0 {
		t.level = t.rate.Burst
	} else if now > t.last {
		t.level += float64(now-t.last) / float64(time.Second) * t.rate.PerSec
		if t.level > t.rate.Burst {
			t.level = t.rate.Burst
		}
	}
	t.last = now
	if t.level >= n {
		t.level -= n
		return true, 0
	}
	return false, time.Duration((n - t.level) / t.rate.PerSec * float64(time.Second))
}

// setRate swaps the bucket parameters, clamping the stored level so a
// shrunk burst takes effect immediately.
func (t *tenant) setRate(r Rate) {
	t.mu.Lock()
	t.rate = r
	if t.level > r.Burst {
		t.level = r.Burst
	}
	t.mu.Unlock()
}

// Controller is the admission layer. Safe for concurrent use.
type Controller struct {
	mu      sync.RWMutex // guards cfg and the tenants map shape
	cfg     Config       // normalized
	tenants map[string]*tenant

	inflight atomic.Int64
	brown    atomic.Bool

	// Interval accounting for the brownout controller: counters
	// accumulate over the current interval; the admission that first
	// crosses an interval boundary wins the CAS on intervalStart and
	// folds the finished interval into the hysteresis streaks.
	intervalStart atomic.Int64
	intAdmit      atomic.Int64
	intShed       atomic.Int64
	intSat        atomic.Int64 // capacity sheds (queue-saturation trigger)

	evalMu       sync.Mutex // guards the streaks
	breachStreak int
	calmStreak   int

	engaged  atomic.Int64
	released atomic.Int64
}

// New builds a Controller.
func New(cfg Config) *Controller {
	c := &Controller{tenants: make(map[string]*tenant)}
	c.cfg = normalized(cfg)
	return c
}

// SetConfig swaps the runtime configuration: bucket rates re-resolve
// for every known tenant (levels clamp to the new burst), counters and
// brownout state carry over.
func (c *Controller) SetConfig(cfg Config) {
	cfg = normalized(cfg)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg = cfg
	for id, t := range c.tenants {
		t.setRate(rateFor(&cfg, id))
	}
}

// Engaged reports whether brownout is currently active.
func (c *Controller) Engaged() bool { return c.brown.Load() }

// InFlight returns the admitted-but-unfinished dispatch count.
func (c *Controller) InFlight() int64 { return c.inflight.Load() }

// Admit decides one request: tenantID keys the token bucket (""
// addresses the default tenant), tolerance is the requested tier,
// budget the request's deadline (0 = none), and floorNs the observed
// latency floor of the tier's primary backend in nanoseconds (NaN or
// <= 0 when unknown — deadline shedding then stands down).
func (c *Controller) Admit(now time.Time, tenantID string, tolerance float64, budget time.Duration, floorNs float64) Decision {
	return c.admit(now, tenantID, tolerance, budget, floorNs, 1)
}

// AdmitBatch admits n requests as one unit: the bucket is charged n
// tokens (all or nothing), one in-flight slot is held — mirroring the
// dispatcher's whole-batch limiter lease — and counters advance by n.
func (c *Controller) AdmitBatch(now time.Time, tenantID string, tolerance float64, budget time.Duration, floorNs float64, n int) Decision {
	if n < 1 {
		n = 1
	}
	return c.admit(now, tenantID, tolerance, budget, floorNs, int64(n))
}

func (c *Controller) admit(now time.Time, tenantID string, tolerance float64, budget time.Duration, floorNs float64, n int64) Decision {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.cfg.Enabled {
		return Decision{Verdict: Accept, Tolerance: tolerance}
	}
	nowNs := now.UnixNano()
	c.rollInterval(nowNs)
	t := c.tenantLocked(tenantID)

	// Deadline shed first: it consumes no budget from any other
	// mechanism, and a provably late answer helps nobody.
	if budget > 0 && c.cfg.ShedMargin > 0 && floorNs > 0 &&
		float64(budget) < floorNs*c.cfg.ShedMargin {
		t.shedDeadline.Add(n)
		c.intShed.Add(n)
		return Decision{Verdict: ShedDeadline, RetryAfter: c.cfg.RetryAfter, Tolerance: tolerance}
	}

	// Tenant token bucket.
	if ok, wait := t.take(nowNs, float64(n)); !ok {
		t.shedRate.Add(n)
		c.intShed.Add(n)
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		return Decision{Verdict: ShedRate, RetryAfter: wait, Tolerance: tolerance}
	}

	// Capacity, with the priority reserve: bulk traffic stops
	// PriorityReserve slots early, so a 1%-tier request always finds
	// room no matter how hard the 20% tier is pushing.
	priority := tolerance <= c.cfg.PriorityTolerance
	if c.cfg.MaxInFlight > 0 {
		limit := int64(c.cfg.MaxInFlight)
		if !priority {
			limit -= int64(c.cfg.PriorityReserve)
		}
		for {
			cur := c.inflight.Load()
			if cur >= limit {
				t.shedCapacity.Add(n)
				c.intShed.Add(n)
				c.intSat.Add(1)
				return Decision{Verdict: ShedCapacity, RetryAfter: c.cfg.RetryAfter, Tolerance: tolerance}
			}
			if c.inflight.CompareAndSwap(cur, cur+1) {
				break
			}
		}
	} else {
		c.inflight.Add(1)
	}

	t.admitted.Add(n)
	c.intAdmit.Add(n)
	d := Decision{Verdict: Accept, Tolerance: tolerance, leased: true}
	if c.cfg.Brownout && c.brown.Load() && !priority && tolerance < c.cfg.BrownoutTolerance {
		t.downgraded.Add(n)
		d.Verdict = Downgrade
		d.Tolerance = c.cfg.BrownoutTolerance
	}
	return d
}

// Done releases an admitted decision's in-flight slot. Safe to call
// with a shed decision (no-op), but must be called exactly once per
// admission or the gauge leaks.
func (c *Controller) Done(d Decision) {
	if d.leased {
		c.inflight.Add(-1)
	}
}

// rollInterval folds finished evaluation intervals into the brownout
// hysteresis. Called with c.mu read-held; the CAS elects one caller.
func (c *Controller) rollInterval(nowNs int64) {
	start := c.intervalStart.Load()
	if start == 0 {
		c.intervalStart.CompareAndSwap(0, nowNs)
		return
	}
	interval := int64(c.cfg.Interval)
	elapsed := nowNs - start
	if elapsed < interval {
		return
	}
	if !c.intervalStart.CompareAndSwap(start, nowNs) {
		return
	}
	admitN := c.intAdmit.Swap(0)
	shedN := c.intShed.Swap(0)
	satN := c.intSat.Swap(0)

	c.evalMu.Lock()
	defer c.evalMu.Unlock()
	total := admitN + shedN
	var shedFrac float64
	if total > 0 {
		shedFrac = float64(shedN) / float64(total)
	}
	breach := satN > 0 || (total > 0 && shedFrac >= c.cfg.EngageShed)
	calm := satN == 0 && shedFrac <= c.cfg.ReleaseShed
	switch {
	case breach:
		c.breachStreak++
		c.calmStreak = 0
	case calm:
		c.calmStreak++
		c.breachStreak = 0
		// Idle intervals beyond the one that accumulated this traffic
		// carried nothing at all; credit them so a quiet node releases
		// on its first admission after the lull.
		if extra := elapsed/interval - 1; extra > 0 {
			c.calmStreak += int(extra)
		}
	default:
		// The dead band between the engage and release thresholds:
		// neither streak advances, neither resets — the hysteresis.
	}
	if !c.brown.Load() {
		if c.cfg.Brownout && c.breachStreak >= c.cfg.EngageIntervals {
			c.brown.Store(true)
			c.engaged.Add(1)
			c.breachStreak = 0
		}
	} else if c.calmStreak >= c.cfg.ReleaseIntervals {
		c.brown.Store(false)
		c.released.Add(1)
		c.calmStreak = 0
	}
}

// tenantLocked resolves (or creates) a tenant entry. Called with c.mu
// read-held; creation upgrades to the write lock once per tenant.
func (c *Controller) tenantLocked(id string) *tenant {
	if t, ok := c.tenants[id]; ok {
		return t
	}
	// First sighting: trade the read lock for the write lock. The
	// config cannot change underneath — SetConfig holds the write lock
	// too — and the caller's read of cfg stays valid after downgrade.
	c.mu.RUnlock()
	c.mu.Lock()
	t, ok := c.tenants[id]
	if !ok {
		t = &tenant{rate: rateFor(&c.cfg, id)}
		c.tenants[id] = t
	}
	c.mu.Unlock()
	c.mu.RLock()
	return t
}
