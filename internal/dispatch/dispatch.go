// Package dispatch is the online tier-execution runtime: it runs
// tolerance-tier routing policies against live backends at request time.
// Where ensemble.Policy.Simulate replays a policy over profiled rows and
// Policy.Execute drives service versions synchronously, the Dispatcher
// is the serving-side seam — it invokes the primary backend, evaluates
// the escalation condition on the live result, and escalates (or
// hedges) to the secondary under a per-request deadline budget, with
// per-backend concurrency limiters and online telemetry kept as counts
// and sums (per-tier means and per-backend billing totals).
//
// The outcome arithmetic is the paper's: for any backend set that
// reports the same latencies, confidences and costs as a profile
// matrix, a dispatched request produces exactly the Outcome that
// Policy.Simulate computes for that row (the replay-convergence tests
// in this package pin this, per request and in aggregate). Deadline
// hedging is the one deliberate departure: when a request carries a
// latency budget that the primary's observed p95 says a sequential
// escalation cannot make, the dispatcher fires the secondary
// concurrently — trading the failover tier's cost saving for the
// deadline, and recording the hedge in telemetry.
//
// The steady-state request path is engineered to scale with cores:
// telemetry commits take one uncontended sharded lock per request (per
// batch for DoBatch), hedging estimates are single atomic loads, and a
// replay dispatch allocates nothing once the call pools are warm — the
// alloc-regression tests in this package pin that.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/stats"
	"github.com/toltiers/toltiers/internal/trace"
)

// Options parameterizes a Dispatcher. The zero value is a sane runtime:
// unlimited per-backend concurrency, hedging enabled at the 95th
// latency percentile.
type Options struct {
	// MaxConcurrentPerBackend caps in-flight invocations per backend
	// (0 = unlimited). Requests beyond the cap queue on the limiter, in
	// arrival order, and honor context cancellation while waiting. A
	// batch dispatched with DoBatch leases one slot per leg for the whole
	// batch; its release hands each slot to the longest waiter and, when
	// one was waiting, yields to it so the lease never sits idle behind
	// the releaser's own work.
	MaxConcurrentPerBackend int
	// DisableHedging turns deadline-aware hedging off: failover tiers
	// always escalate sequentially, deadlines only mark outcomes.
	DisableHedging bool
	// Observer, when set, receives every finished dispatch outcome on
	// the dispatch path itself (drift monitors hang here). It must be
	// fast, allocation-free and safe for concurrent use; nil costs one
	// predictable branch per dispatch.
	Observer Observer
	// Recorder, when set, receives a flight-recorder span per dispatch
	// (leg-level latency attribution, hedge/escalation/degrade flags,
	// admission and coalesce-window context). Span scratch lives in the
	// pooled per-call state, so recording keeps the fast path at zero
	// allocations; nil costs one predictable branch per dispatch.
	Recorder *trace.Recorder
}

// Observer watches the dispatch stream in-line. ObserveOutcome is
// called once per finished dispatch (for Do and per batch item alike,
// on the dispatch path itself, so the enclosing telemetry transaction
// may not have committed yet) with the ticket's tier key and the final
// outcome; the outcome pointer is only valid for the duration of the
// call, so implementations must copy what they keep. ObserveFailure is
// called for a dispatch whose backend legs all failed while the request
// itself was still live — the catastrophic shift a drift monitor most
// needs to see, since such requests carry no outcome to observe.
// Dispatches that died because the *request* went away (a cancelled or
// deadline-expired context, including a batch dying on its limiter
// lease) are counted by telemetry but deliberately never reported here:
// client churn says nothing about the backends. Tickets marked
// Downgraded (brownout traffic running a cheaper tier's policy) are
// likewise withheld, outcome and failure alike — see Ticket.Downgraded.
type Observer interface {
	ObserveOutcome(tier string, o *Outcome)
	ObserveFailure(tier string)
}

// CanaryObserver is the optional extension an Observer implements to
// receive the outcomes of canary-marked tickets (requests served by a
// healed-but-unpromoted rule table) on a separate channel. When the
// configured Observer implements it, a Ticket with Canary set reports
// here INSTEAD of ObserveOutcome/ObserveFailure: canary traffic runs a
// policy the incumbent table did not choose, so folding it into the
// drift detectors would let the trial corrupt the very baselines it is
// being judged against. When the Observer does not implement it, canary
// outcomes are dropped entirely (never misattributed to the incumbent).
// Same contract as Observer: fast, allocation-free, concurrent-safe,
// outcome pointer valid only for the duration of the call.
type CanaryObserver interface {
	ObserveCanaryOutcome(tier string, o *Outcome)
	ObserveCanaryFailure(tier string)
}

// Ticket carries one request's resolved tier through the dispatcher.
type Ticket struct {
	// Tier keys telemetry, canonically "objective/tolerance"
	// (TierKey builds it from a resolved rule; its result is interned,
	// so building it per request is free).
	Tier string
	// Tenant identifies the requesting principal for admission control
	// and QoS accounting ("" = the anonymous default tenant). A named
	// tenant's dispatches additionally fold into that tenant's telemetry
	// partition (see Telemetry); the routing itself never branches on it.
	Tenant string
	// Policy is the tier's routing configuration.
	Policy ensemble.Policy
	// Budget is the per-request deadline on reported response latency
	// (0 = none). A budget both arms the hedging decision and marks
	// DeadlineExceeded on outcomes that overrun it.
	Budget time.Duration
	// Downgraded marks a request the admission layer browned out to a
	// cheaper tier's policy. The dispatch runs normally, but the outcome
	// is withheld from the Observer: brownout traffic executes a policy
	// its tier label did not profile, and feeding its (deliberately
	// degraded) results to the drift detectors would let an overload
	// episode impersonate model drift and fire a spurious re-profile.
	Downgraded bool
	// Canary marks a request routed through a candidate (healed but not
	// yet promoted) rule table. The dispatch runs normally; the outcome
	// reports to the Observer's CanaryObserver extension instead of the
	// regular observer channel so the promotion verdict can compare
	// canary vs incumbent telemetry without cross-contamination. Tickets
	// are comparable, so the flag also keys coalescing: canary and
	// incumbent traffic for the same tier never share a batch window.
	Canary bool
}

// TierKey renders the canonical telemetry key of a tier: byte-identical
// to fmt.Sprintf("%s/%g", objective, tolerance). The result is interned,
// so after the first call for a given pair TierKey is one atomic load
// and one map lookup, allocation-free. The table holds at most
// tierKeyCap pairs; past that, new pairs render without being cached.
func TierKey(objective string, tolerance float64) string {
	id := tierKeyID{objective, math.Float64bits(tolerance)}
	if k, ok := (*tierKeys.Load())[id]; ok {
		return k
	}
	return internTierKey(id, objective, tolerance)
}

// tierKeyCap bounds the interned table: the tiers a node serves number
// in the dozens, and callers rendering arbitrary tolerances must not
// grow memory.
const tierKeyCap = 1024

// tierKeyID keys the table by the tolerance's bits, so NaN, -0 and +0
// each find their own entry (a float64 key would never match NaN).
type tierKeyID struct {
	objective string
	tolerance uint64
}

var (
	// tierKeys is an immutable map, replaced copy-on-write under
	// tierKeysMu; readers take no lock.
	tierKeys   atomic.Pointer[map[tierKeyID]string]
	tierKeysMu sync.Mutex
)

func init() { tierKeys.Store(&map[tierKeyID]string{}) }

// internTierKey renders a missed key and publishes it, unless the table
// is full.
func internTierKey(id tierKeyID, objective string, tolerance float64) string {
	k := fmt.Sprintf("%s/%g", objective, tolerance)
	tierKeysMu.Lock()
	defer tierKeysMu.Unlock()
	old := *tierKeys.Load()
	if prev, ok := old[id]; ok {
		return prev
	}
	if len(old) >= tierKeyCap {
		return k
	}
	next := maps.Clone(old)
	next[id] = k
	tierKeys.Store(&next)
	return k
}

// Outcome is the result of dispatching one request.
type Outcome struct {
	// Result is the returned backend result.
	Result service.Result
	// Err is the result's task error, or NaN when ungraded.
	Err float64
	// Latency is the end-to-end reported response latency, combined
	// across legs with the policy's arithmetic (failover sums, hedges
	// take the max on escalation).
	Latency time.Duration
	// InvCost and IaaSCost account every started invocation, crediting
	// early termination of a cancelled hedge's node time.
	InvCost  float64
	IaaSCost float64
	// Escalated reports the secondary's result was used.
	Escalated bool
	// Hedged reports a deadline-forced hedge: a Failover tier whose
	// secondary was fired before the primary's confidence was known
	// because the budget ruled out sequential escalation. A Concurrent
	// policy firing both legs is its normal behaviour, not a hedge.
	Hedged bool
	// DeadlineExceeded reports Latency overran the ticket's budget.
	DeadlineExceeded bool
	// Started counts backend invocations that began processing
	// (issued to the backend), whether or not they completed.
	Started int
	// Backend names the backend whose result was returned.
	Backend string
}

// Dispatcher executes tier policies against a fixed backend list, where
// backend index i serves version i of the profiled service. It is safe
// for concurrent use.
type Dispatcher struct {
	backends []Backend
	// names caches Backend.Name() per index so hot paths (flight
	// recorder leg capture) skip the interface call.
	names    []string
	sems     []semaphore
	trackers []*stats.Window
	tel      *Telemetry
	obs      Observer
	cobs     CanaryObserver // opts.Observer's canary extension, if any
	rec      *trace.Recorder
	hedging  bool
	// calls pools per-dispatch scratch (telemetry transaction, hedge
	// channel) so the steady-state path allocates nothing.
	calls sync.Pool
}

// HedgeQuantile is the observed-latency quantile the hedging decision
// consults; drift baselines are taken at the same quantile.
const HedgeQuantile = 0.95

// Each backend's latency window: the last trackerWindow observations,
// its quantile refreshed once every trackerRefresh of them, read only
// after trackerMinSamples — a single cold-start outlier must not arm
// (or suppress) hedging for every following request.
const (
	trackerWindow     = 128
	trackerRefresh    = 16
	trackerMinSamples = 8
)

// New builds a dispatcher over the backends.
func New(backends []Backend, opts Options) *Dispatcher {
	d := &Dispatcher{
		backends: backends,
		sems:     make([]semaphore, len(backends)),
		trackers: make([]*stats.Window, len(backends)),
		obs:      opts.Observer,
		rec:      opts.Recorder,
		hedging:  !opts.DisableHedging,
	}
	d.cobs, _ = opts.Observer.(CanaryObserver)
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name()
		d.sems[i] = newSemaphore(opts.MaxConcurrentPerBackend)
		d.trackers[i] = stats.NewWindow(trackerWindow, trackerMinSamples, trackerRefresh, HedgeQuantile)
	}
	d.names = names
	d.tel = newTelemetry(names)
	d.calls.New = func() any {
		return &dispatchCall{d: d, secCh: make(chan hedgeLeg, 1),
			txn: telemetryTxn{backends: make([]backendSums, len(backends))}}
	}
	return d
}

// Snapshot renders the wire view of the telemetry, including the
// per-backend hedging estimates.
func (d *Dispatcher) Snapshot() api.TelemetrySnapshot {
	return d.tel.snapshot(func(i int) float64 { return d.trackers[i].Quantile() })
}

// TenantSnapshot renders one tenant's telemetry partition — what
// GET /telemetry?tenant=... serves.
func (d *Dispatcher) TenantSnapshot(tenant string) api.TenantTelemetry {
	return d.tel.TenantSnapshot(tenant)
}

// P95 returns the observed latency quantile estimate of one backend in
// nanoseconds (NaN until enough observations).
func (d *Dispatcher) P95(backend int) float64 { return d.trackers[backend].Quantile() }

// SetHedgeQuantile swaps one backend's hedging quantile at runtime —
// the drift-aware hedging hook: while a heal is in flight the
// controller raises the quantile of alarmed backends, so the hedging
// decision consults a more pessimistic tail estimate and fires the
// secondary earlier, defending tail latency through the vulnerable
// window. A q outside (0, 1) restores HedgeQuantile. Safe to call
// concurrently with dispatch; out-of-range backend indexes are ignored.
func (d *Dispatcher) SetHedgeQuantile(backend int, q float64) {
	if backend < 0 || backend >= len(d.trackers) {
		return
	}
	d.trackers[backend].SetQuantile(q)
}

// Tracing reports whether a flight recorder is armed — callers that
// must assemble attribution (a coalesce window stamping park times)
// check this to skip the work when nobody is recording.
func (d *Dispatcher) Tracing() bool { return d.rec != nil }

// Recorder returns the armed flight recorder (nil when tracing is off).
func (d *Dispatcher) Recorder() *trace.Recorder { return d.rec }

// Floor returns the minimum latency observed in a backend's sliding
// window, in nanoseconds (NaN until enough observations) — the
// empirical floor deadline-aware admission compares budgets against.
// Every policy's response includes its primary's service time, so a
// budget below Floor(policy.Primary) is provably unmeetable on current
// evidence. It is recomputed by one min pass over the window whenever an
// observation has landed since the last read, never by P95's quantile
// selection.
func (d *Dispatcher) Floor(backend int) float64 { return d.trackers[backend].Min() }

// dispatchCall is the pooled per-dispatch scratch: the summed
// telemetry transaction, the reusable hedge-leg channel, and the
// batch-lease flag. A call serves one Do (or one whole DoBatch) at a
// time; the hedge-leg goroutine is always joined before the call
// returns to the pool.
type dispatchCall struct {
	d      *Dispatcher
	txn    telemetryTxn
	leased bool // limiter slots pre-acquired for the whole batch
	secCh  chan hedgeLeg
	// obsOut stages the outcome handed to the observer: taking the
	// address of run's local outcome for the interface call would make
	// escape analysis heap-allocate it on every dispatch, observer or
	// not, costing the fast path its zero-allocation contract. The call
	// is already pooled, so this field is allocation-free to reuse.
	obsOut Outcome
	// span is the flight-recorder scratch for the in-flight dispatch
	// (one batch item at a time for DoBatch); tcache memoizes the
	// recorder's per-tier tail lookup. Both live here for the same
	// reason as obsOut: pooled storage keeps recording allocation-free.
	span   trace.Span
	tcache trace.Cache
}

// hedgeLeg is one backend leg's answer, handed over the call's channel.
// queueNs travels with it because leg sub-spans are recorded on the
// calling goroutine only — the hedge goroutine must not touch the
// shared span.
type hedgeLeg struct {
	resp    Response
	started bool
	queueNs int64
	err     error
}

// Do dispatches one request through its resolved tier.
func (d *Dispatcher) Do(ctx context.Context, req *service.Request, t Ticket) (Outcome, error) {
	if err := t.Policy.Validate(len(d.backends)); err != nil {
		return Outcome{}, err
	}
	c := d.calls.Get().(*dispatchCall)
	c.txn.reset(t.Tier, t.Tenant)
	c.leased = false
	if d.rec != nil {
		c.span.Reset(t.Tier, t.Tenant, admitCode(t))
	}
	o, err := c.run(ctx, req, t)
	if d.rec != nil {
		c.finishSpan(ctx, &o, err)
	}
	d.tel.commit(&c.txn)
	d.calls.Put(c)
	return o, err
}

// admitCode maps a ticket's admission state onto the span's admit
// decision: the admission layer never lets a shed reach the
// dispatcher, so a dispatched request was either accepted or browned
// out to a cheaper tier.
func admitCode(t Ticket) uint8 {
	if t.Downgraded {
		return trace.AdmitDowngraded
	}
	return trace.AdmitAccepted
}

// finishSpan folds the final outcome into the call's span and hands it
// to the recorder. Only the caller-goroutine touches the span, so the
// hedged path stays race-free by construction.
func (c *dispatchCall) finishSpan(ctx context.Context, o *Outcome, err error) {
	s := &c.span
	if err != nil {
		s.Err = err.Error()
	} else {
		s.LatencyNs = int64(o.Latency)
		s.InvCost = o.InvCost
		s.IaaSCost = o.IaaSCost
		s.Hedged = o.Hedged
		s.Escalated = o.Escalated
		s.DeadlineExceeded = o.DeadlineExceeded
	}
	c.d.rec.Observe(ctx, s, &c.tcache)
}

// claimLeg claims the span's next leg without the claim-time clear
// that the exported trace.Span.Leg performs: both leg writers below
// assign every field, so zeroing first would duffzero 51 dead bytes on
// the hottest path. Callers outside this file must use Span.Leg.
func (c *dispatchCall) claimLeg() *trace.Leg {
	s := &c.span
	if s.NLegs >= trace.MaxLegs {
		return nil
	}
	l := &s.Legs[s.NLegs]
	s.NLegs++
	return l
}

// legSpan appends one executed-leg sub-span when the recorder is
// armed; a nil recorder costs the single branch.
func (c *dispatchCall) legSpan(idx int, queueNs, serviceNs int64, hedge, escalated, cancelled bool, err error) {
	if c.d.rec == nil {
		return
	}
	l := c.claimLeg()
	if l == nil {
		return
	}
	l.Backend = c.d.names[idx]
	l.QueueNs = queueNs
	l.ServiceNs = serviceNs
	l.Hedge, l.Escalated, l.Cancelled = hedge, escalated, cancelled
	if err != nil {
		l.Err = err.Error()
	} else {
		l.Err = ""
	}
}

// legReplay is legSpan for the fused replay batch path, which already
// holds the backend name and never fails a leg.
func (c *dispatchCall) legReplay(name string, serviceNs int64, hedge, escalated bool) {
	if c.d.rec == nil {
		return
	}
	l := c.claimLeg()
	if l == nil {
		return
	}
	l.Backend = name
	l.QueueNs = 0
	l.ServiceNs = serviceNs
	l.Hedge, l.Escalated, l.Cancelled = hedge, escalated, false
	l.Err = ""
}

// run executes one request's policy and folds the result into the
// call's telemetry transaction (committed by the caller).
func (c *dispatchCall) run(ctx context.Context, req *service.Request, t Ticket) (Outcome, error) {
	p := t.Policy
	var (
		o   Outcome
		err error
	)
	switch p.Kind {
	case ensemble.Single:
		o, err = c.doSingle(ctx, req, p)
	case ensemble.Concurrent:
		o, err = c.doHedged(ctx, req, p, false)
	case ensemble.Failover:
		if c.d.shouldHedge(p, t.Budget) {
			o, err = c.doHedged(ctx, req, p, true)
		} else {
			o, err = c.doFailover(ctx, req, p)
		}
	default:
		err = fmt.Errorf("dispatch: unknown policy kind %d", p.Kind)
	}
	if err != nil {
		c.txn.addFailure()
		// A dispatch that died because the *request* went away (client
		// disconnect, deadline) says nothing about the backends: feeding
		// it to a drift monitor as a failure would let routine
		// cancellation churn impersonate a backend outage.
		if ctx.Err() == nil && !t.Downgraded {
			if t.Canary {
				if c.d.cobs != nil {
					c.d.cobs.ObserveCanaryFailure(t.Tier)
				}
			} else if c.d.obs != nil {
				c.d.obs.ObserveFailure(t.Tier)
			}
		}
		return Outcome{}, err
	}
	if t.Budget > 0 && o.Latency > t.Budget {
		o.DeadlineExceeded = true
	}
	c.txn.addOutcome(&o)
	if !t.Downgraded {
		if t.Canary {
			if c.d.cobs != nil {
				c.obsOut = o
				c.d.cobs.ObserveCanaryOutcome(t.Tier, &c.obsOut)
			}
		} else if c.d.obs != nil {
			c.obsOut = o
			c.d.obs.ObserveOutcome(t.Tier, &c.obsOut)
		}
	}
	return o, nil
}

// shouldHedge decides whether a failover tier's secondary must be fired
// early: the request carries a deadline and the observed latency
// quantiles say the sequential path (primary, then secondary on
// escalation) would not make it. Until both backends have latency
// history the dispatcher stays sequential. Both estimates are single
// atomic loads.
func (d *Dispatcher) shouldHedge(p ensemble.Policy, budget time.Duration) bool {
	if !d.hedging || budget <= 0 {
		return false
	}
	pp := d.trackers[p.Primary].Quantile()
	sp := d.trackers[p.Secondary].Quantile()
	if math.IsNaN(pp) || math.IsNaN(sp) {
		return false
	}
	return pp+sp > float64(budget)
}

// instant reports whether a backend completes without occupying
// wall-clock time (a replay backend without SleepScale): firing its leg
// on a separate goroutine buys nothing, so the dispatcher runs it
// inline with identical arithmetic.
func instant(b Backend) bool {
	ib, ok := b.(interface{ Instant() bool })
	return ok && ib.Instant()
}

// invoke runs one backend leg under its concurrency limiter and feeds
// the latency tracker. started reports whether the backend was actually
// issued the request (false when the leg died queued on the limiter) —
// billing and Started accounting key off it. Billing itself is recorded
// by the caller once final amounts (e.g. a cancelled hedge's pro-rated
// node time) are known. A leased call (DoBatch) holds its limiter slots
// for the whole batch and skips the per-invocation acquire. queueNs is
// the limiter wait attributed to the leg's flight-recorder sub-span;
// it is measured only when a recorder is armed AND the backend is
// actually capped, so the uncapped fast path never reads the clock.
func (c *dispatchCall) invoke(ctx context.Context, idx int, req *service.Request) (resp Response, started bool, queueNs int64, err error) {
	d := c.d
	if !c.leased {
		if d.rec != nil && d.sems[idx] != nil {
			t0 := time.Now()
			err := d.sems[idx].acquire(ctx)
			queueNs = int64(time.Since(t0))
			if err != nil {
				return Response{}, false, queueNs, err
			}
		} else if err := d.sems[idx].acquire(ctx); err != nil {
			return Response{}, false, 0, err
		}
	}
	resp, err = d.backends[idx].Invoke(ctx, req)
	if !c.leased {
		d.sems[idx].release()
	}
	if err != nil {
		return Response{}, true, queueNs, fmt.Errorf("dispatch: backend %s: %w", d.backends[idx].Name(), err)
	}
	d.trackers[idx].Add(float64(resp.Result.Latency))
	return resp, true, queueNs, nil
}

// invokeLeg runs one hedge leg and hands the answer over the call's
// channel. It is a plain function so spawning it allocates no closure.
// It must never touch the call's span — leg sub-spans are recorded by
// the caller goroutine from the handed-over hedgeLeg.
func invokeLeg(c *dispatchCall, ctx context.Context, idx int, req *service.Request) {
	r, started, q, err := c.invoke(ctx, idx, req)
	c.secCh <- hedgeLeg{r, started, q, err}
}

// soloOutcome assembles an outcome answered by one leg's response.
func (d *Dispatcher) soloOutcome(r Response, idx int, escalated, hedged bool) Outcome {
	return Outcome{
		Result:    r.Result,
		Err:       r.Err,
		Latency:   r.Result.Latency,
		InvCost:   r.InvCost,
		IaaSCost:  r.IaaSCost,
		Escalated: escalated,
		Hedged:    hedged,
		Started:   1,
		Backend:   d.backends[idx].Name(),
	}
}

// escalatedOutcome assembles the two-leg escalated outcome: the
// secondary's result unless PickBest keeps the more confident primary.
// lat is the policy's combined latency — the legs' sum for sequential
// failover, their max for hedged execution.
func (d *Dispatcher) escalatedOutcome(p ensemble.Policy, pr, sr Response, lat time.Duration, hedged bool) Outcome {
	chosen, chosenErr, backend := sr.Result, sr.Err, p.Secondary
	if p.PickBest && pr.Result.Confidence > sr.Result.Confidence {
		chosen, chosenErr, backend = pr.Result, pr.Err, p.Primary
	}
	return Outcome{
		Result:    chosen,
		Err:       chosenErr,
		Latency:   lat,
		InvCost:   pr.InvCost + sr.InvCost,
		IaaSCost:  pr.IaaSCost + sr.IaaSCost,
		Escalated: true,
		Hedged:    hedged,
		Started:   2,
		Backend:   d.backends[backend].Name(),
	}
}

func (c *dispatchCall) doSingle(ctx context.Context, req *service.Request, p ensemble.Policy) (Outcome, error) {
	r, _, q, err := c.invoke(ctx, p.Primary, req)
	if err != nil {
		c.legSpan(p.Primary, q, 0, false, false, false, err)
		return Outcome{}, err
	}
	c.txn.addInvocation(p.Primary, r.Result.Latency, r.InvCost, r.IaaSCost)
	c.legSpan(p.Primary, q, int64(r.Result.Latency), false, false, false, nil)
	return c.d.soloOutcome(r, p.Primary, false, false), nil
}

// doFailover is the sequential path: primary first, secondary only when
// the primary's live confidence misses the threshold. A failed primary
// escalates unconditionally (the tier contract outranks the latency
// saving); a failed escalation degrades to the primary's low-confidence
// result rather than failing the request.
func (c *dispatchCall) doFailover(ctx context.Context, req *service.Request, p ensemble.Policy) (Outcome, error) {
	d := c.d
	pr, pstarted, pq, perr := c.invoke(ctx, p.Primary, req)
	if perr != nil {
		c.legSpan(p.Primary, pq, 0, false, false, false, perr)
		sr, _, sq, serr := c.invoke(ctx, p.Secondary, req)
		if serr != nil {
			c.legSpan(p.Secondary, sq, 0, false, true, false, serr)
			return Outcome{}, fmt.Errorf("dispatch: primary failed (%v); secondary failed: %w", perr, serr)
		}
		c.txn.addInvocation(p.Secondary, sr.Result.Latency, sr.InvCost, sr.IaaSCost)
		c.legSpan(p.Secondary, sq, int64(sr.Result.Latency), false, true, false, nil)
		o := d.soloOutcome(sr, p.Secondary, true, false)
		if pstarted {
			o.Started = 2
		}
		return o, nil
	}
	c.txn.addInvocation(p.Primary, pr.Result.Latency, pr.InvCost, pr.IaaSCost)
	c.legSpan(p.Primary, pq, int64(pr.Result.Latency), false, false, false, nil)
	if pr.Result.Confidence >= p.Threshold {
		return d.soloOutcome(pr, p.Primary, false, false), nil
	}
	sr, _, sq, serr := c.invoke(ctx, p.Secondary, req)
	if serr != nil {
		if ctx.Err() != nil {
			// The request itself was cancelled mid-escalation; propagate
			// rather than degrading (and do not blame the backend).
			return Outcome{}, serr
		}
		c.txn.addEscalationFailure()
		c.span.Degraded = true
		c.legSpan(p.Secondary, sq, 0, false, true, false, serr)
		return d.soloOutcome(pr, p.Primary, false, false), nil
	}
	c.txn.addInvocation(p.Secondary, sr.Result.Latency, sr.InvCost, sr.IaaSCost)
	c.legSpan(p.Secondary, sq, int64(sr.Result.Latency), false, true, false, nil)
	return d.escalatedOutcome(p, pr, sr, pr.Result.Latency+sr.Result.Latency, false), nil
}

// doHedged fires both legs at once — the Concurrent policy kind, and a
// failover tier whose deadline forced a hedge.
//
// For the Concurrent policy kind the dispatcher waits for both legs,
// like Policy.Execute: the outcome's accounting (including the early
// termination credit that bills a cancelled secondary's node pro rata
// for min(latencies)) replays Policy.Simulate's arithmetic exactly,
// which the replay-convergence tests pin.
//
// A deadline-forced hedge additionally *cancels* the secondary's
// context the moment the primary returns confident, so a wall-clock
// backend (a sleeping replay, a queued limiter slot) stops occupying
// its node instead of stretching the response to max(latencies) — the
// entire point of hedging under a budget. A secondary that aborts on
// that cancel before producing a result is billed from its plan for
// the primary's service time; hedge outcomes have no offline
// counterpart (the failover tier predicts sequential execution), so no
// bit-exactness contract is broken.
//
// An instant secondary (replay without wall-clock occupancy) is run
// inline on the calling goroutine: there is no wall time to overlap and
// nothing a cancel could terminate early, so the goroutine, channel
// handoff and cancelable context would be pure overhead on the hottest
// replay path. The combination arithmetic is shared, so outcomes are
// bit-identical either way.
func (c *dispatchCall) doHedged(ctx context.Context, req *service.Request, p ensemble.Policy, deadlineHedge bool) (Outcome, error) {
	if instant(c.d.backends[p.Secondary]) {
		sr, sstarted, sq, serr := c.invoke(ctx, p.Secondary, req)
		pr, pstarted, pq, perr := c.invoke(ctx, p.Primary, req)
		return c.combineHedged(ctx, p, pr, pstarted, pq, perr, hedgeLeg{sr, sstarted, sq, serr}, deadlineHedge, false)
	}
	secCtx := ctx
	var secCancel context.CancelFunc
	if deadlineHedge {
		// Only a deadline hedge ever cancels its secondary, so only it
		// pays for a cancelable context.
		secCtx, secCancel = context.WithCancel(ctx)
		defer secCancel()
	}
	go invokeLeg(c, secCtx, p.Secondary, req)
	pr, pstarted, pq, perr := c.invoke(ctx, p.Primary, req)
	confident := perr == nil && pr.Result.Confidence >= p.Threshold
	if deadlineHedge && confident {
		// The primary's confident result terminates the hedge early.
		secCancel()
	}
	sl := <-c.secCh
	cancelled := deadlineHedge && confident &&
		sl.err != nil && errors.Is(sl.err, context.Canceled) && ctx.Err() == nil
	return c.combineHedged(ctx, p, pr, pstarted, pq, perr, sl, deadlineHedge, cancelled)
}

// proRataIaaS is the early-termination credit of a confident primary:
// the secondary's node was busy for min(latencies), so its IaaS cost is
// billed pro rata — the same float64 operations, in the same order, as
// Policy.Simulate's Concurrent branch. It is the single home of this
// arithmetic, shared by the goroutine, inline and fused-batch paths (a
// divergence between copies would break the bit-identical-outcomes
// contract).
func proRataIaaS(pLat, sLat time.Duration, sIaaS float64) float64 {
	cancelled := sLat
	if pLat < cancelled {
		cancelled = pLat
	}
	den := sLat
	if den < 1 {
		den = 1
	}
	return sIaaS * float64(cancelled) / float64(den)
}

// combineHedged folds the two legs of a hedged execution into one
// outcome — shared by the goroutine path and the inline instant path.
// cancelled marks a secondary that aborted on the hedge's own cancel
// before producing a result.
func (c *dispatchCall) combineHedged(ctx context.Context, p ensemble.Policy, pr Response, pstarted bool, pq int64, perr error, sl hedgeLeg, deadlineHedge, cancelled bool) (Outcome, error) {
	d := c.d
	if cancelled {
		// The secondary aborted on our cancel before producing a result.
		// If the backend had actually started processing it is billed
		// from its plan, its node busy for at most the primary's service
		// time; a leg that died queued on the limiter never reached the
		// backend and costs nothing.
		c.txn.addInvocation(p.Primary, pr.Result.Latency, pr.InvCost, pr.IaaSCost)
		c.legSpan(p.Primary, pq, int64(pr.Result.Latency), false, false, false, nil)
		o := d.soloOutcome(pr, p.Primary, false, true)
		if sl.started {
			secPlan := d.backends[p.Secondary].Plan()
			secInv := secPlan.InvocationCost()
			secIaaS := secPlan.IaaSCost(pr.Result.Latency)
			c.txn.addBilled(p.Secondary, secInv, secIaaS)
			c.legSpan(p.Secondary, sl.queueNs, int64(pr.Result.Latency), true, false, true, nil)
			o.InvCost += secInv
			o.IaaSCost += secIaaS
			o.Started = 2
		}
		return o, nil
	}
	switch {
	case perr != nil && sl.err != nil:
		c.legSpan(p.Primary, pq, 0, false, false, false, perr)
		c.legSpan(p.Secondary, sl.queueNs, 0, deadlineHedge, false, false, sl.err)
		return Outcome{}, fmt.Errorf("dispatch: primary failed (%v); secondary failed: %w", perr, sl.err)
	case perr != nil:
		sr := sl.resp
		c.legSpan(p.Primary, pq, 0, false, false, false, perr)
		c.txn.addInvocation(p.Secondary, sr.Result.Latency, sr.InvCost, sr.IaaSCost)
		c.legSpan(p.Secondary, sl.queueNs, int64(sr.Result.Latency), deadlineHedge, true, false, nil)
		o := d.soloOutcome(sr, p.Secondary, true, deadlineHedge)
		if pstarted {
			o.Started = 2
		}
		return o, nil
	case sl.err != nil:
		if ctx.Err() != nil {
			// The request itself was cancelled; propagate rather than
			// degrading (and do not blame the backend).
			return Outcome{}, sl.err
		}
		c.txn.addEscalationFailure()
		c.span.Degraded = true
		c.txn.addInvocation(p.Primary, pr.Result.Latency, pr.InvCost, pr.IaaSCost)
		c.legSpan(p.Primary, pq, int64(pr.Result.Latency), false, false, false, nil)
		c.legSpan(p.Secondary, sl.queueNs, 0, deadlineHedge, true, false, sl.err)
		o := d.soloOutcome(pr, p.Primary, false, deadlineHedge)
		if sl.started {
			o.Started = 2
		}
		return o, nil
	}
	sr := sl.resp
	c.txn.addInvocation(p.Primary, pr.Result.Latency, pr.InvCost, pr.IaaSCost)
	c.legSpan(p.Primary, pq, int64(pr.Result.Latency), false, false, false, nil)
	if pr.Result.Confidence >= p.Threshold {
		partialIaaS := proRataIaaS(pr.Result.Latency, sr.Result.Latency, sr.IaaSCost)
		c.txn.addInvocation(p.Secondary, sr.Result.Latency, sr.InvCost, partialIaaS)
		c.legSpan(p.Secondary, sl.queueNs, int64(sr.Result.Latency), deadlineHedge, false, false, nil)
		return Outcome{
			Result:   pr.Result,
			Err:      pr.Err,
			Latency:  pr.Result.Latency,
			InvCost:  pr.InvCost + sr.InvCost,
			IaaSCost: pr.IaaSCost + partialIaaS,
			Hedged:   deadlineHedge,
			Started:  2,
			Backend:  d.backends[p.Primary].Name(),
		}, nil
	}
	c.txn.addInvocation(p.Secondary, sr.Result.Latency, sr.InvCost, sr.IaaSCost)
	c.legSpan(p.Secondary, sl.queueNs, int64(sr.Result.Latency), deadlineHedge, true, false, nil)
	lat := pr.Result.Latency
	if sr.Result.Latency > lat {
		lat = sr.Result.Latency
	}
	return d.escalatedOutcome(p, pr, sr, lat, deadlineHedge), nil
}
