package dispatch

import (
	"context"
	"runtime"
	"time"

	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/trace"
)

// DoBatch dispatches a batch of requests through one resolved tier,
// amortizing the per-request runtime costs: the policy is validated and
// decoded once, limiter slots are leased once per leg for the whole
// batch, and the telemetry transaction commits once under a single
// shard lock instead of once per request. When every leg is served by
// an instant replay backend the batch additionally runs a fused loop
// that streams items straight off the profile-matrix columns — the
// batch counterpart of the ensemble.Evaluator kernel — instead of
// re-deciding the policy shape per request.
//
// Per-item semantics are exactly Do's: outs[i] and errs[i] are what
// Do(ctx, reqs[i], t) would have produced (bit-identical outcomes, the
// batch-convergence tests pin this), items after a failed item still
// run, and per-item failures count as telemetry failures. The returned
// error is batch-level only — a ticket whose policy does not validate,
// or a context that dies while leasing limiter slots — and means no
// item ran.
//
// outs and errs are optional reuse buffers (appended from length zero),
// so a steady-state caller allocates nothing.
func (d *Dispatcher) DoBatch(ctx context.Context, reqs []*service.Request, t Ticket, outs []Outcome, errs []error) ([]Outcome, []error, error) {
	outs, errs = outs[:0], errs[:0]
	p := t.Policy
	if err := p.Validate(len(d.backends)); err != nil {
		return outs, errs, err
	}
	if len(reqs) == 0 {
		return outs, errs, nil
	}
	c := d.calls.Get().(*dispatchCall)
	c.txn.reset(t.Tier, t.Tenant)
	lo, hi, err := d.leaseBatch(ctx, p)
	if err != nil {
		// A batch that dies on the limiter lease counts every item as a
		// failed request, exactly as the same items issued through Do
		// would have (each failing its own limiter acquire). The lease
		// only fails through context death — the client's doing, not the
		// backends' — so the drift observer is deliberately not told.
		for range reqs {
			c.txn.addFailure()
		}
		d.tel.commit(&c.txn)
		d.calls.Put(c)
		return outs, errs, err
	}
	c.leased = true
	// Batch attribution (coalesce window id, per-item park times and
	// caller trace ids) rides the context; it is only consulted when a
	// recorder is armed, so the recorder-off batch path never pays the
	// context lookup.
	var bm *trace.BatchMeta
	if d.rec != nil {
		bm = trace.BatchFromContext(ctx)
	}
	if pri, sec, ok := d.replayLegs(p); ok {
		for i, req := range reqs {
			if d.rec != nil {
				c.beginBatchSpan(t, bm, i)
			}
			outs = append(outs, Outcome{})
			errs = append(errs, c.runReplay(ctx, req, t, pri, sec, &outs[len(outs)-1]))
			if d.rec != nil {
				c.finishSpan(ctx, &outs[i], errs[i])
			}
		}
	} else {
		for i, req := range reqs {
			if d.rec != nil {
				c.beginBatchSpan(t, bm, i)
			}
			o, err := c.run(ctx, req, t)
			outs = append(outs, o)
			errs = append(errs, err)
			if d.rec != nil {
				c.finishSpan(ctx, &outs[i], errs[i])
			}
		}
	}
	d.tel.commit(&c.txn)
	c.leased = false
	d.calls.Put(c)
	d.releaseBatch(lo, hi)
	return outs, errs, nil
}

// leaseBatch acquires one limiter slot per backend leg the policy can
// touch, in ascending backend order (a fixed order across concurrent
// batches, so two batches can never deadlock holding each other's
// leg). The whole batch then runs inside the lease: with a concurrency
// cap configured, a batch occupies one in-flight unit per leg, not one
// per item. It returns the legs it leased (hi < 0 for a single leg),
// which releaseBatch hands back.
func (d *Dispatcher) leaseBatch(ctx context.Context, p ensemble.Policy) (lo, hi int, err error) {
	lo, hi = p.Primary, -1
	if p.Kind != ensemble.Single {
		hi = p.Secondary
		if hi < lo {
			lo, hi = hi, lo
		}
	}
	if err := d.sems[lo].acquire(ctx); err != nil {
		return lo, hi, err
	}
	if hi >= 0 {
		if err := d.sems[hi].acquire(ctx); err != nil {
			d.sems[lo].release()
			return lo, hi, err
		}
	}
	return lo, hi, nil
}

// releaseBatch returns the limiter slots leaseBatch took. When a
// release handed a slot to a parked batch, the releaser yields once,
// after every leg is back: the woken holder sits in this P's runnext,
// and the releaser's own window deliveries would otherwise keep it
// there, its lease idle, until the releaser parks. The yield is the
// hand-off the runtime itself makes for a starving sync.Mutex.
func (d *Dispatcher) releaseBatch(lo, hi int) {
	handedOff := d.sems[lo].release()
	if hi >= 0 && d.sems[hi].release() {
		handedOff = true
	}
	if handedOff {
		runtime.Gosched()
	}
}

// beginBatchSpan resets the call's span for one batch item and applies
// the batch attribution a coalesce flush shipped through the context.
func (c *dispatchCall) beginBatchSpan(t Ticket, bm *trace.BatchMeta, i int) {
	c.span.Reset(t.Tier, t.Tenant, admitCode(t))
	if bm == nil {
		return
	}
	c.span.Window = bm.Window
	if i < len(bm.Park) {
		c.span.ParkNs = bm.Park[i]
	}
	if i < len(bm.IDs) {
		c.span.ID = bm.IDs[i]
	}
}

// replayLegs reports whether every leg the policy can touch is an
// instant replay backend — the precondition of the fused batch loop.
func (d *Dispatcher) replayLegs(p ensemble.Policy) (pri, sec *ReplayBackend, ok bool) {
	pri, ok = d.backends[p.Primary].(*ReplayBackend)
	if !ok || !pri.Instant() {
		return nil, nil, false
	}
	if p.Kind == ensemble.Single {
		return pri, nil, true
	}
	sec, ok = d.backends[p.Secondary].(*ReplayBackend)
	if !ok || !sec.Instant() {
		return nil, nil, false
	}
	return pri, sec, true
}

// runReplay is the fused per-item step of a replay batch: it reads the
// request's cells directly from the matrix columns and combines them —
// in place in the caller's outcome slot, sparing two struct copies per
// item — with the same float64 operations as the invoke-based paths
// (which the batch equivalence tests pin item by item), skipping the
// per-request policy decode, interface dispatch and response copying.
// Items the fused path cannot serve — a request ID outside the replay
// corpus, a dead context — fall back to the general path, which
// produces the identical error and accounting by construction.
func (c *dispatchCall) runReplay(ctx context.Context, req *service.Request, t Ticket, pri, sec *ReplayBackend, o *Outcome) error {
	d := c.d
	p := t.Policy
	prow, ok := pri.row(req.ID)
	if !ok || ctx.Err() != nil {
		var err error
		*o, err = c.run(ctx, req, t)
		return err
	}
	pk := pri.m.Index(prow, pri.version)
	pLat := time.Duration(pri.m.LatencyNs[pk])
	pConf := pri.m.Confidence[pk]
	d.trackers[p.Primary].Add(float64(pLat))

	switch {
	case p.Kind == ensemble.Single:
		replaySolo(pri, pk, pLat, pConf, o)
		c.txn.addInvocation(p.Primary, pLat, o.InvCost, o.IaaSCost)
		c.legReplay(pri.name, int64(pLat), false, false)

	case p.Kind == ensemble.Failover && !d.shouldHedge(p, t.Budget):
		// Sequential failover: primary first, secondary only when the
		// primary's confidence misses the threshold.
		if pConf >= p.Threshold {
			replaySolo(pri, pk, pLat, pConf, o)
			c.txn.addInvocation(p.Primary, pLat, o.InvCost, o.IaaSCost)
			c.legReplay(pri.name, int64(pLat), false, false)
			break
		}
		// The secondary's row is resolved before anything lands in the
		// transaction, so a fallback to the general path never
		// double-counts telemetry (the primary's tracker sample is the
		// one tolerated duplicate; the tracker window is statistical).
		srow, ok := sec.row(req.ID)
		if !ok {
			var err error
			*o, err = c.run(ctx, req, t)
			return err
		}
		c.txn.addInvocation(p.Primary, pLat, pri.m.InvCost[pk], pri.m.IaaSCost[pk])
		c.legReplay(pri.name, int64(pLat), false, false)
		sk := sec.m.Index(srow, sec.version)
		sLat := time.Duration(sec.m.LatencyNs[sk])
		d.trackers[p.Secondary].Add(float64(sLat))
		c.txn.addInvocation(p.Secondary, sLat, sec.m.InvCost[sk], sec.m.IaaSCost[sk])
		c.legReplay(sec.name, int64(sLat), false, true)
		c.replayEscalated(p, pri, pk, pLat, pConf, sec, sk, sLat, pLat+sLat, false, o)

	default:
		// Both legs fire: the Concurrent policy kind, or a failover tier
		// whose deadline forced a hedge. Instant legs complete inline;
		// the combination arithmetic is combineHedged's.
		hedged := p.Kind == ensemble.Failover
		srow, ok := sec.row(req.ID)
		if !ok {
			var err error
			*o, err = c.run(ctx, req, t)
			return err
		}
		sk := sec.m.Index(srow, sec.version)
		sLat := time.Duration(sec.m.LatencyNs[sk])
		d.trackers[p.Secondary].Add(float64(sLat))
		c.txn.addInvocation(p.Primary, pLat, pri.m.InvCost[pk], pri.m.IaaSCost[pk])
		c.legReplay(pri.name, int64(pLat), false, false)
		if pConf >= p.Threshold {
			partialIaaS := proRataIaaS(pLat, sLat, sec.m.IaaSCost[sk])
			c.txn.addInvocation(p.Secondary, sLat, sec.m.InvCost[sk], partialIaaS)
			c.legReplay(sec.name, int64(sLat), hedged, false)
			// The confident primary's solo outcome, plus the hedged
			// secondary's bill (same addition order as Do's combineHedged).
			replaySolo(pri, pk, pLat, pConf, o)
			o.InvCost += sec.m.InvCost[sk]
			o.IaaSCost += partialIaaS
			o.Hedged = hedged
			o.Started = 2
			break
		}
		c.txn.addInvocation(p.Secondary, sLat, sec.m.InvCost[sk], sec.m.IaaSCost[sk])
		c.legReplay(sec.name, int64(sLat), hedged, true)
		lat := pLat
		if sLat > lat {
			lat = sLat
		}
		c.replayEscalated(p, pri, pk, pLat, pConf, sec, sk, sLat, lat, hedged, o)
	}

	if t.Budget > 0 && o.Latency > t.Budget {
		o.DeadlineExceeded = true
	}
	c.txn.addOutcome(o)
	if !t.Downgraded {
		if t.Canary {
			if d.cobs != nil {
				d.cobs.ObserveCanaryOutcome(t.Tier, o)
			}
		} else if d.obs != nil {
			d.obs.ObserveOutcome(t.Tier, o)
		}
	}
	return nil
}

// replaySolo assembles the fused outcome answered by the primary's
// cell alone — the one-leg counterpart of replayEscalated, shared by
// the Single, confident-failover and confident-hedge branches so the
// bit-identical arithmetic lives in one place.
func replaySolo(pri *ReplayBackend, pk int, pLat time.Duration, pConf float64, o *Outcome) {
	o.Result = service.Result{Class: -1, Confidence: pConf, Latency: pLat}
	o.Err = pri.m.Err[pk]
	o.Latency = pLat
	o.InvCost = pri.m.InvCost[pk]
	o.IaaSCost = pri.m.IaaSCost[pk]
	o.Started = 1
	o.Backend = pri.name
}

// replayEscalated assembles the fused two-leg escalated outcome in
// place: the secondary's result unless PickBest keeps the more
// confident primary (escalatedOutcome's arithmetic over matrix cells).
func (c *dispatchCall) replayEscalated(p ensemble.Policy, pri *ReplayBackend, pk int, pLat time.Duration, pConf float64,
	sec *ReplayBackend, sk int, sLat time.Duration, lat time.Duration, hedged bool, o *Outcome) {
	conf, errv, latency, name := sec.m.Confidence[sk], sec.m.Err[sk], sLat, sec.name
	if p.PickBest && pConf > sec.m.Confidence[sk] {
		conf, errv, latency, name = pConf, pri.m.Err[pk], pLat, pri.name
	}
	o.Result = service.Result{Class: -1, Confidence: conf, Latency: latency}
	o.Err = errv
	o.Latency = lat
	o.InvCost = pri.m.InvCost[pk] + sec.m.InvCost[sk]
	o.IaaSCost = pri.m.IaaSCost[pk] + sec.m.IaaSCost[sk]
	o.Escalated = true
	o.Hedged = hedged
	o.Started = 2
	o.Backend = name
}
