package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime/metrics"
	"time"
)

// The traced pass: a closed phase, the same phase with a span around
// every call, the paced (open-loop) phase, then the replay of a seeded
// sample one request at a time with a span around the call into each
// layer. Counters are read around the three timed phases; span medians
// come from the replay.

// Paced rates, calls per second: fixed per workload, well under what the
// closed loop sustains, so the schedule is kept and the latency is the
// latency of a lightly loaded node.
var pacedRate = map[string]float64{wlDirectSingle: 3000, wlDirectBatch: 400, wlFleetSingle: 1800}

// counters is every exported counter the per-layer ratios are made of,
// summed over the nodes that answer requests.
type counters struct {
	disp   dispatchCounters
	adm    admitCounters
	coal   coalesceCounters
	tr     traceCounters
	fleet  fleetCounters
	events int
}

func (b *bench) readCounters() counters {
	var c counters
	for _, d := range b.n.dispatchers() {
		x := readDispatch(d)
		c.disp.requests += x.requests
		c.disp.failures += x.failures
		c.disp.escalations += x.escalations
		c.disp.hedges += x.hedges
	}
	addLayers := func(a *Controller, co *Coalescer, r *Recorder, m *Monitor) {
		x := readAdmit(a)
		c.adm.admitted += x.admitted
		c.adm.shed += x.shed
		c.adm.downgraded += x.downgraded
		y := readCoalesce(co)
		c.coal.bypassed += y.bypassed
		c.coal.coalesced += y.coalesced
		c.coal.windows += y.windows
		c.coal.sizeFlushes += y.sizeFlushes
		c.coal.shed += y.shed
		z := readTrace(r)
		c.tr.dispatches += z.dispatches
		c.tr.committed += z.committed
		c.events += driftEvents(m)
	}
	if e := b.n.emb; e != nil {
		addLayers(e.adm, e.coal, e.rec, e.mon)
		return c
	}
	for _, s := range b.n.servers() {
		addLayers(nodeAdmission(s), nodeCoalescer(s), nodeRecorder(s), nodeMonitor(s))
	}
	if pool := nodePool(b.n.front.srv); pool != nil {
		c.fleet = readFleet(pool)
	}
	return c
}

// gcRead is the runtime's GC accounting at one instant.
type gcRead struct {
	pauses *metrics.Float64Histogram
	gcCPU  float64
	cpu    time.Duration
}

func readGC() gcRead {
	ms := []metrics.Sample{{Name: "/gc/pauses:seconds"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(ms)
	h := ms[0].Value.Float64Histogram()
	return gcRead{
		pauses: &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets},
		gcCPU:  ms[1].Value.Float64(),
		cpu:    processCPU(),
	}
}

// pauseP99US is the 99th percentile (bucket upper bound) of the GC
// pauses between two reads, in microseconds.
func pauseP99US(a, b gcRead) float64 {
	var total uint64
	delta := make([]uint64, len(b.pauses.Counts))
	for i := range delta {
		delta[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank, seen := uint64(math.Ceil(0.99*float64(total))), uint64(0)
	for i, n := range delta {
		if seen += n; seen >= rank {
			if ub := b.pauses.Buckets[i+1]; !math.IsInf(ub, 1) {
				return ub * 1e6
			}
			return b.pauses.Buckets[i] * 1e6
		}
	}
	return 0
}

// tracedRun carries what the traced pass accumulates for its metrics.
type tracedRun struct {
	b            *bench
	closedA      *phase
	closedB      *phase
	paced        *phase
	c0, c1       counters
	gc0, gc1     gcRead
	cpuPerOpA    float64
	null         *listener // the canned-200 server (socket workloads)
	nullCPUPerOp float64
	bufs         []*spanBuf
	d            *durations
	decodeAllocs float64
	hAllocs      float64
	hBytes       float64
	snapBytes    float64
	stateEncMS   float64
	stateDecMS   float64
	traces       int
}

// spanBudget is the number of calls of the spanned closed phase that
// carry a span.
const spanBudget = 100_000

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func (b *bench) traced() (*result, error) {
	S := b.cfg.seconds
	closedDur := secondsDur(math.Max(0.2*S, math.Min(S, 1)))
	pacedDur := secondsDur(math.Max(0.3*S, math.Min(S, 1)))
	nullDur := secondsDur(math.Max(0.05*S, 0.25))
	t := &tracedRun{b: b}

	rate, err := b.warmUp()
	if err != nil {
		return nil, err
	}
	t.c0, t.gc0 = b.readCounters(), readGC()
	cpu0 := processCPU()
	if t.closedA, err = b.timedClosed(closedDur, 4, rate); err != nil {
		return nil, err
	}
	t.cpuPerOpA = float64(processCPU()-cpu0) / 1e3 / math.Max(1, float64(t.closedA.led.okItems))

	base := time.Now()
	// At most spanBudget calls of the phase carry a span, spread evenly
	// over the senders: every call on the socket workloads, a systematic
	// sample on the embedded one.
	perSender := spanBudget / len(b.senders)
	stride := int64(math.Ceil(rate * closedDur.Seconds() / float64(spanBudget)))
	for i, s := range b.senders {
		s.spans, s.spanStride = newSpanBuf(base, uint32(i+1)<<24, 4*perSender), max(1, stride)
	}
	t.closedB, err = b.timedClosed(closedDur, 4, rate)
	for _, s := range b.senders {
		t.bufs = append(t.bufs, s.spans)
		s.spans = nil
	}
	if err != nil {
		return nil, err
	}
	if b.socket() {
		before := b.n.dispatched()
		t.paced = pacedLoop(b.st, b.senders, b.issue, pacedDur, pacedRate[b.cfg.workload], b.cfg.seed)
		if err := t.paced.led.balance(b.n.dispatched() - before); err != nil {
			return nil, err
		}
		if t.paced.behind > b.cfg.maxBehind() {
			return nil, fmt.Errorf("paced generator ran %.1f%% behind its schedule", 100*t.paced.behind)
		}
	}
	t.c1, t.gc1 = b.readCounters(), readGC()
	if err := b.quiet(); err != nil {
		return nil, err
	}
	led := t.ledger()
	res := &result{workload: b.cfg.workload, trace: true, attempted: led.sent, failed: led.bad()}
	if res.failed > 0 {
		return res, fmt.Errorf("%d of %d calls failed (mismatched %d, refused %d, failed %d): %s",
			res.failed, res.attempted, led.mismatched, led.refused, led.failed,
			firstNonEmpty(t.closedA.firstBad, t.closedB.firstBad, t.pacedBad()))
	}

	replay := newSpanBuf(base, 0x7f<<24, 16*replayN)
	t.bufs = append(t.bufs, replay)
	before := b.n.dispatched()
	if b.socket() {
		// The canned-200 server answers with a typical answer's bytes; the
		// null loop and the replay's floor both talk to it.
		if t.null, err = nullServer(append(bytes.Clone(b.o.raw[0]), '\n')); err != nil {
			return nil, err
		}
		defer t.null.close()
		if err := t.nullLoop(nullDur); err != nil {
			return nil, err
		}
	}
	if err := t.replay(replay); err != nil {
		return nil, err
	}
	if got := b.n.dispatched() - before; got != b.replayed {
		return nil, fmt.Errorf("ledger: the replay made %d dispatches, the node's dispatchers counted %d", b.replayed, got)
	}
	if err := b.quiet(); err != nil {
		return nil, err
	}
	path, nspans, err := writeSpans(b.cfg.outDir, b.cfg.workload, t.bufs)
	if err != nil {
		return nil, err
	}
	t.d = collect(t.bufs, clockReadNS())
	res.metrics, err = t.metrics()
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans of %d replayed calls written to %s", nspans, t.traces, path))
	return res, nil
}

func firstNonEmpty(ss ...string) string {
	for _, s := range ss {
		if s != "" {
			return s
		}
	}
	return ""
}

func (t *tracedRun) pacedBad() string {
	if t.paced == nil {
		return ""
	}
	return t.paced.firstBad
}

// ledger sums the timed phases.
func (t *tracedRun) ledger() ledger {
	var l ledger
	l.add(t.closedA.led)
	l.add(t.closedB.led)
	if t.paced != nil {
		l.add(t.paced.led)
	}
	return l
}

// nullLoop runs the same senders closed-loop against the canned-200
// server: what the generator, net/http and the kernel cost without the
// program.
func (t *tracedRun) nullLoop(dur time.Duration) error {
	b := t.b
	conns := make([]*wireConn, len(b.senders))
	for i := range conns {
		conn, err := dialWire(t.null.addr)
		if err != nil {
			return err
		}
		defer conn.close()
		conns[i] = conn
	}
	issue := func(s *sender, c *call) verdict {
		if status, _, _, err := conns[s.id].roundTrip(c.wire); err != nil || status != http.StatusOK {
			return vFailed
		}
		return vOK
	}
	cpu0 := processCPU()
	p := closedLoop(b.st, b.senders, issue, dur, 1, 0)
	if p.led.bad() > 0 {
		return fmt.Errorf("null loop: %d of %d calls failed", p.led.bad(), p.led.sent)
	}
	t.nullCPUPerOp = float64(processCPU()-cpu0) / 1e3 / float64(p.led.okItems)
	return nil
}
