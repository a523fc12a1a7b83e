package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	corpus   int
	setups   int // fresh set-ups whose median is setup_s; the traced pass makes one
	// smoke relaxes the two guard rails that 1 s phases cannot meet.
	smoke  bool
	outDir string // where the traced pass writes <workload>.spans.jsonl
}

// minTail is the number of samples a reported p99 needs behind it: ten
// beyond the percentile, with margin.
func (c runConfig) minTail() int {
	if c.smoke {
		return 0
	}
	return 1100
}

// maxBehind is the share of the paced phase the generator may overrun
// its schedule by.
func (c runConfig) maxBehind() float64 {
	if c.smoke {
		return 0.5
	}
	return 0.05
}

const (
	corpusSize   = 2000
	setUpsPerRun = 9
	timedSlices  = 40
	// hardLimit ends a run that would overrun the driver's 180 s.
	hardLimit = 170 * time.Second
	replayN   = 20000 // corpus requests in the traced replay at run_seconds
)

// metricValue is one reported metric; note carries the bases of a ratio
// or the spread of a median, for the human-readable table only.
type metricValue struct {
	name  string
	value float64
	unit  string
	note  string
}

type result struct {
	workload  string
	trace     bool
	attempted int64
	failed    int64
	metrics   []metricValue
	notes     []string
}

// machine pins what must not change under a run.
type machine struct {
	nproc, gomaxprocs int
	allowed           string
}

func readMachine() machine {
	m := machine{nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0)}
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "Cpus_allowed_list:") {
				m.allowed = strings.TrimSpace(strings.TrimPrefix(line, "Cpus_allowed_list:"))
			}
		}
	}
	return m
}

func (m machine) unchanged() error {
	if now := readMachine(); now != m {
		return fmt.Errorf("the machine changed under the run: %+v -> %+v", m, now)
	}
	return nil
}

// bench is the state one run threads through its phases.
type bench struct {
	cfg     runConfig
	mach    machine
	n       *node
	o       *oracle
	st      *stream
	senders []*sender
	issue   issuer
	setupS  []float64
	// replayed counts the dispatches the traced replay made straight
	// into the node's layers, for the ledger.
	replayed int64
}

func (b *bench) socket() bool { return b.n.emb == nil }

// run executes one workload and returns its metrics. Any guard rail that
// trips is an error: the run reports no number rather than a silently
// different one.
func run(cfg runConfig) (res *result, err error) {
	if !knownWorkload(cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.trace {
		cfg.setups = 1
	}
	b := &bench{cfg: cfg, mach: readMachine()}
	if b.mach.gomaxprocs != b.mach.nproc {
		return nil, fmt.Errorf("GOMAXPROCS %d != nproc %d", b.mach.gomaxprocs, b.mach.nproc)
	}
	began := time.Now()
	defer func() {
		b.tearDown()
		if err == nil && time.Since(began) > hardLimit {
			err = fmt.Errorf("run took %v, over the hard limit of %v", time.Since(began).Round(time.Second), hardLimit)
		}
		if err == nil {
			err = b.mach.unchanged()
		}
	}()

	if err := b.setUps(); err != nil {
		return nil, err
	}
	if err := b.prepare(); err != nil {
		return nil, err
	}
	if cfg.trace {
		return b.traced()
	}
	return b.untraced()
}

// setUps assembles cfg.setups fresh nodes one after the other, each up
// to its first verified response, and keeps the last. The oracle is
// taken on the first, outside the timed part.
func (b *bench) setUps() error {
	for i := 0; i < b.cfg.setups; i++ {
		if b.n != nil {
			b.n.close()
		}
		n, err := setUp(context.Background(), b.cfg.workload, b.cfg.corpus)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		b.n = n
		if err := firstResponse(n, b.o); err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		b.setupS = append(b.setupS, time.Since(n.started).Seconds())
		if b.o == nil {
			if b.o, err = buildOracle(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// prepare builds the stream, the senders and the issuer of the workload.
func (b *bench) prepare() error {
	perCall, path, count, nt := 1, pathDispatch, b.mach.nproc, tenants
	switch b.cfg.workload {
	case wlDirectSingle:
		count = directSingleSendersPerCore * b.mach.nproc
	case wlDirectBatch:
		perCall, path = batchSize, pathBatch
	case wlEmbedded:
		path, count, nt = "", embeddedSenders, embeddedTenants
	}
	b.st = newStream(b.cfg.seed, b.n.reqs, b.o.mix, perCall, nt, path)
	b.o.annotate(b.st)
	for i := 0; i < count; i++ {
		s := &sender{id: i, pos: i * len(b.st.calls) / count}
		if b.socket() {
			conn, err := dialWire(b.n.front.addr)
			if err != nil {
				return err
			}
			s.conn = conn
		}
		b.senders = append(b.senders, s)
	}
	if b.socket() {
		b.issue = b.wireIssuer(b.cfg.workload == wlFleetSingle)
	} else {
		b.issue = b.embeddedIssuer()
	}
	return nil
}

func (b *bench) wireIssuer(wantWorker bool) issuer {
	st, o := b.st, b.o
	return func(s *sender, c *call) verdict {
		status, hdr, body, err := s.conn.roundTrip(c.wire)
		v := o.matchWire(st, c, status, hdr, body, err, wantWorker)
		if v != vOK && s.firstBad == "" {
			switch {
			case err != nil:
				s.firstBad = err.Error()
			case v == vMismatched && st.batch && status == 200:
				s.firstBad = o.explainBatch(st, c, body)
			default:
				s.firstBad = fmt.Sprintf("status %d, worker %q, body %.200s", status, hdr.Get(workerHeader), body)
			}
		}
		return v
	}
}

func (b *bench) embeddedIssuer() issuer {
	st, o, n := b.st, b.o, b.n
	return func(s *sender, c *call) verdict {
		idx := st.items[c.first]
		var (
			out Outcome
			err error
		)
		if !s.spanned() {
			out, _, err = embeddedCall(n.emb, n.reqs[idx], st.mix[c.class], tenantNames[c.tenant], budgetOf(c.class))
		} else {
			out, err = spannedEmbeddedCall(s, n.emb, n.reqs[idx], st.mix[c.class], tenantNames[c.tenant], budgetOf(c.class))
		}
		switch {
		case err != nil:
			if s.firstBad == "" {
				s.firstBad = err.Error()
			}
			return vFailed
		case !sameOutcome(&out, &o.out[o.key(c.class, idx)]):
			if s.firstBad == "" {
				s.firstBad = fmt.Sprintf("class %d request %d: outcome differs from the oracle", c.class, idx)
			}
			return vMismatched
		}
		return vOK
	}
}

// spannedEmbeddedCall is embeddedCall with a span around the call and
// around each of its two halves, from the sender's own goroutine.
func spannedEmbeddedCall(s *sender, e *embeddedParts, req *Request, class mixClass, tenant string, budget time.Duration) (Outcome, error) {
	t0 := time.Now()
	rule, err := resolve(e.reg, class.tolerance, class.objective)
	t1 := time.Now()
	if err != nil {
		return Outcome{}, err
	}
	t := ticketFor(rule, class.objective, tenant, budget)
	t2 := time.Now()
	out, err := coalesceDo(e.coal, context.Background(), req, t)
	t3 := time.Now()
	trace := s.traceID()
	id := s.spans.add(trace, 0, spanEmbeddedCall, t0, t3)
	s.spans.add(trace, id, spanResolveContended, t0, t1)
	s.spans.add(trace, id, spanCoalesceDoContended, t2, t3)
	return out, err
}

func (b *bench) tearDown() {
	for _, s := range b.senders {
		if s.conn != nil {
			s.conn.close()
		}
	}
	if b.n != nil {
		b.n.close()
	}
}

// warmUp runs the closed loop unrecorded, so pools, latency trackers and
// connections are warm, and returns the call rate it saw.
func (b *bench) warmUp() (callsPerSec float64, err error) {
	d := time.Duration(math.Min(1, b.cfg.seconds/4) * float64(time.Second))
	p := closedLoop(b.st, b.senders, b.issue, d, 1, 0)
	if p.led.bad() > 0 {
		return 0, fmt.Errorf("warm-up: %d of %d calls failed: %s", p.led.bad(), p.led.sent, p.firstBad)
	}
	return float64(p.led.sent) / p.wall.Seconds(), nil
}

// timedClosed runs one closed phase and balances its ledger against the
// node's dispatchers.
func (b *bench) timedClosed(dur time.Duration, nslices int, rate float64) (*phase, error) {
	before := b.n.dispatched()
	p := closedLoop(b.st, b.senders, b.issue, dur, nslices, rate)
	if err := p.led.balance(b.n.dispatched() - before); err != nil {
		return p, err
	}
	return p, nil
}

// quiet fails the run if any mechanism that must stay idle acted: a
// shed, a downgrade, a hedge, a dispatch failure, a drift event, a
// fleet failover or local fallback.
func (b *bench) quiet() error {
	var problems []string
	note := func(what string, n int64) {
		if n != 0 {
			problems = append(problems, fmt.Sprintf("%s=%d", what, n))
		}
	}
	if e := b.n.emb; e != nil {
		a := readAdmit(e.adm)
		note("admit.shed", a.shed)
		note("admit.downgraded", a.downgraded)
		note("coalesce.shed", readCoalesce(e.coal).shed)
		note("drift.events", int64(driftEvents(e.mon)))
	} else {
		for _, s := range b.n.allServers() {
			a := readAdmit(nodeAdmission(s))
			note("admit.shed", a.shed)
			note("admit.downgraded", a.downgraded)
			note("coalesce.shed", readCoalesce(nodeCoalescer(s)).shed)
			note("drift.events", int64(driftEvents(nodeMonitor(s))))
		}
		if pool := nodePool(b.n.front.srv); pool != nil {
			f := readFleet(pool)
			note("fleet.fallback", f.fallback)
			note("fleet.failed_over", f.failedOver)
		}
	}
	for _, d := range b.n.dispatchers() {
		c := readDispatch(d)
		note("dispatch.hedges", c.hedges)
		note("dispatch.failures", c.failures)
	}
	if len(problems) > 0 {
		return errors.New("a mechanism that must stay idle acted: " + strings.Join(problems, " "))
	}
	return nil
}

func medianNote(xs []float64) (float64, string) {
	return median(xs), fmt.Sprintf("median of %d, iqr %.1f%%", len(xs), 100*spreadShare(xs))
}

// quietNote reports a time-based metric as the mean of the best tenth of
// the run's slices: on a shared box interference only ever slows a
// slice, and it does so for seconds at a time, so the median slice moves
// with the neighbours and the quietest slices with the program
// (REPEATABILITY.md has the measurement).
func quietNote(xs []float64, higherIsBetter bool) (float64, string) {
	return bestTenth(xs, higherIsBetter), fmt.Sprintf("best tenth of %d slices; their median %.5g, iqr %.1f%%", len(xs), median(xs), 100*spreadShare(xs))
}

// untraced is the end-to-end pass: all of --seconds is one closed loop,
// cut into equal slices.
func (b *bench) untraced() (*result, error) {
	rate, err := b.warmUp()
	if err != nil {
		return nil, err
	}
	dur := time.Duration(b.cfg.seconds * float64(time.Second))
	p, err := b.timedClosed(dur, timedSlices, rate)
	rss := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := b.quiet(); err != nil {
		return nil, err
	}
	res := &result{workload: b.cfg.workload, attempted: p.led.sent, failed: p.led.bad()}
	if res.failed > 0 {
		return res, fmt.Errorf("%d of %d calls failed (mismatched %d, refused %d, failed %d): %s",
			res.failed, res.attempted, p.led.mismatched, p.led.refused, p.led.failed, p.firstBad)
	}
	rps, cpu, alloc, p50 := p.slices()
	if len(rps) < timedSlices/2 || len(p50) < timedSlices/2 {
		return nil, fmt.Errorf("only %d of %d slices saw verified requests", len(rps), timedSlices)
	}
	add := func(name, unit string, v float64, note string) {
		res.metrics = append(res.metrics, metricValue{name, v, unit, note})
	}
	v, note := medianNote(b.setupS)
	add("setup_s", "s", v, note)
	v, note = quietNote(rps, true)
	add("throughput_rps", "1/s", v, note)
	v, note = quietNote(p50, false)
	add("latency_p50_ms", "ms", v, note)
	v, note = quietNote(cpu, false)
	add("cpu_us_per_op", "us", v, note)
	v, note = medianNote(alloc)
	add("alloc_bytes_per_op", "B", v, note)
	add("peak_rss_mb", "MB", rss, "ru_maxrss at the end of the timed phase")
	items := float64(p.led.okItems)
	verified := fmt.Sprintf("mean over %d verified answers", p.led.okItems)
	add("svc_latency_ms", "ms", p.svcLat/items, verified)
	add("svc_error_rate", "ratio", p.svcErr/items, verified)
	add("svc_cost_usd_per_kreq", "USD", 1000*p.svcCost/items, verified)
	return res, nil
}
