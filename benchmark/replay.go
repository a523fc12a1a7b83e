package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"
)

// The replay of the traced pass: a seeded sample of the stream, one
// request at a time, every depth of a request before the next request,
// with a span around each call into a layer.

// replaySample is the seeded sample the replay walks: the first calls of
// the stream after a seeded offset, replayN corpus requests at
// run_seconds and proportionally fewer on shorter runs.
func (t *tracedRun) replaySample() []*call {
	b := t.b
	want := int(replayN * math.Min(1, b.cfg.seconds/runSeconds))
	per := 1
	if b.st.batch {
		per = batchSize
	}
	n := want / per
	if n < 16 {
		n = 16
	}
	off := int(b.cfg.seed % uint64(len(b.st.calls)))
	out := make([]*call, n)
	for i := range out {
		out[i] = &b.st.calls[(off+i)%len(b.st.calls)]
	}
	return out
}

// spanned times one call and records its span.
func spanned(buf *spanBuf, trace, parent uint32, name spanName, f func()) uint32 {
	t0 := time.Now()
	f()
	t1 := time.Now()
	return buf.add(trace, parent, name, t0, t1)
}

// replayCtx is what the replay of one request needs besides the call.
type replayCtx struct {
	t     *tracedRun
	buf   *spanBuf
	mw    *memWriter
	enc   bytes.Buffer
	jenc  *json.Encoder
	norec *Dispatcher
	// nullAddr is the canned-200 server's socket.
	nullAddr string
	// per-server state
	conns map[string]*wireConn // socket straight to each listener, by address
	outs  []Outcome
	errs  []error
	reqs  []*Request
}

func (r *replayCtx) conn(addr string) (*wireConn, error) {
	if c := r.conns[addr]; c != nil {
		return c, nil
	}
	c, err := dialWire(addr)
	if err != nil {
		return nil, err
	}
	r.conns[addr] = c
	return c, nil
}

func (r *replayCtx) close() {
	for _, c := range r.conns {
		c.close()
	}
}

// replay walks the sample one request at a time: every depth of a
// request before the next request.
func (t *tracedRun) replay(buf *spanBuf) error {
	b := t.b
	r := &replayCtx{t: t, buf: buf, mw: newMemWriter(), conns: map[string]*wireConn{}}
	r.jenc = json.NewEncoder(&r.enc)
	defer r.close()
	if b.socket() {
		r.norec, r.nullAddr = newReferenceDispatcher(b.n.matrix, nodeMonitor(b.n.servers()[0])), t.null.addr
	} else {
		r.norec = newReferenceDispatcher(b.n.matrix, b.n.emb.mon)
	}
	sample := t.replaySample()
	t.traces = len(sample)
	for k, c := range sample {
		trace := uint32(0x80000000) + uint32(k)
		var err error
		switch b.cfg.workload {
		case wlDirectSingle:
			err = r.single(trace, c, 0, b.n.front, true)
		case wlFleetSingle:
			err = r.fleet(trace, c)
		case wlDirectBatch:
			err = r.batch(trace, c)
		default:
			err = r.embedded(trace, c)
		}
		if err != nil {
			return fmt.Errorf("replay of request %d: %w", k, err)
		}
	}
	return t.allocLoops(r, sample)
}

var errReplayMismatch = errors.New("answer differs from the oracle")

// checkMem verifies the in-process answer a handler wrote to the memory
// writer.
func (r *replayCtx) checkMem(c *call) error {
	b := r.t.b
	if v := b.o.matchWire(b.st, c, r.mw.status, r.mw.hdr, r.mw.buf.Bytes(), nil, false); v != vOK {
		return fmt.Errorf("%w (status %d)", errReplayMismatch, r.mw.status)
	}
	return nil
}

func (r *replayCtx) inProcess(trace, parent uint32, name spanName, h http.Handler, path string, c *call) (uint32, error) {
	b := r.t.b
	req := inProcessRequest(path, b.st.mix[c.class], tenantNames[c.tenant], c.body)
	r.mw.reset()
	id := spanned(r.buf, trace, parent, name, func() { h.ServeHTTP(r.mw, req) })
	b.replayed += int64(c.n)
	return id, r.checkMem(c)
}

func (r *replayCtx) roundTrip(trace, parent uint32, name spanName, addr string, c *call, dispatches bool) (uint32, http.Header, error) {
	b := r.t.b
	conn, err := r.conn(addr)
	if err != nil {
		return 0, nil, err
	}
	var (
		status int
		hdr    http.Header
		body   []byte
	)
	id := spanned(r.buf, trace, parent, name, func() { status, hdr, body, err = conn.roundTrip(c.wire) })
	if !dispatches {
		if err != nil || status != http.StatusOK {
			return id, hdr, fmt.Errorf("null round trip: status %d: %v", status, err)
		}
		return id, hdr, nil
	}
	b.replayed += int64(c.n)
	if v := b.o.matchWire(b.st, c, status, hdr, body, err, false); v != vOK {
		return id, hdr, fmt.Errorf("%w (status %d, %v)", errReplayMismatch, status, err)
	}
	return id, hdr, nil
}

// single replays one POST /dispatch call against one server: the socket
// round trip, the middleware (when the socket has one), the handler and
// the handler's stages. coalesced says whether the handler dispatches
// through the coalescer (a ttserver -coalesce) or straight (a ttworker).
func (r *replayCtx) single(trace uint32, c *call, parent uint32, l *listener, coalesced bool) error {
	b := r.t.b
	id, _, err := r.roundTrip(trace, parent, spanRoundtrip, l.addr, c, true)
	if err != nil {
		return err
	}
	if _, _, err := r.roundTrip(trace, 0, spanNullRoundtrip, r.nullAddr, c, false); err != nil {
		return err
	}
	if l.handler != http.Handler(l.srv) {
		if id, err = r.inProcess(trace, id, spanMiddleware, l.handler, pathDispatch, c); err != nil {
			return err
		}
	}
	hid, err := r.inProcess(trace, id, spanHandler, l.srv, pathDispatch, c)
	if err != nil {
		return err
	}
	return r.stages(trace, hid, c, nodeAdmission(l.srv), coalescerIf(coalesced, l.srv), nodeDispatcher(l.srv), nodeMonitor(l.srv), b.n.reg)
}

func coalescerIf(on bool, s *Server) *Coalescer {
	if on {
		return nodeCoalescer(s)
	}
	return nil
}

// stages replays the single-request stages under a handler (or under the
// embedded call): decode, resolve, admit, coalesce, dispatch, observe,
// encode. On the coalesced path admission runs inside the coalescer's
// gate, so its span hangs under coalesce.do there.
func (r *replayCtx) stages(trace, parent uint32, c *call, adm *Controller, coal *Coalescer, disp *Dispatcher, mon *Monitor, reg *Registry) error {
	b := r.t.b
	idx := b.st.items[c.first]
	req, class, tenant := b.n.reqs[idx], b.st.mix[c.class], tenantNames[c.tenant]
	budget := budgetOf(c.class)
	ctx := context.Background()
	var (
		err  error
		rule Rule
		out  Outcome
	)
	if b.socket() {
		var wreq WireRequest
		spanned(r.buf, trace, parent, spanDecode, func() { err = decodeSingle(c.body, &wreq) })
		if err != nil {
			return err
		}
	}
	spanned(r.buf, trace, parent, spanResolve, func() { rule, err = resolve(reg, class.tolerance, class.objective) })
	if err != nil {
		return err
	}
	ticket := ticketFor(rule, class.objective, tenant, budget)
	inner := parent
	if coal != nil {
		inner = spanned(r.buf, trace, parent, spanCoalesceDo, func() { out, err = coalesceDo(coal, ctx, req, ticket) })
		if err != nil {
			return err
		}
		b.replayed++
	}
	floor := policyFloor(disp, ticket)
	var dec Decision
	spanned(r.buf, trace, inner, spanAdmit, func() {
		dec = admitOne(adm, time.Now(), tenant, ruleTolerance(rule), budget, floor)
		admitDone(adm, dec)
	})
	if admitShed(dec) {
		return errors.New("admission refused a replayed request")
	}
	did := spanned(r.buf, trace, inner, spanDispatchDo, func() { out, err = dispatchDo(disp, ctx, req, ticket) })
	if err != nil {
		return err
	}
	b.replayed++
	if b.o.out != nil && !sameOutcome(&out, &b.o.out[b.o.key(c.class, idx)]) {
		return errReplayMismatch
	}
	// The recorder-off arm runs once unspanned first: the node's
	// dispatcher was just used by the span before, and the comparison
	// should not charge the reference one for a colder cache.
	if _, err = dispatchDo(r.norec, ctx, req, ticket); err != nil {
		return err
	}
	spanned(r.buf, trace, inner, spanDispatchDoNoRec, func() { _, err = dispatchDo(r.norec, ctx, req, ticket) })
	if err != nil {
		return err
	}
	spanned(r.buf, trace, did, spanObserve, func() { observe(mon, ticketTier(ticket), &out) })
	if b.socket() {
		var res WireResult
		if err := json.Unmarshal(b.o.raw[b.o.key(c.class, idx)], &res); err != nil {
			return err
		}
		r.enc.Reset()
		spanned(r.buf, trace, parent, spanEncode, func() { err = encodeSingle(&r.enc, &res) })
		if err != nil {
			return err
		}
		if !bytes.Equal(bytes.TrimSpace(r.enc.Bytes()), b.o.raw[b.o.key(c.class, idx)]) {
			return fmt.Errorf("re-encoded answer differs from the wire answer")
		}
	}
	return nil
}

// fleet replays one call through the front tier: the socket round trip
// to the front, its middleware, Pool.Proxy into a memory writer, then
// the single-request ladder against the worker that answered.
func (r *replayCtx) fleet(trace uint32, c *call) error {
	b := r.t.b
	root, hdr, err := r.roundTrip(trace, 0, spanFrontRoundtrip, b.n.front.addr, c, true)
	if err != nil {
		return err
	}
	var w *worker
	for _, cand := range b.n.workers {
		if cand.name == hdr.Get(workerHeader) {
			w = cand
		}
	}
	if w == nil {
		return fmt.Errorf("front tier answered from unknown worker %q", hdr.Get(workerHeader))
	}
	mid, err := r.inProcess(trace, root, spanMiddleware, b.n.front.handler, pathDispatch, c)
	if err != nil {
		return err
	}
	req := inProcessRequest(pathDispatch, b.st.mix[c.class], tenantNames[c.tenant], c.body)
	r.mw.reset()
	proxied := false
	pid := spanned(r.buf, trace, mid, spanProxy, func() {
		proxied = poolProxy(nodePool(b.n.front.srv), context.Background(), r.mw, req.Header, pathDispatch, c.body)
	})
	if !proxied {
		return errors.New("Pool.Proxy fell back to local serving")
	}
	b.replayed++
	if err := r.checkMem(c); err != nil {
		return err
	}
	return r.single(trace, c, pid, w.listener, false)
}

// batch replays one POST /dispatch/batch call under the batch names.
func (r *replayCtx) batch(trace uint32, c *call) error {
	b := r.t.b
	l := b.n.front
	id, _, err := r.roundTrip(trace, 0, spanRoundtripBatch, l.addr, c, true)
	if err != nil {
		return err
	}
	if _, _, err := r.roundTrip(trace, 0, spanNullRoundtrip, r.nullAddr, c, false); err != nil {
		return err
	}
	if id, err = r.inProcess(trace, id, spanMiddlewareBatch, l.handler, pathBatch, c); err != nil {
		return err
	}
	hid, err := r.inProcess(trace, id, spanHandlerBatch, l.srv, pathBatch, c)
	if err != nil {
		return err
	}
	class, tenant := b.st.mix[c.class], tenantNames[c.tenant]
	budget := budgetOf(c.class)
	var wreq WireBatch
	spanned(r.buf, trace, hid, spanDecodeBatch, func() { err = decodeBatch(c.body, &wreq) })
	if err != nil {
		return err
	}
	var rule Rule
	spanned(r.buf, trace, hid, spanResolve, func() { rule, err = resolve(b.n.reg, class.tolerance, class.objective) })
	if err != nil {
		return err
	}
	ticket := ticketFor(rule, class.objective, tenant, budget)
	adm, disp := nodeAdmission(l.srv), nodeDispatcher(l.srv)
	floor := policyFloor(disp, ticket)
	var dec Decision
	spanned(r.buf, trace, hid, spanAdmitBatch, func() {
		dec = admitMany(adm, time.Now(), tenant, ruleTolerance(rule), budget, floor, int(c.n))
		admitDone(adm, dec)
	})
	if admitShed(dec) {
		return errors.New("admission refused a replayed batch")
	}
	ids := b.st.idsOf(c)
	r.reqs = r.reqs[:0]
	for _, idx := range ids {
		r.reqs = append(r.reqs, b.n.reqs[idx])
	}
	ctx := context.Background()
	did := spanned(r.buf, trace, hid, spanDispatchBatch, func() {
		r.outs, r.errs, err = dispatchBatch(disp, ctx, r.reqs, ticket, r.outs, r.errs)
	})
	if err != nil {
		return err
	}
	b.replayed += int64(c.n)
	first := r.outs[0]
	if r.outs, r.errs, err = dispatchBatch(r.norec, ctx, r.reqs, ticket, r.outs, r.errs); err != nil {
		return err
	}
	spanned(r.buf, trace, hid, spanDispatchBatchNoRec, func() {
		r.outs, r.errs, err = dispatchBatch(r.norec, ctx, r.reqs, ticket, r.outs, r.errs)
	})
	if err != nil {
		return err
	}
	spanned(r.buf, trace, did, spanObserve, func() { observe(nodeMonitor(l.srv), ticketTier(ticket), &first) })
	items := make([]WireResult, len(ids))
	for i, idx := range ids {
		if err := json.Unmarshal(b.o.raw[b.o.key(c.class, idx)], &items[i]); err != nil {
			return err
		}
	}
	wire := batchResultOf(items)
	r.enc.Reset()
	spanned(r.buf, trace, hid, spanEncodeBatch, func() { err = encodeBatch(r.jenc, wire) })
	if err != nil {
		return err
	}
	if v := b.o.matchWire(b.st, c, http.StatusOK, nil, r.enc.Bytes(), nil, false); v != vOK {
		return fmt.Errorf("re-encoded batch differs from the wire answer")
	}
	return nil
}

// embedded replays one embedded call alone (no contention): the call,
// its two halves, and the layers under the coalescer; plus the batch
// calls the gate and the flush make, at the window size.
func (r *replayCtx) embedded(trace uint32, c *call) error {
	b := r.t.b
	e := b.n.emb
	idx := b.st.items[c.first]
	var (
		out Outcome
		err error
	)
	root := spanned(r.buf, trace, 0, spanEmbeddedSolo, func() {
		out, _, err = embeddedCall(e, b.n.reqs[idx], b.st.mix[c.class], tenantNames[c.tenant], budgetOf(c.class))
	})
	if err != nil {
		return err
	}
	b.replayed++
	if !sameOutcome(&out, &b.o.out[b.o.key(c.class, idx)]) {
		return errReplayMismatch
	}
	if err := r.stages(trace, root, c, e.adm, e.coal, e.disp, e.mon, e.reg); err != nil {
		return err
	}
	const window = 8
	class, tenant := b.st.mix[c.class], tenantNames[c.tenant]
	rule, err := resolve(e.reg, class.tolerance, class.objective)
	if err != nil {
		return err
	}
	ticket := ticketFor(rule, class.objective, tenant, budgetOf(c.class))
	floor := policyFloor(e.disp, ticket)
	var dec Decision
	spanned(r.buf, trace, root, spanAdmitBatch, func() {
		dec = admitMany(e.adm, time.Now(), tenant, ruleTolerance(rule), ticket.Budget, floor, window)
		admitDone(e.adm, dec)
	})
	if admitShed(dec) {
		return errors.New("admission refused a replayed window")
	}
	r.reqs = r.reqs[:0]
	for i := 0; i < window; i++ {
		r.reqs = append(r.reqs, b.n.reqs[(int(idx)+i)%len(b.n.reqs)])
	}
	spanned(r.buf, trace, root, spanDispatchBatch, func() {
		r.outs, r.errs, err = dispatchBatch(e.disp, context.Background(), r.reqs, ticket, r.outs, r.errs)
	})
	b.replayed += window
	return err
}

// allocLoops measures heap allocation of the decode and of the handler
// over calls made back to back on one goroutine.
func (t *tracedRun) allocLoops(r *replayCtx, sample []*call) error {
	b := t.b
	if !b.socket() {
		return nil
	}
	pr := newProcReader()
	n := len(sample)
	if n > 2000 {
		n = 2000
	}
	if !b.st.batch {
		var wreq WireRequest
		_, o0 := pr.allocs()
		for _, c := range sample[:n] {
			if err := decodeSingle(c.body, &wreq); err != nil {
				return err
			}
		}
		_, o1 := pr.allocs()
		t.decodeAllocs = float64(o1-o0) / float64(n)
	}
	srv, path := b.n.servers()[0], pathDispatch
	if b.st.batch {
		path = pathBatch
	}
	reqs := make([]*http.Request, n)
	for i, c := range sample[:n] {
		reqs[i] = inProcessRequest(path, b.st.mix[c.class], tenantNames[c.tenant], c.body)
	}
	by0, ob0 := pr.allocs()
	for i, c := range sample[:n] {
		r.mw.reset()
		srv.ServeHTTP(r.mw, reqs[i])
		b.replayed += int64(c.n)
	}
	by1, ob1 := pr.allocs()
	t.hAllocs = float64(ob1-ob0) / float64(n)
	t.hBytes = float64(by1-by0) / float64(n)
	if r.mw.status != http.StatusOK {
		return fmt.Errorf("alloc loop: handler answered %d", r.mw.status)
	}
	if len(b.n.workers) > 0 {
		return t.stateCodec()
	}
	return nil
}

// stateCodec times the snapshot a worker bootstraps from: decode of what
// GET /fleet/snapshot ships, and encode of the same snapshot.
func (t *tracedRun) stateCodec() error {
	mw := newMemWriter()
	req, err := http.NewRequest(http.MethodGet, "http://toltiers-bench/fleet/snapshot", nil)
	if err != nil {
		return err
	}
	t.b.n.front.srv.ServeHTTP(mw, req)
	if mw.status != http.StatusOK {
		return fmt.Errorf("GET /fleet/snapshot answered %d", mw.status)
	}
	data := bytes.Clone(mw.buf.Bytes())
	t.snapBytes = float64(len(data))
	var dec, enc []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		snap, err := snapshotDecode(data)
		if err != nil {
			return err
		}
		dec = append(dec, time.Since(t0).Seconds()*1e3)
		var buf bytes.Buffer
		t0 = time.Now()
		if err := snapshotEncode(&buf, snap); err != nil {
			return err
		}
		enc = append(enc, time.Since(t0).Seconds()*1e3)
		if snapshotRows(snap) != len(t.b.n.reqs) {
			return fmt.Errorf("snapshot carries %d rows, the corpus has %d", snapshotRows(snap), len(t.b.n.reqs))
		}
	}
	t.stateDecMS, t.stateEncMS = median(dec), median(enc)
	return nil
}
