// Package coalesce turns concurrent single dispatches into batch
// dispatches. It sits between a caller issuing one request at a time
// (the HTTP POST /dispatch handler, a load generator's closed loop) and
// the dispatcher's fused DoBatch path: requests carrying the same
// resolved ticket gather in a short window and flush as one batch, so
// interactive traffic pays the per-item batch cost — one limiter lease
// per leg, one telemetry commit, one admission — instead of the full
// serial path per request.
//
// Nobody waits for a batch that cannot fill (the crowd rule): a window
// is opened only while at least Options.MaxBatch callers are inside the
// coalescer, any ticket, parked or dispatching. Below that crowd an
// arrival dispatches directly, so under MaxBatch concurrent callers the
// coalescer is a pass-through: no park, no timer, zero added latency.
//
// An open window flushes on whichever trigger fires first: it fills to
// Options.MaxBatch, or an arrival of its ticket finds the crowd gone
// (the drain: a thinning crowd's leftovers leave with the next arrival,
// not on the timer) — either way the arriving goroutine flushes inline,
// itself included — or its timer expires after Options.Window (100–500
// µs nominal), the backstop for a ticket nobody else sends.
//
// Admission composes through the Gate seam: the gate runs once per
// flush with the window's size n (AdmitBatch draws the window's n
// bucket tokens and one in-flight slot), so a shed rejects the whole
// window before the dispatcher leases anything — shed traffic never
// enters a dispatch window. The gate may also rewrite the ticket (a
// brownout downgrade re-resolves the window at the cheaper tier).
//
// Correctness contract, pinned by this package's equivalence, race and
// fuzz tests: every Do call returns exactly once; each waiter receives
// the outcome its request would have gotten from Dispatcher.Do with the
// gated ticket (DoBatch is bit-identical to Do per item); a caller
// whose context dies while its request is still queued leaves the
// window and gets its context error, and one that is already being
// flushed receives the dispatched result — a flush never loses or
// double-delivers a waiter.
package coalesce

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/trace"
)

// Grant is a gate's admission of one flush: the ticket to dispatch
// under (possibly rewritten, e.g. browned out to a cheaper tier),
// an opaque Served value handed to every waiter alongside its result
// (servers park the resolved rule here for response rendering), and a
// Release hook invoked after the flush completes (the admission slot's
// Done; nil when there is nothing to release).
type Grant struct {
	Ticket  dispatch.Ticket
	Served  any
	Release func()
}

// Gate admits one flush of n coalesced requests holding ticket t. An
// error rejects the whole window: every waiter receives it (and the
// grant's Served value, so callers can surface shed metadata), and the
// dispatcher is never entered. A nil Gate admits everything unchanged.
type Gate func(n int, t dispatch.Ticket) (Grant, error)

// Options parameterizes a Coalescer. The zero value is a sane runtime:
// 64-request windows, 200 µs time trigger, no gate.
type Options struct {
	// MaxBatch is the batch worth waiting for, read twice: as the size
	// trigger (a window holding this many requests flushes immediately)
	// and as the crowd threshold (requests park only while this many
	// callers are inside Do; fewer dispatch solo). Default 64, clamped to
	// [1, 4096]. MaxBatch 1 degenerates to per-request flushes through
	// the batch path — useful for tests, pointless in production.
	MaxBatch int
	// Window is the time trigger: the longest a queued request waits for
	// company before its window flushes (default 200 µs, clamped to
	// [100 µs, 500 µs] — below that the timer itself dominates, above it
	// the added latency stops being invisible next to service time).
	Window time.Duration
	// Gate admits each flush (nil admits everything).
	Gate Gate
}

const (
	defaultMaxBatch = 64
	maxMaxBatch     = 4096
	defaultWindow   = 200 * time.Microsecond
	minWindow       = 100 * time.Microsecond
	maxWindow       = 500 * time.Microsecond
)

// Stats counts a coalescer's traffic shape since construction.
type Stats struct {
	// Bypassed counts requests dispatched solo through the zero-wait
	// bypass (fewer than MaxBatch callers were inside Do).
	Bypassed int64
	// Coalesced counts requests that went through a window.
	Coalesced int64
	// Windows counts flushed windows; SizeFlushes counts the subset
	// flushed by the size trigger (the rest timed out, emptied, or were
	// drained by an arrival after the crowd left).
	Windows     int64
	SizeFlushes int64
	// Shed counts requests rejected by the gate, bypass and window alike.
	Shed int64
	// Left counts requests that left a window on context cancellation
	// before its flush claimed them.
	Left int64
}

// result is what a flush delivers to one waiter.
type result struct {
	out    dispatch.Outcome
	served any
	err    error
}

// waiter is one queued request. win/idx track its slot in an open
// window and are maintained under the coalescer mutex: detaching a
// window for flush clears win on every member, so a non-nil win always
// means "still queued and removable". done is a persistent buffered
// channel so a flusher never blocks delivering and an abandoned receive
// can never strand it.
type waiter struct {
	req  *service.Request
	win  *window
	idx  int
	done chan result
	// Flight-recorder attribution, stamped on join only when the
	// dispatcher is tracing: when the caller joined the window, and the
	// trace id its context carried.
	joined time.Time
	tid    uint64
}

// window is one open accumulation of same-ticket requests, pooled and
// reused together with its flush scratch and timer. open flips false at
// detach; the timer's fire checks it under the mutex, so a stale fire
// on a reused window is at worst an early flush, never a double one.
type window struct {
	c       *Coalescer
	id      uint64
	ticket  dispatch.Ticket
	waiters []*waiter
	timer   *time.Timer
	open    bool
	// flush scratch, reused across incarnations
	reqs []*service.Request
	outs []dispatch.Outcome
	errs []error
	// meta is the flight-recorder batch attribution handed to DoBatch
	// through the flush context (window id, per-item park times and
	// caller trace ids), rebuilt per flush from the same scratch.
	meta trace.BatchMeta
	// bctx carries &meta, built by the first traced flush and kept for
	// the window's pooled life: a window is recycled only after its
	// DoBatch returns, so no two flushes ever share meta.
	bctx context.Context
}

// Coalescer gathers concurrent single dispatches of the same ticket
// into DoBatch calls. Safe for concurrent use; construct with New.
type Coalescer struct {
	d    *dispatch.Dispatcher
	opts Options

	// pending gauges Do calls currently in flight (entered, not yet
	// delivered), parked and dispatching alike; at or above MaxBatch it
	// is "a crowd" — the only condition under which a request parks.
	pending atomic.Int64

	mu      sync.Mutex
	windows map[dispatch.Ticket]*window
	// winSeq mints window ids for flight-recorder attribution; window
	// id 0 means "not coalesced", so ids start at 1.
	winSeq atomic.Uint64

	waiterPool sync.Pool
	windowPool sync.Pool

	bypassed    atomic.Int64
	coalesced   atomic.Int64
	flushed     atomic.Int64
	sizeFlushes atomic.Int64
	shed        atomic.Int64
	left        atomic.Int64
}

// New builds a coalescer in front of d.
func New(d *dispatch.Dispatcher, opts Options) *Coalescer {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = defaultMaxBatch
	}
	if opts.MaxBatch > maxMaxBatch {
		opts.MaxBatch = maxMaxBatch
	}
	if opts.Window <= 0 {
		opts.Window = defaultWindow
	}
	if opts.Window < minWindow {
		opts.Window = minWindow
	}
	if opts.Window > maxWindow {
		opts.Window = maxWindow
	}
	c := &Coalescer{d: d, opts: opts, windows: make(map[dispatch.Ticket]*window)}
	c.waiterPool.New = func() any { return &waiter{done: make(chan result, 1)} }
	c.windowPool.New = func() any { return &window{c: c} }
	return c
}

// Stats reports the coalescer's traffic counters.
func (c *Coalescer) Stats() Stats {
	return Stats{
		Bypassed:    c.bypassed.Load(),
		Coalesced:   c.coalesced.Load(),
		Windows:     c.flushed.Load(),
		SizeFlushes: c.sizeFlushes.Load(),
		Shed:        c.shed.Load(),
		Left:        c.left.Load(),
	}
}

// MaxBatch reports the effective size trigger after clamping.
func (c *Coalescer) MaxBatch() int { return c.opts.MaxBatch }

// Window reports the effective time trigger after clamping.
func (c *Coalescer) Window() time.Duration { return c.opts.Window }

// gate runs the configured gate, or admits unchanged without one.
func (c *Coalescer) gate(n int, t dispatch.Ticket) (Grant, error) {
	if c.opts.Gate == nil {
		return Grant{Ticket: t}, nil
	}
	g, err := c.opts.Gate(n, t)
	if err != nil {
		c.shed.Add(int64(n))
	}
	return g, err
}

// Do dispatches one request through the coalescer: it joins (or opens)
// the window of its ticket and blocks until the window's flush delivers
// its outcome, or dispatches directly when there is no crowd to wait for.
// The returned served value is the flush grant's Served (nil when the
// request never reached a gate — a pre-flush context cancellation).
// A parked caller whose context can be cancelled waits in a select on
// its result and ctx.Done(); one whose context never can (Done returns
// nil, as for context.Background) waits in a plain receive on its
// result, since it can never leave its window.
//
// The ticket must be fully resolved (tier, policy, budget): it is the
// coalescing key, so two requests coalesce iff their tickets are equal.
func (c *Coalescer) Do(ctx context.Context, req *service.Request, t dispatch.Ticket) (dispatch.Outcome, any, error) {
	if err := ctx.Err(); err != nil {
		return dispatch.Outcome{}, nil, err
	}
	c.pending.Add(1)
	defer c.pending.Add(-1)

	c.mu.Lock()
	crowd := c.pending.Load() >= int64(c.opts.MaxBatch)
	win := c.windows[t]
	if win == nil {
		if !crowd {
			// Zero-wait bypass: too few callers are present to fill a
			// window, so one opened now would only end on its timer —
			// skip the queueing delay and the handoff entirely. The gauge
			// is a heuristic (it moves outside the mutex): a stale read at
			// worst parks one request for one time trigger or dispatches
			// it solo, never an incorrect delivery.
			c.mu.Unlock()
			c.bypassed.Add(1)
			return c.dispatchSolo(ctx, req, t)
		}
		win = c.openWindowLocked(t)
	}
	w := c.waiterPool.Get().(*waiter)
	w.req, w.win, w.idx = req, win, len(win.waiters)
	if c.d.Tracing() {
		w.joined = time.Now()
		w.tid = trace.IDFromContext(ctx)
	}
	win.waiters = append(win.waiters, w)
	var ready *window
	if n := len(win.waiters); n >= c.opts.MaxBatch || !crowd {
		c.detachLocked(win)
		if n >= c.opts.MaxBatch {
			c.sizeFlushes.Add(1)
		}
		ready = win
	}
	c.mu.Unlock()

	if ready != nil {
		// Size trigger, or the drain (the crowd that opened this window
		// has gone, so it cannot fill): the arriving goroutine flushes
		// the window inline (it is already awake) and then receives its
		// own result below like any other waiter.
		c.flush(ready)
	}

	done := ctx.Done()
	if done == nil {
		// A context that can never be cancelled can never leave its
		// window: a plain receive spares the select's locking of both
		// channels on every coalesced request.
		return c.deliver(w, <-w.done)
	}
	select {
	case res := <-w.done:
		return c.deliver(w, res)
	case <-done:
		c.mu.Lock()
		if ww := w.win; ww != nil {
			// Still queued: leave the window before its flush claims us.
			last := len(ww.waiters) - 1
			ww.waiters[w.idx] = ww.waiters[last]
			ww.waiters[w.idx].idx = w.idx
			ww.waiters[last] = nil
			ww.waiters = ww.waiters[:last]
			w.win = nil
			if len(ww.waiters) == 0 {
				// The window emptied: retire it so the timer fires on a
				// closed window (a no-op) instead of flushing nothing.
				c.detachLocked(ww)
				c.recycleWindow(ww)
			}
			c.mu.Unlock()
			c.left.Add(1)
			err := ctx.Err()
			w.req = nil
			c.waiterPool.Put(w)
			return dispatch.Outcome{}, nil, err
		}
		// A flush already claimed this waiter; its result is imminent
		// (the done channel is buffered, so the flusher never blocks).
		c.mu.Unlock()
		return c.deliver(w, <-w.done)
	}
}

// deliver unpacks a flush's result and recycles the waiter.
func (c *Coalescer) deliver(w *waiter, res result) (dispatch.Outcome, any, error) {
	w.req = nil
	c.waiterPool.Put(w)
	return res.out, res.served, res.err
}

// dispatchSolo is the bypass path: gate for one, dispatch on the
// caller's own context — the exact serial path, just routed through the
// same admission seam as windows.
func (c *Coalescer) dispatchSolo(ctx context.Context, req *service.Request, t dispatch.Ticket) (dispatch.Outcome, any, error) {
	g, err := c.gate(1, t)
	if err != nil {
		return dispatch.Outcome{}, g.Served, err
	}
	out, derr := c.d.Do(ctx, req, g.Ticket)
	if g.Release != nil {
		g.Release()
	}
	return out, g.Served, derr
}

// openWindowLocked starts a new window for t and arms its time trigger.
func (c *Coalescer) openWindowLocked(t dispatch.Ticket) *window {
	win := c.windowPool.Get().(*window)
	win.id = c.winSeq.Add(1)
	win.ticket = t
	win.open = true
	c.windows[t] = win
	if win.timer == nil {
		win.timer = time.AfterFunc(c.opts.Window, func() { c.timerFlush(win) })
	} else {
		win.timer.Reset(c.opts.Window)
	}
	return win
}

// detachLocked closes a window for flushing: it leaves the index so new
// arrivals open a fresh window, and every member's win pointer is
// cleared — from here on the flush owns them and cancellation can only
// wait for delivery.
func (c *Coalescer) detachLocked(win *window) {
	win.open = false
	win.timer.Stop()
	delete(c.windows, win.ticket)
	for _, w := range win.waiters {
		w.win = nil
	}
}

// recycleWindow returns a detached, delivered window to the pool.
func (c *Coalescer) recycleWindow(win *window) {
	win.waiters = win.waiters[:0]
	win.ticket = dispatch.Ticket{}
	c.windowPool.Put(win)
}

// timerFlush is the time trigger. A stale fire — the timer lost the
// race against a size-trigger flush, or against the window being
// recycled and reopened for another ticket — either finds the window
// closed (no-op) or flushes the new incarnation a little early (a
// smaller batch, still a correct one).
func (c *Coalescer) timerFlush(win *window) {
	c.mu.Lock()
	if !win.open {
		c.mu.Unlock()
		return
	}
	c.detachLocked(win)
	c.mu.Unlock()
	c.flush(win)
}

// flush gates and dispatches one detached window, fanning per-item
// outcomes (or the gate's rejection) back to every waiter. It runs on
// the arriving goroutine (size trigger, drain) or the timer goroutine
// (time trigger); the coalescer mutex is never held across it.
func (c *Coalescer) flush(win *window) {
	ws := win.waiters
	n := len(ws)
	if n == 0 {
		c.recycleWindow(win)
		return
	}
	c.flushed.Add(1)
	c.coalesced.Add(int64(n))

	g, gerr := c.gate(n, win.ticket)
	if gerr != nil {
		for _, w := range ws {
			w.done <- result{served: g.Served, err: gerr}
		}
		c.recycleWindow(win)
		return
	}

	win.reqs = win.reqs[:0]
	for _, w := range ws {
		win.reqs = append(win.reqs, w.req)
	}
	// The batch runs on a background context: its waiters' contexts are
	// individual, and any waiter still claimed here is owed a result
	// even if its caller has meanwhile gone (the dispatch happened and
	// is billed, exactly like a serial dispatch completing for a client
	// that hung up mid-flight). When the dispatcher is tracing, the
	// window's attribution — its id, each item's park time, each
	// caller's trace id — rides the flush context into DoBatch so the
	// per-item spans say which window held them and for how long.
	bctx := context.Background()
	if c.d.Tracing() {
		now := time.Now()
		win.meta.Window = win.id
		win.meta.Park = win.meta.Park[:0]
		win.meta.IDs = win.meta.IDs[:0]
		for _, w := range ws {
			var park int64
			if !w.joined.IsZero() {
				park = int64(now.Sub(w.joined))
			}
			win.meta.Park = append(win.meta.Park, park)
			win.meta.IDs = append(win.meta.IDs, w.tid)
		}
		if win.bctx == nil {
			win.bctx = trace.ContextWithBatch(context.Background(), &win.meta)
		}
		bctx = win.bctx
	}
	var berr error
	win.outs, win.errs, berr = c.d.DoBatch(bctx, win.reqs, g.Ticket, win.outs, win.errs)
	if berr != nil {
		for _, w := range ws {
			w.done <- result{served: g.Served, err: berr}
		}
	} else {
		for i, w := range ws {
			w.done <- result{out: win.outs[i], served: g.Served, err: win.errs[i]}
		}
	}
	if g.Release != nil {
		g.Release()
	}
	c.recycleWindow(win)
}
