// Package trace is the per-dispatch flight recorder: one fixed-size
// span record per dispatch — tier, tenant, admit decision, coalesce
// window attribution, and one sub-span per executed backend leg — kept
// in a power-of-two ring with head-sampling plus always-capture tail
// exemplars. Aggregates (Welford tier means, the admit ledger, drift
// status) answer "how is the tier doing"; the recorder answers "what
// happened to *this* request": did the hedge fire, did the escalation
// degrade, did admission downgrade it, did a coalesce window park it.
//
// The recording contract matches the dispatcher's: recorder off = 0
// allocs, recorder on = 0 allocs on the steady-state replay path. Span
// storage lives in the dispatcher's pooled per-call scratch, the ring
// index claim is one atomic add, and the slot write copies one
// fixed-size record under an uncontended per-slot lock (slots are
// reused only once per ring revolution, and a reader contends with at
// most the single writer of one slot). The per-tier tail threshold is
// a lock-free atomic latency ring with a lazily refreshed cached p99,
// memoized per call site through Cache so the steady state never
// touches the tier map.
//
// Head-sampling keeps 1 in SampleEvery dispatches by a deterministic
// counter stride. Tail exemplars bypass the sampler entirely: errors,
// sheds, degraded escalations, deadline overruns, fired hedges, and
// anything slower than the tier's observed p99 are always captured,
// with per-reason counters exposed for the Prometheus exposition.
package trace

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies why a span was captured (the tail-exemplar reason,
// or KindSampled for the head sampler's deterministic keep).
const (
	KindSampled uint8 = iota
	KindError
	KindShed
	KindDeadline
	KindDegraded
	KindHedge
	KindSlow
	kindCount
)

var kindNames = [kindCount]string{
	"sampled", "error", "shed", "deadline", "degraded", "hedge", "slow",
}

// KindName renders a capture kind ("sampled", "error", "shed",
// "deadline", "degraded", "hedge", "slow").
func KindName(k uint8) string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName resolves a kind name back to its code (for query filters).
func KindByName(s string) (uint8, bool) {
	for k, n := range kindNames {
		if n == s {
			return uint8(k), true
		}
	}
	return 0, false
}

// Admission decision attributed to a span.
const (
	AdmitNone uint8 = iota
	AdmitAccepted
	AdmitDowngraded
	AdmitShedRate
	AdmitShedCapacity
	AdmitShedDeadline
)

var admitNames = [...]string{
	"", "admitted", "downgraded", "shed-rate", "shed-capacity", "shed-deadline",
}

// AdmitName renders an admission decision code.
func AdmitName(a uint8) string {
	if int(a) < len(admitNames) {
		return admitNames[a]
	}
	return "unknown"
}

// MaxLegs bounds the executed-leg sub-spans a span can hold. A tier
// policy touches at most two backends (primary and secondary), so two
// legs cover every path including a failed-then-escalated pair and a
// cancelled hedge's billed leg.
const MaxLegs = 2

// Leg is one executed backend leg of a dispatch.
type Leg struct {
	// Backend names the leg's backend.
	Backend string
	// QueueNs is time spent parked on the backend's concurrency
	// limiter before the invocation was issued (0 when uncapped or
	// batch-leased — the lease is accounted once, not per item).
	QueueNs int64
	// ServiceNs is the backend's reported service latency.
	ServiceNs int64
	// Hedge marks the deadline-forced hedge leg; Escalated marks a leg
	// run because the primary failed or missed its confidence
	// threshold; Cancelled marks a hedge leg terminated early by the
	// primary's confident result (billed from its plan, no response).
	Hedge     bool
	Escalated bool
	Cancelled bool
	// Err is the leg's failure, "" on success.
	Err string
}

// Span is one dispatch's flight record. It is a fixed-size value —
// strings alias existing backend/tier names — so resetting and copying
// it never allocates.
type Span struct {
	// ID is the request's trace id (the middleware-minted header id
	// when the dispatch carried one, otherwise recorder-minted).
	ID uint64
	// Time is the commit wall clock in Unix nanoseconds, stamped only
	// when the span is actually kept.
	Time int64
	// Tier and Tenant identify the dispatch.
	Tier   string
	Tenant string
	// Kind is the capture reason (see KindName); Admit the admission
	// decision (see AdmitName).
	Kind  uint8
	Admit uint8
	// NLegs counts the populated entries of Legs.
	NLegs uint8
	// Outcome flags, mirrored from dispatch.Outcome.
	Hedged           bool
	Escalated        bool
	Degraded         bool
	DeadlineExceeded bool
	// Window is the coalesce window id that flushed this dispatch
	// (0 = not coalesced); ParkNs how long the request waited in it.
	Window uint64
	ParkNs int64
	// LatencyNs is the combined reported latency; InvCost and IaaSCost
	// the billed invocation and node cost.
	LatencyNs int64
	InvCost   float64
	IaaSCost  float64
	// Err is the dispatch-level failure, "" on success.
	Err  string
	Legs [MaxLegs]Leg
}

// Reset clears the span for a new dispatch. The receiver is pooled by
// the caller. Legs are deliberately NOT zeroed here: Leg() clears each
// entry on claim and NLegs bounds every reader, so skipping the
// 128-byte legs array keeps the per-dispatch reset to the header
// fields.
func (s *Span) Reset(tier, tenant string, admit uint8) {
	s.ID, s.Time = 0, 0
	s.Tier, s.Tenant = tier, tenant
	s.Kind, s.Admit, s.NLegs = 0, admit, 0
	s.Hedged, s.Escalated, s.Degraded, s.DeadlineExceeded = false, false, false, false
	s.Window, s.ParkNs, s.LatencyNs = 0, 0, 0
	s.InvCost, s.IaaSCost = 0, 0
	s.Err = ""
}

// Leg claims the next leg sub-span, or nil when the span is full
// (structurally impossible for two-backend policies; guarded anyway so
// an overflow drops a leg rather than corrupting the record).
func (s *Span) Leg() *Leg {
	if s.NLegs >= MaxLegs {
		return nil
	}
	l := &s.Legs[s.NLegs]
	s.NLegs++
	*l = Leg{}
	return l
}

// Options parameterizes a Recorder. The zero value is a sane runtime:
// a 1024-slot ring sampling 1 in 16 dispatches.
type Options struct {
	// Size is the ring capacity, rounded up to a power of two
	// (default 1024, min 16).
	Size int
	// SampleEvery keeps 1 in N dispatches through the head sampler,
	// rounded up to a power of two so the stride check is a mask
	// instead of a divide (default 16; 1 keeps everything). Tail
	// exemplars ignore it.
	SampleEvery int
	// Disabled suppresses recorder construction in configs that embed
	// Options (the recorder itself has no disabled state — a nil
	// *Recorder is the off switch).
	Disabled bool
}

// slot is one ring entry. seq is the global commit sequence that last
// wrote it (0 = never written); both fields are guarded by mu, which
// is uncontended in steady state — a slot is rewritten only once per
// full ring revolution, and readers are the occasional HTTP scrape.
type slot struct {
	mu   sync.Mutex
	seq  uint64
	span Span
}

// Recorder is the flight recorder. A nil *Recorder is valid and
// records nothing (every method nil-checks), so call sites carry one
// predictable branch instead of an interface indirection.
type Recorder struct {
	mask   uint64
	sample uint64
	slots  []slot
	// seq claims ring slots and orders commits; dispatches counts every
	// Observe (kept or not) for reconciliation; kinds counts committed
	// spans per capture reason.
	seq        atomic.Uint64
	dispatches atomic.Int64
	sheds      atomic.Int64
	kinds      [kindCount]atomic.Int64
	// Commit timestamps are epoch + monotonic delta: reading only the
	// monotonic clock is half the cost of time.Now on a virtualized
	// host, and the stamps are immune to wall-clock jumps.
	epoch int64
	start time.Time
	// tails holds the per-tier p99 threshold state (map[string]*tail).
	tails sync.Map
}

// New builds a recorder.
func New(opts Options) *Recorder {
	size := opts.Size
	if size <= 0 {
		size = 1024
	}
	if size < 16 {
		size = 16
	}
	// Round up to a power of two so slot claim is a mask, not a modulo.
	n := 16
	for n < size {
		n <<= 1
	}
	sample := opts.SampleEvery
	if sample <= 0 {
		sample = 16
	}
	// Power-of-two stride: the per-dispatch keep check compiles to a
	// mask, never a divide.
	sp := 1
	for sp < sample {
		sp <<= 1
	}
	start := time.Now()
	return &Recorder{
		mask:   uint64(n - 1),
		sample: uint64(sp),
		slots:  make([]slot, n),
		epoch:  start.UnixNano(),
		start:  start,
	}
}

// Size reports the ring capacity after rounding.
func (r *Recorder) Size() int { return len(r.slots) }

// SampleEvery reports the effective head-sampling stride.
func (r *Recorder) SampleEvery() int { return int(r.sample) }

// Cache memoizes one call site's per-tier tail lookup so the
// steady-state Observe never pays the tier map (whose string-keyed
// load would also allocate the key's interface header). Embed one in
// pooled per-call scratch next to the Span.
type Cache struct {
	key string
	t   *tail
}

// Observe is the dispatch-path entry point: it counts the dispatch,
// feeds the tier's tail threshold, and commits the span when a tail
// exemplar condition holds or the head sampler's stride lands. The
// span's outcome fields must be final. ctx supplies the request's
// trace id (only consulted when the span is actually kept); a span
// with ID already set (batch attribution) keeps it.
func (r *Recorder) Observe(ctx context.Context, s *Span, c *Cache) {
	if r == nil {
		return
	}
	n := uint64(r.dispatches.Add(1))
	stride := (n-1)&(r.sample-1) == 0
	slow := false
	if s.Err == "" && s.LatencyNs > 0 {
		t := r.tailFor(s.Tier, c)
		// Only stride-sampled dispatches feed the window: a 1-in-N
		// systematic sample is an unbiased picture of the tier's latency
		// distribution, and gating the feed here keeps the (N-1)-in-N
		// fast path free of atomic read-modify-writes — the non-sampled
		// dispatch pays one counter add and one threshold load.
		if stride {
			t.add(s.LatencyNs)
		}
		p := t.p99.Load()
		slow = p > 0 && s.LatencyNs > p
	}
	kind := KindSampled
	keep := true
	switch {
	case s.Err != "":
		kind = KindError
	case s.DeadlineExceeded:
		kind = KindDeadline
	case s.Degraded:
		kind = KindDegraded
	case s.Hedged:
		kind = KindHedge
	case slow:
		kind = KindSlow
	default:
		keep = stride
	}
	if !keep {
		return
	}
	s.Kind = kind
	if s.ID == 0 {
		if id := IDFromContext(ctx); id != 0 {
			s.ID = id
		} else {
			s.ID = NextID()
		}
	}
	r.commit(s)
}

// RecordShed captures an admission shed as a leg-less span — sheds
// never reach the dispatcher, so the admission layer reports them
// directly. Always kept (a shed is a tail exemplar by definition).
func (r *Recorder) RecordShed(id uint64, tier, tenant string, admit uint8) {
	if r == nil {
		return
	}
	r.sheds.Add(1)
	var s Span
	s.Reset(tier, tenant, admit)
	s.Kind = KindShed
	if id == 0 {
		id = NextID()
	}
	s.ID = id
	r.commit(&s)
}

// commit claims the next ring slot and copies the span in. The claim
// is one atomic add; the copy runs under the slot's own lock so a
// concurrent reader (or a writer lapping the ring) can never observe a
// torn record.
func (r *Recorder) commit(s *Span) {
	s.Time = r.epoch + int64(time.Since(r.start))
	r.kinds[s.Kind].Add(1)
	seq := r.seq.Add(1)
	sl := &r.slots[seq&r.mask]
	sl.mu.Lock()
	sl.seq = seq
	sl.span = *s
	sl.mu.Unlock()
}

// Stats is the recorder's reconciliation and exposition view.
type Stats struct {
	// Dispatches counts every Observe call (kept or not); Sheds every
	// RecordShed. Committed is the total spans written to the ring —
	// the sum over Kinds.
	Dispatches int64
	Sheds      int64
	Committed  int64
	// Kinds counts committed spans per capture reason name.
	Kinds map[string]int64
}

// Stats reports the recorder's counters.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	st := Stats{
		Dispatches: r.dispatches.Load(),
		Sheds:      r.sheds.Load(),
		Kinds:      make(map[string]int64, kindCount),
	}
	for k := range r.kinds {
		v := r.kinds[k].Load()
		st.Committed += v
		if v != 0 {
			st.Kinds[KindName(uint8(k))] = v
		}
	}
	return st
}

// Filter selects spans on the read side. Zero fields match everything.
type Filter struct {
	Tier   string
	Tenant string
	// Kind filters by capture reason when HasKind is set (KindSampled
	// is a valid value, so presence needs its own bit).
	Kind    uint8
	HasKind bool
}

func (f Filter) match(s *Span) bool {
	if f.Tier != "" && s.Tier != f.Tier {
		return false
	}
	if f.Tenant != "" && s.Tenant != f.Tenant {
		return false
	}
	if f.HasKind && s.Kind != f.Kind {
		return false
	}
	return true
}

// Recent returns up to max matching spans, newest first.
func (r *Recorder) Recent(f Filter, max int) []Span {
	if r == nil || max <= 0 {
		return nil
	}
	out := make([]Span, 0, min(max, len(r.slots)))
	head := r.seq.Load()
	for i := uint64(0); i < uint64(len(r.slots)) && len(out) < max; i++ {
		sl := &r.slots[(head-i)&r.mask]
		sl.mu.Lock()
		if sl.seq == 0 {
			sl.mu.Unlock()
			continue
		}
		sp := sl.span
		sl.mu.Unlock()
		if f.match(&sp) {
			out = append(out, sp)
		}
	}
	// Commits racing the scan can land out of order relative to the
	// walk; present newest-first regardless.
	slices.SortFunc(out, func(a, b Span) int {
		switch {
		case a.Time > b.Time:
			return -1
		case a.Time < b.Time:
			return 1
		default:
			return 0
		}
	})
	return out
}

// Get returns the span with the given trace id, if the ring still
// holds it (spans are evicted by ring wrap; an id the sampler dropped
// was never held).
func (r *Recorder) Get(id uint64) (Span, bool) {
	if r == nil || id == 0 {
		return Span{}, false
	}
	for i := range r.slots {
		sl := &r.slots[i]
		sl.mu.Lock()
		if sl.seq != 0 && sl.span.ID == id {
			sp := sl.span
			sl.mu.Unlock()
			return sp, true
		}
		sl.mu.Unlock()
	}
	return Span{}, false
}

// P99 reports a tier's cached tail threshold in nanoseconds (0 until
// armed).
func (r *Recorder) P99(tier string) int64 {
	if r == nil {
		return 0
	}
	v, ok := r.tails.Load(tier)
	if !ok {
		return 0
	}
	return v.(*tail).p99.Load()
}

func (r *Recorder) tailFor(tier string, c *Cache) *tail {
	if c != nil && c.t != nil && c.key == tier {
		return c.t
	}
	v, ok := r.tails.Load(tier)
	if !ok {
		v, _ = r.tails.LoadOrStore(tier, newTail())
	}
	t := v.(*tail)
	if c != nil {
		c.key, c.t = tier, t
	}
	return t
}

// Per-tier tail threshold: a lock-free sliding window of observed
// latencies with a lazily refreshed cached p99, the same shape as the
// dispatcher's hedging tracker. The threshold arms only once the
// window is full, so early traffic is never all "slow".
// A request-path specialization stats.Ring cannot replace: BENCH.json BenchmarkTraceObserve (29 ns, 0 allocs) pins it.
const (
	tailWindow  = 128
	tailRefresh = 32
)

type tail struct {
	ring [tailWindow]atomic.Int64
	n    atomic.Uint64
	p99  atomic.Int64 // cached threshold ns; 0 = not armed
	mu   sync.Mutex   // serializes refresh; TryLock so observers never block
}

func newTail() *tail {
	return &tail{}
}

// add feeds one latency into the sliding window; every tailRefresh-th
// addition attempts a threshold refresh behind a TryLock. Callers gate
// this on the head sampler's stride, so the window holds a systematic
// sample of the tier's traffic and arms after stride x tailWindow
// dispatches.
func (t *tail) add(lat int64) {
	i := t.n.Add(1)
	t.ring[(i-1)%tailWindow].Store(lat)
	if i%tailRefresh == 0 && i >= tailWindow {
		t.refresh()
	}
}

func (t *tail) refresh() {
	if !t.mu.TryLock() {
		return
	}
	defer t.mu.Unlock()
	// The ceil(0.99 * 128)-th order statistic of a 128-sample window is
	// its second-largest value, so a top-2 scan replaces a full sort —
	// the refresh is a linear pass of atomic loads, cheap enough to
	// amortize invisibly into the recording fast path.
	var max1, max2 int64
	for i := range t.ring {
		v := t.ring[i].Load()
		switch {
		case v > max1:
			max2, max1 = max1, v
		case v > max2:
			max2 = v
		}
	}
	t.p99.Store(max2)
}

// Trace ids: unique within a fleet with overwhelming probability —
// a splitmix64 permutation of a process-seeded counter, so ids from
// one process never collide and two processes collide only on a 64-bit
// birthday. Zero is reserved for "no id".
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()))
}

// NextID mints a fresh nonzero trace id.
func NextID() uint64 {
	for {
		x := idState.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// FormatID renders a trace id as the 16-hex-digit wire form used in
// the X-Toltiers-Trace header and /trace/{id} URLs.
func FormatID(id uint64) string {
	const hexdig = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdig[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseID parses the wire form back to an id (0, false on garbage).
func ParseID(s string) (uint64, bool) {
	if s == "" || len(s) > 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return v, true
}

// Context plumbing: the middleware parks the request's trace id in the
// context; the dispatcher reads it when committing a span. The batch
// variant carries per-item attribution from a coalesce window flush.
type ctxKey int

const (
	idKey ctxKey = iota
	batchKey
)

// idContext carries a trace id unboxed: one allocation per request where
// context.WithValue makes two, and IDFromContext reads it back without a
// key walk when nothing wraps it (the serving path's case).
type idContext struct {
	context.Context
	id uint64
}

func (c *idContext) Value(key any) any {
	if key == idKey {
		return c.id
	}
	return c.Context.Value(key)
}

// ContextWithID returns a context carrying a trace id.
func ContextWithID(ctx context.Context, id uint64) context.Context {
	return &idContext{Context: ctx, id: id}
}

// IDFromContext extracts the trace id (0 = none).
func IDFromContext(ctx context.Context) uint64 {
	if c, ok := ctx.(*idContext); ok {
		return c.id
	}
	if v, ok := ctx.Value(idKey).(uint64); ok {
		return v
	}
	return 0
}

// BatchMeta is a coalesce flush's per-item span attribution: the
// window id, each item's park time in the window, and each item's
// caller trace id. Slices are indexed by batch item position and may
// be shorter than the batch (missing entries mean "no attribution").
// The coalescer reuses one BatchMeta per pooled window.
type BatchMeta struct {
	Window uint64
	Park   []int64
	IDs    []uint64
}

// ContextWithBatch returns a context carrying batch attribution.
func ContextWithBatch(ctx context.Context, bm *BatchMeta) context.Context {
	return context.WithValue(ctx, batchKey, bm)
}

// BatchFromContext extracts batch attribution (nil = none).
func BatchFromContext(ctx context.Context) *BatchMeta {
	if v, ok := ctx.Value(batchKey).(*BatchMeta); ok {
		return v
	}
	return nil
}
