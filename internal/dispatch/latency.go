package dispatch

import (
	"math"
	"sync"
	"sync/atomic"
)

// latencyTracker keeps a sliding window of a backend's recently observed
// latencies and a cached upper quantile of it, for the dispatcher's
// deadline-aware hedging decision.
//
// Both sides of the tracker are lock-free on the dispatch path: observe
// claims a ring slot with one atomic add and stores the sample with one
// atomic store, and estimate/shouldHedge read the cached quantile with
// atomic loads (float64 carried as bits in an atomic.Uint64). The
// quantile cache is refreshed lazily by readers, at most once every
// trackerRefresh observations: requests without a deadline never
// consult the estimate, so pure-throughput traffic pays nothing for it,
// and a deadline-annotated request at worst runs one quickselect over
// the 128-entry window per refresh interval. The refresher takes a
// private mutex via TryLock, so concurrent readers never queue behind a
// refresh: at most one recomputes while the rest read the previous
// cache. A refresh racing in-flight stores may read a mix of window
// generations; the estimate is statistical, and every slot read is a
// torn-free atomic.
//
// The window minimum (the admission floor) keeps its own staleness mark
// and is refreshed by a plain min pass, never by the quickselect: the
// admission gate reads it once per coalesced window, and each window
// lands a dozen observations per leg, so a shared mark would rerun the
// quickselect on nearly every gate call.
// A request-path specialization stats.Ring cannot replace: BENCH.json BenchmarkDispatch/parallel (0 allocs, no lock) pins it.
type latencyTracker struct {
	// base is the construction-time quantile; quantile carries the
	// currently active one as float bits so the drift controller can
	// boost it (and later restore base) without stopping dispatch.
	base        float64
	quantile    atomic.Uint64 // float64 bits of the active quantile
	total       atomic.Uint64 // lifetime observation count (ring cursor)
	refreshedAt atomic.Uint64 // total at the last cache refresh (0 = never)
	cached      atomic.Uint64 // float64 bits; NaN until trackerMinSamples
	floorAt     atomic.Uint64 // total at the last floor refresh (0 = never)
	floorCached atomic.Uint64 // float64 bits of the window minimum; NaN until trackerMinSamples
	window      [trackerWindow]atomic.Uint64

	refreshMu sync.Mutex
	scratch   []float64
}

const (
	trackerWindow  = 128
	trackerRefresh = 16
	// trackerMinSamples gates the estimate: a single cold-start outlier
	// must not arm (or suppress) hedging for every following request.
	trackerMinSamples = 8
)

func newLatencyTracker(quantile float64) *latencyTracker {
	t := &latencyTracker{
		base:    quantile,
		scratch: make([]float64, 0, trackerWindow),
	}
	t.quantile.Store(math.Float64bits(quantile))
	t.cached.Store(math.Float64bits(math.NaN()))
	t.floorCached.Store(math.Float64bits(math.NaN()))
	return t
}

// setQuantile swaps the active quantile — the drift controller raises
// it for alarmed backends while a heal is in flight so tail latency is
// defended through the vulnerable window. A q outside (0, 1) restores
// the construction-time base. The cache is invalidated so the next
// estimate reflects the new quantile instead of serving the old one for
// up to trackerRefresh observations.
func (t *latencyTracker) setQuantile(q float64) {
	if q <= 0 || q >= 1 {
		q = t.base
	}
	t.quantile.Store(math.Float64bits(q))
	t.refreshedAt.Store(0)
}

// observe folds one latency observation (in ns) into the window: one
// atomic add to claim the slot, one atomic store of the sample.
func (t *latencyTracker) observe(ns float64) {
	n := t.total.Add(1)
	t.window[(n-1)%trackerWindow].Store(math.Float64bits(ns))
}

// refresh recomputes the cached quantile from the current window
// (nearest-rank via quickselect). Contended refreshes are skipped: the
// caller reads the previous cache and a later reader picks the work up.
func (t *latencyTracker) refresh() {
	if !t.refreshMu.TryLock() {
		return
	}
	defer t.refreshMu.Unlock()
	// Re-load under the lock: serialized refreshers then store strictly
	// increasing refreshedAt values, so the mark can never move
	// backwards and re-arm the staleness check.
	n := t.total.Load()
	fill := int(n)
	if fill > trackerWindow {
		fill = trackerWindow
	}
	if fill == 0 {
		return
	}
	s := t.scratch[:0]
	for i := 0; i < fill; i++ {
		// A slot whose observe claimed the cursor but has not stored yet
		// reads as zero bits; skip it rather than folding a fabricated
		// 0ns sample into the quantile. (A true 0.0 observation shares
		// the bit pattern and is dropped too — harmless for an upper
		// latency quantile.)
		if bits := t.window[i].Load(); bits != 0 {
			s = append(s, math.Float64frombits(bits))
		}
	}
	t.scratch = s
	if len(s) == 0 {
		return
	}
	idx := int(math.Float64frombits(t.quantile.Load()) * float64(len(s)-1))
	t.cached.Store(math.Float64bits(selectKth(s, idx)))
	t.refreshedAt.Store(n)
}

// selectKth returns the k-th smallest element of s, partially
// reordering s in place (Hoare quickselect with median-of-three
// pivots). The refresh only needs one order statistic, and a full sort
// of the window every trackerRefresh observations used to dominate the
// replay dispatch profile.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		// Median-of-three pivot, moved to s[lo].
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if s[i] >= pivot {
					break
				}
			}
			for {
				j--
				if s[j] <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return s[k]
}

// estimate returns the cached latency quantile in ns, or NaN when too
// few observations have arrived to say anything. The cache refreshes on
// read when it is at least trackerRefresh observations stale; otherwise
// this is two atomic loads, safe to call at request rate from any
// goroutine.
func (t *latencyTracker) estimate() float64 {
	t.maybeRefresh()
	return math.Float64frombits(t.cached.Load())
}

// estimateFloor returns the window-minimum latency in ns — the empirical
// floor of the backend's recent latency, which admission compares
// deadline budgets against — or NaN when too few observations have
// arrived. Any observation since the last read stales it, and the
// refresh is one lock-free min pass over the window (no scratch, no
// selection). Racing refreshers may store out of order; the loser's
// floor is at most a few observations old, and the mark it leaves only
// triggers another pass.
func (t *latencyTracker) estimateFloor() float64 {
	n := t.total.Load()
	if n < trackerMinSamples {
		return math.NaN()
	}
	if t.floorAt.Load() != n {
		floor := math.Inf(1)
		for i := range min(n, trackerWindow) {
			// Zero bits are a claimed but unstored slot, skipped as in
			// refresh.
			if bits := t.window[i].Load(); bits != 0 {
				if v := math.Float64frombits(bits); v < floor {
					floor = v
				}
			}
		}
		if floor < math.Inf(1) {
			t.floorCached.Store(math.Float64bits(floor))
		}
		t.floorAt.Store(n)
	}
	return math.Float64frombits(t.floorCached.Load())
}

// maybeRefresh recomputes the quantile cache when it is at least
// trackerRefresh observations stale; otherwise it is two atomic loads.
func (t *latencyTracker) maybeRefresh() {
	n := t.total.Load()
	if n < trackerMinSamples {
		return
	}
	// The r < n guard keeps a racing reader whose n predates another
	// reader's fresher refresh mark from underflowing the staleness
	// subtraction and spuriously re-refreshing.
	if r := t.refreshedAt.Load(); r == 0 || (r < n && n-r >= trackerRefresh) {
		t.refresh()
	}
}
