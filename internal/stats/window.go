package stats

import (
	"math"
	"sync"
	"sync/atomic"
)

// Window is a sliding window over the most recent samples with a cached
// order statistic and a cached minimum: the node's one estimator of a
// backend's or tier's recent tail latency (the dispatcher's deadline
// hedge and admission floor, the flight recorder's slow-trace
// threshold, a fleet worker's p95, a canary arm's p95). Add, Quantile
// and Min are lock-free and safe for concurrent use. A refresh racing
// in-flight stores may read a mix of window generations; the estimate
// is statistical, and every slot read is a torn-free atomic.
//
// The minimum keeps its own staleness mark: the admission gate reads it
// once per coalesced window, and each window lands a dozen samples per
// leg, so a mark shared with the quantile would rerun the quickselect
// on nearly every read.
type Window struct {
	// base is the construction-time quantile; q carries the currently
	// active one as float bits so the drift controller can boost it
	// (and later restore base) without stopping dispatch.
	base      float64
	arm       uint64        // samples before Quantile and Min read anything but NaN
	every     uint64        // samples between quantile refreshes
	mask      uint64        // len(slots)-1
	q         atomic.Uint64 // float64 bits of the active quantile
	total     atomic.Uint64 // lifetime sample count (ring cursor)
	refreshAt atomic.Uint64 // total from which the quantile cache is stale
	cached    atomic.Uint64 // float64 bits of the order statistic; NaN until armed
	minAt     atomic.Uint64 // total at the last minimum refresh (0 = never)
	minCached atomic.Uint64 // float64 bits of the window minimum; NaN until armed
	slots     []atomic.Uint64

	refreshMu sync.Mutex
	scratch   []float64
}

// NewWindow returns a window over the most recent size samples (rounded
// up to a power of two) whose Quantile is the order statistic at index
// int(q·(n−1)) of the n samples held, NaN until arm samples have been
// added and recomputed once every `every` samples. q must lie in
// (0, 1); every = 1 reads the window as it stands.
func NewWindow(size, arm, every int, q float64) *Window {
	n := 1
	for n < size {
		n <<= 1
	}
	w := &Window{
		base:    q,
		arm:     uint64(arm),
		every:   uint64(every),
		mask:    uint64(n - 1),
		slots:   make([]atomic.Uint64, n),
		scratch: make([]float64, 0, n),
	}
	w.q.Store(math.Float64bits(q))
	w.refreshAt.Store(w.arm)
	w.cached.Store(math.Float64bits(math.NaN()))
	w.minCached.Store(math.Float64bits(math.NaN()))
	return w
}

// SetQuantile swaps the active quantile — the drift controller raises
// a backend's while a heal is in flight so tail latency is defended
// through the vulnerable window. A q outside (0, 1) restores the
// construction-time one. The cache is invalidated so the next read
// reflects the new quantile instead of serving the old one for up to
// `every` samples.
func (w *Window) SetQuantile(q float64) {
	if q <= 0 || q >= 1 {
		q = w.base
	}
	w.q.Store(math.Float64bits(q))
	w.refreshAt.Store(w.arm)
}

// Add folds one sample into the window: one atomic add to claim the
// slot, one atomic store of the sample.
func (w *Window) Add(x float64) {
	n := w.total.Add(1)
	w.slots[(n-1)&w.mask].Store(math.Float64bits(x))
}

// Quantile returns the cached order statistic, or NaN until the window
// is armed. The cache refreshes on read once armed and then whenever it
// is `every` samples stale; otherwise this is three atomic loads, safe
// to call at request rate from any goroutine.
func (w *Window) Quantile() float64 {
	if w.total.Load() >= w.refreshAt.Load() {
		w.refresh()
	}
	return math.Float64frombits(w.cached.Load())
}

// refresh recomputes the cached order statistic by quickselect under
// TryLock, so concurrent readers never queue behind a refresh: at most
// one recomputes while the rest read the previous cache, and a later
// reader picks up a skipped refresh.
func (w *Window) refresh() {
	if !w.refreshMu.TryLock() {
		return
	}
	defer w.refreshMu.Unlock()
	// Re-load under the lock: serialized refreshers then store strictly
	// increasing refreshAt values, so the mark can never move backwards
	// and re-arm the staleness check.
	n := w.total.Load()
	s := w.scratch[:0]
	for i := range min(n, w.mask+1) {
		// A slot whose Add claimed the cursor but has not stored yet
		// reads as zero bits; skip it rather than folding a fabricated
		// 0ns sample into the quantile. (A true 0.0 sample shares the
		// bit pattern and is dropped too — harmless for an upper
		// latency quantile.)
		if bits := w.slots[i].Load(); bits != 0 {
			s = append(s, math.Float64frombits(bits))
		}
	}
	w.scratch = s
	if len(s) == 0 {
		return
	}
	idx := int(math.Float64frombits(w.q.Load()) * float64(len(s)-1))
	w.cached.Store(math.Float64bits(selectKth(s, idx)))
	w.refreshAt.Store(n + w.every)
}

// Min returns the smallest sample in the window, or NaN until the
// window is armed. Any sample since the last read stales it, and the
// refresh is one lock-free min pass over the window (no scratch, no
// selection). Racing refreshers may store out of order; the loser's
// minimum is at most a few samples old, and the mark it leaves only
// triggers another pass.
func (w *Window) Min() float64 {
	n := w.total.Load()
	if n < w.arm {
		return math.NaN()
	}
	if w.minAt.Load() != n {
		lo := math.Inf(1)
		for i := range min(n, w.mask+1) {
			// Zero bits are a claimed but unstored slot, skipped as in
			// refresh.
			if bits := w.slots[i].Load(); bits != 0 {
				if v := math.Float64frombits(bits); v < lo {
					lo = v
				}
			}
		}
		if lo < math.Inf(1) {
			w.minCached.Store(math.Float64bits(lo))
		}
		w.minAt.Store(n)
	}
	return math.Float64frombits(w.minCached.Load())
}

// selectKth returns the k-th smallest element of s, partially
// reordering s in place (Hoare quickselect with median-of-three
// pivots). A refresh only needs one order statistic, and a full sort of
// the window on every refresh used to dominate the replay dispatch
// profile.
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
