package ensemble

import (
	"time"

	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/xrand"
)

// Evaluator is the columnar fast path for the Fig.-7 bootstrap: it
// evaluates routing policies against a fixed training-row subset of a
// profile matrix by fusing each policy into a flat per-row outcome
// table. A bootstrap trial then reduces to summing contiguous float64
// lanes over the subset — no Cell loads, no branches, no allocations —
// while reproducing Policy.Simulate's arithmetic bit-for-bit (every
// fused entry performs the same float64 operations in the same order as
// the row-oriented path).
//
// An Evaluator is not safe for concurrent use; the rule generator gives
// each worker its own.
type Evaluator struct {
	rows int // number of training rows (local indices 0..rows-1)

	// cols holds the per-version metric columns gathered over the
	// training rows, indexed [version][local row]. Gathering once up
	// front makes every SetPolicy fill a walk over dense slices; the set
	// is read-only and may be shared with other evaluators
	// (NewEvaluatorFromColumns), so the rule generator's bootstrap
	// workers don't re-gather identical columns.
	cols *ColumnSet

	// Escalation mask cache for the current (primary, threshold) pair,
	// kept as two dense index lists: accIdx holds the rows the primary's
	// confidence clears, escIdx the rows that escalate. Consecutive
	// candidates share a primary and threshold across secondaries,
	// kinds, and PickBest variants, so the mask — the only per-row
	// comparison — is computed once per pair, and the policy fills that
	// follow iterate each list without a data-dependent branch per row
	// (a 50/50 escalation mask mispredicts badly when tested inline).
	maskPrimary int
	maskThresh  float64
	maskValid   bool
	accIdx      []int32
	escIdx      []int32

	// out is the fused outcome table for the policy set via SetPolicy:
	// fusedStride float64 lanes per row (error, latency ns, invocation
	// cost, IaaS cost, escalation flag, baseline error, padding).
	// Bootstrap subsets visit rows in random order, so the lanes a trial
	// reads are interleaved and the stride padded to 64 bytes: one
	// gathered row costs one cache line instead of six.
	out []float64

	// Content trackers for the fused table, valid only while the mask is
	// unchanged. Accepted rows' lanes depend on (kind, secondary) alone
	// — and for Failover on the primary alone — while escalated rows'
	// lanes factor into err (secondary, PickBest), lat (kind, secondary)
	// and inv/iaas/escal (secondary). Tracking what each half currently
	// holds lets SetPolicy rewrite only the stale lanes as the rule
	// generator walks secondaries, kinds, and PickBest variants within a
	// (primary, threshold) group.
	accValid bool
	accKind  Kind
	accSec   int
	escValid bool
	escSec   int
	escPick  bool
	escKind  Kind

	// subset is DrawTrial's row buffer on hosts without xrand's kernel.
	subset []int
}

// Fused-lane offsets within one out row.
const (
	laneErr   = 0
	laneLat   = 1
	laneInv   = 2
	laneIaaS  = 3
	laneEscal = 4
	laneBase  = 5
	// fusedStride pads each fused row to 8 lanes = 64 bytes, one cache
	// line, so random gathers never straddle lines.
	fusedStride = 8
)

// TrialSums are the raw per-subset sums of one bootstrap trial.
type TrialSums struct {
	N          int
	ErrSum     float64
	LatNsSum   float64
	InvSum     float64
	IaaSSum    float64
	EscalSum   float64
	BaseErrSum float64
}

// NewEvaluator gathers the matrix columns for the given training rows
// (nil = all rows). The gather is O(rows x versions) and paid once; the
// evaluator is then reused across every candidate policy. Callers that
// build many evaluators over the same (matrix, rows) pair should gather
// once with GatherColumns and use NewEvaluatorFromColumns instead.
func NewEvaluator(m *profile.Matrix, rows []int) *Evaluator {
	return NewEvaluatorFromColumns(GatherColumns(m, rows))
}

// NewEvaluatorFromColumns builds an evaluator over an already-gathered
// column set, sharing it rather than copying: only the evaluator's
// mutable scratch (fused outcome table, escalation mask) is allocated.
// Any number of evaluators may share one set concurrently; the set is
// never written.
func NewEvaluatorFromColumns(cols *ColumnSet) *Evaluator {
	n := cols.NumRows()
	return &Evaluator{
		rows:   n,
		cols:   cols,
		accIdx: make([]int32, 0, n),
		escIdx: make([]int32, 0, n),
		out:    make([]float64, n*fusedStride),
	}
}

// NumRows returns the number of training rows the evaluator covers.
func (e *Evaluator) NumRows() int { return e.rows }

// SetBaseline selects the baseline version whose error is summed into
// every trial (the most accurate version on the training rows), by
// writing its error column into the fused table's laneBase — the lane
// no SetPolicy fill touches.
func (e *Evaluator) SetBaseline(version int) {
	for r, b := range e.cols.err[version] {
		e.out[r*fusedStride+laneBase] = b
	}
}

// setMask (re)computes the escalation index lists: accIdx collects the
// rows with conf[primary] >= threshold, escIdx the rest. The cached
// lists are reused when the (primary, threshold) pair is unchanged;
// recomputing them invalidates the fused-table content trackers.
func (e *Evaluator) setMask(primary int, threshold float64) {
	if e.maskValid && e.maskPrimary == primary && e.maskThresh == threshold {
		return
	}
	e.accIdx, e.escIdx = e.accIdx[:0], e.escIdx[:0]
	pc := e.cols.conf[primary]
	for r, c := range pc {
		if c >= threshold {
			e.accIdx = append(e.accIdx, int32(r))
		} else {
			e.escIdx = append(e.escIdx, int32(r))
		}
	}
	e.maskPrimary, e.maskThresh, e.maskValid = primary, threshold, true
	e.accValid, e.escValid = false, false
}

// SetPolicy fuses p into the per-row outcome table. Each fused row
// replays exactly the float64 operations Policy.Simulate performs for
// that row, so downstream sums match the row-oriented path bit-for-bit.
// While the (primary, threshold) mask is unchanged, content trackers
// record what each half of the table holds and only stale lanes are
// rewritten — e.g. walking secondaries under a fixed Failover primary
// never refills the accepted rows. Patched values are the same floats a
// full fill would store, so exactness is unaffected.
func (e *Evaluator) SetPolicy(p Policy) {
	pe, pl, pv, pi := e.cols.err[p.Primary], e.cols.latNs[p.Primary], e.cols.inv[p.Primary], e.cols.iaas[p.Primary]
	out := e.out
	if p.Kind == Single {
		for r := 0; r < e.rows; r++ {
			f := out[r*fusedStride : r*fusedStride+laneBase]
			f[laneErr] = pe[r]
			f[laneLat] = pl[r]
			f[laneInv] = pv[r]
			f[laneIaaS] = pi[r]
			f[laneEscal] = 0
		}
		// The fill clobbered every row, including the escalated rows of
		// whatever mask is cached.
		e.accValid, e.escValid = false, false
		return
	}
	if p.Kind != Failover && p.Kind != Concurrent {
		panic("ensemble: evaluator supports Single, Failover, Concurrent")
	}
	e.setMask(p.Primary, p.Threshold)
	e.fillAccept(p, out, pe, pl, pv, pi)
	e.fillEscalate(p, out, pe, pl, pv, pi)
}

// fillAccept brings the accepted rows' lanes up to date for p. Their
// error/latency/escalation lanes depend only on the primary (fixed
// while the mask is valid); the cost lanes additionally depend on the
// kind and, for Concurrent, the secondary.
func (e *Evaluator) fillAccept(p Policy, out, pe, pl, pv, pi []float64) {
	costsCurrent := e.accValid && e.accKind == p.Kind &&
		(p.Kind == Failover || e.accSec == p.Secondary)
	if costsCurrent {
		return
	}
	baseCurrent := e.accValid // err/lat/escal lanes already hold the primary's values
	e.accValid, e.accKind, e.accSec = true, p.Kind, p.Secondary
	if p.Kind == Failover {
		for _, r32 := range e.accIdx {
			r := int(r32)
			f := out[r*fusedStride : r*fusedStride+laneBase]
			if !baseCurrent {
				f[laneErr] = pe[r]
				f[laneLat] = pl[r]
				f[laneEscal] = 0
			}
			f[laneInv] = pv[r]
			f[laneIaaS] = pi[r]
		}
		return
	}
	sl, sv, si := e.cols.latNs[p.Secondary], e.cols.inv[p.Secondary], e.cols.iaas[p.Secondary]
	for _, r32 := range e.accIdx {
		r := int(r32)
		f := out[r*fusedStride : r*fusedStride+laneBase]
		if !baseCurrent {
			f[laneErr] = pe[r]
			f[laneLat] = pl[r]
			f[laneEscal] = 0
		}
		// Early termination: the cancelled secondary's node was busy
		// for min(latencies); bill its IaaS pro rata.
		cancelled := sl[r]
		if pl[r] < cancelled {
			cancelled = pl[r]
		}
		den := sl[r]
		if den < 1 {
			den = 1
		}
		f[laneInv] = pv[r] + sv[r]
		f[laneIaaS] = pi[r] + si[r]*cancelled/den
	}
}

// fillEscalate brings the escalated rows' lanes up to date for p. The
// error lane depends on (secondary, PickBest), the latency lane on
// (kind, secondary), and the cost/escalation lanes on the secondary
// alone.
func (e *Evaluator) fillEscalate(p Policy, out, pe, pl, pv, pi []float64) {
	se, sl, sv, si := e.cols.err[p.Secondary], e.cols.latNs[p.Secondary], e.cols.inv[p.Secondary], e.cols.iaas[p.Secondary]
	pc, sc := e.cols.conf[p.Primary], e.cols.conf[p.Secondary]
	sameSec := e.escValid && e.escSec == p.Secondary
	errCurrent := sameSec && e.escPick == p.PickBest
	latCurrent := sameSec && e.escKind == p.Kind
	e.escValid, e.escSec, e.escPick, e.escKind = true, p.Secondary, p.PickBest, p.Kind
	if errCurrent && latCurrent {
		return
	}
	if sameSec {
		// Cost and escalation lanes are already correct: patch only the
		// stale error and/or latency lane.
		if !errCurrent {
			for _, r32 := range e.escIdx {
				r := int(r32)
				errv := se[r]
				if p.PickBest && pc[r] > sc[r] {
					errv = pe[r]
				}
				out[r*fusedStride+laneErr] = errv
			}
		}
		if !latCurrent {
			if p.Kind == Failover {
				for _, r32 := range e.escIdx {
					r := int(r32)
					out[r*fusedStride+laneLat] = pl[r] + sl[r]
				}
			} else {
				for _, r32 := range e.escIdx {
					r := int(r32)
					lat := pl[r]
					if sl[r] > lat {
						lat = sl[r]
					}
					out[r*fusedStride+laneLat] = lat
				}
			}
		}
		return
	}
	fo := p.Kind == Failover
	for _, r32 := range e.escIdx {
		r := int(r32)
		f := out[r*fusedStride : r*fusedStride+laneBase]
		errv := se[r]
		if p.PickBest && pc[r] > sc[r] {
			errv = pe[r]
		}
		lat := pl[r]
		if fo {
			lat += sl[r]
		} else if sl[r] > lat {
			lat = sl[r]
		}
		f[laneErr] = errv
		f[laneLat] = lat
		f[laneInv] = pv[r] + sv[r]
		f[laneIaaS] = pi[r] + si[r]
		f[laneEscal] = 1
	}
}

// Trial sums the fused outcome lanes over one bootstrap subset of local
// row indices (nil = all rows). This is the entire per-trial work of
// the Fig.-7 bootstrap: six adds per row out of a single cache line.
//
// The six sums are locals, built into a TrialSums once on return: the
// compiler keeps a struct of more than four fields in memory, so a += on
// a field would be a load and a store per lane per row.
func (e *Evaluator) Trial(subset []int) TrialSums {
	out := e.out
	var errSum, latSum, invSum, iaasSum, escalSum, baseSum float64
	n := len(subset)
	if subset == nil {
		n = e.rows
		for r := 0; r < e.rows; r++ {
			f := out[r*fusedStride : r*fusedStride+laneBase+1]
			errSum += f[laneErr]
			latSum += f[laneLat]
			invSum += f[laneInv]
			iaasSum += f[laneIaaS]
			escalSum += f[laneEscal]
			baseSum += f[laneBase]
		}
	} else {
		// Note: rows must be accumulated one at a time, in subset order —
		// float64 addition is not associative, and bit-exact agreement with
		// the row-oriented Evaluate path is part of this kernel's contract.
		for _, r := range subset {
			f := out[r*fusedStride : r*fusedStride+laneBase+1]
			errSum += f[laneErr]
			latSum += f[laneLat]
			invSum += f[laneInv]
			iaasSum += f[laneIaaS]
			escalSum += f[laneEscal]
			baseSum += f[laneBase]
		}
	}
	return TrialSums{N: n, ErrSum: errSum, LatNsSum: latSum, InvSum: invSum,
		IaaSSum: iaasSum, EscalSum: escalSum, BaseErrSum: baseSum}
}

// DrawTrial runs one bootstrap trial: it draws k training rows with
// rng.FillIntn (with replacement) and sums their fused lanes in draw
// order. Where xrand.HasSumRows8, the draw and the sum are one AVX2
// pass; elsewhere it is FillIntn followed by Trial. Both give the same
// sums bit for bit and leave rng in the same state.
func (e *Evaluator) DrawTrial(rng *xrand.RNG, k int) TrialSums {
	if xrand.HasSumRows8 {
		s := rng.SumRows8(e.out, e.rows, k)
		return TrialSums{N: k, ErrSum: s[laneErr], LatNsSum: s[laneLat], InvSum: s[laneInv],
			IaaSSum: s[laneIaaS], EscalSum: s[laneEscal], BaseErrSum: s[laneBase]}
	}
	if e.subset == nil || cap(e.subset) < k {
		e.subset = make([]int, k)
	}
	e.subset = e.subset[:k]
	rng.FillIntn(e.subset, e.rows)
	return e.Trial(e.subset)
}

// Aggregate runs Trial and converts the sums into the legacy Evaluate
// aggregate, reproducing its arithmetic exactly: latency means use the
// same integer nanosecond division, and every float64 sum accumulates
// in the same order over the same values.
func (e *Evaluator) Aggregate(subset []int) Aggregate {
	t := e.Trial(subset)
	if t.N == 0 {
		return Aggregate{}
	}
	n := float64(t.N)
	return Aggregate{
		N:              t.N,
		MeanErr:        t.ErrSum / n,
		MeanLatency:    time.Duration(t.LatNsSum) / time.Duration(t.N),
		MeanInvCost:    t.InvSum / n,
		MeanIaaSCost:   t.IaaSSum / n,
		EscalationRate: t.EscalSum / n,
	}
}
