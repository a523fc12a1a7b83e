package drift

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/stats"
)

// Canary promotion: a heal's regenerated rule tables first serve only a
// deterministic slice of traffic, marked dispatch.Ticket.Canary. The
// Monitor implements dispatch.CanaryObserver, so those outcomes land in
// a trial's canary arm while the regular observer path feeds the
// incumbent arm — two live telemetry accumulators over the same clock,
// the same backends and (statistically) the same request mix. The
// verdict compares them per tier and the server promotes the candidate
// registry only on a win.

// canaryLatRing bounds each arm's latency reservoir: enough samples for
// a stable p95 without unbounded growth on a long trial. The verdict
// reads the reservoir as it stands.
const canaryLatRing = 512

// canaryArm accumulates one side of the comparison. Guarded by the
// owning trial's mutex.
type canaryArm struct {
	n        int64 // observed dispatches, failures included
	failures int64
	errN     int64
	errMean  float64 // Welford over graded errors (failures graded 1)
	errM2    float64
	lat      *stats.Window // latency reservoir, ns
}

func newCanaryArm() canaryArm { return canaryArm{lat: stats.NewWindow(canaryLatRing, 1, 1, 0.95)} }

func (a *canaryArm) observeErr(e float64) {
	a.errN++
	d := e - a.errMean
	a.errMean += d / float64(a.errN)
	a.errM2 += d * (e - a.errMean)
}

func (a *canaryArm) observeOutcome(o *dispatch.Outcome) {
	a.n++
	if !math.IsNaN(o.Err) {
		a.observeErr(o.Err)
	}
	a.lat.Add(float64(o.Latency))
}

// observeFailure folds a failed dispatch as a maximal-error
// observation, mirroring the detector windows' treatment: an arm that
// breaks its backends must lose the error comparison, not dodge it.
func (a *canaryArm) observeFailure() {
	a.n++
	a.failures++
	a.observeErr(1)
}

func (a *canaryArm) errVar() float64 {
	if a.errN < 2 {
		return 0
	}
	return a.errM2 / float64(a.errN-1)
}

// canaryTierTrial is one tier's pair of arms.
type canaryTierTrial struct {
	canary, incumbent canaryArm
}

// canaryTrial is one heal's live comparison. A single mutex guards the
// tier map and every arm: trials are rare and bounded, and only traffic
// during a trial pays the lock.
type canaryTrial struct {
	started time.Time
	mu      sync.Mutex
	tiers   map[string]*canaryTierTrial
}

// tier returns the tier's arms, registering on first sight. Called with
// t.mu held.
func (t *canaryTrial) tier(name string) *canaryTierTrial {
	tt := t.tiers[name]
	if tt == nil {
		tt = &canaryTierTrial{canary: newCanaryArm(), incumbent: newCanaryArm()}
		t.tiers[name] = tt
	}
	return tt
}

func (t *canaryTrial) observeIncumbent(tier string, o *dispatch.Outcome) {
	t.mu.Lock()
	t.tier(tier).incumbent.observeOutcome(o)
	t.mu.Unlock()
}

func (t *canaryTrial) observeIncumbentFailure(tier string) {
	t.mu.Lock()
	t.tier(tier).incumbent.observeFailure()
	t.mu.Unlock()
}

// StartCanaryTrial opens a fresh canary-vs-incumbent comparison. The
// server calls it the moment a heal's candidate registry starts serving
// its traffic slice; the trial ends with FinishHeal, whatever the
// verdict.
func (m *Monitor) StartCanaryTrial(now time.Time) {
	m.trial.Store(&canaryTrial{started: now, tiers: make(map[string]*canaryTierTrial)})
}

// ObserveCanaryOutcome implements dispatch.CanaryObserver: outcomes of
// canary-marked tickets feed the trial's canary arm and deliberately
// never the drift detectors — the trial must not corrupt the baselines
// it is judged against. Without a live trial (a straggling in-flight
// dispatch finishing after the verdict) the outcome is dropped.
func (m *Monitor) ObserveCanaryOutcome(tier string, o *dispatch.Outcome) {
	t := m.trial.Load()
	if t == nil || !m.enabled.Load() {
		return
	}
	t.mu.Lock()
	t.tier(tier).canary.observeOutcome(o)
	t.mu.Unlock()
}

// ObserveCanaryFailure implements dispatch.CanaryObserver for canary
// dispatches whose backend legs all failed.
func (m *Monitor) ObserveCanaryFailure(tier string) {
	t := m.trial.Load()
	if t == nil || !m.enabled.Load() {
		return
	}
	t.mu.Lock()
	t.tier(tier).canary.observeFailure()
	t.mu.Unlock()
}

// Canary verdict actions.
const (
	CanaryPending = "pending" // keep trialing
	CanaryPromote = "promote" // candidate wins; swap it in
	CanaryReject  = "reject"  // candidate loses; roll back
)

// CanaryTierVerdict is one tier's side of the comparison.
type CanaryTierVerdict struct {
	Tier                    string
	CanaryN, IncumbentN     int64
	CanaryErr, IncumbentErr float64
	// The arms' reservoir p95s, NaN while an arm holds no latency sample.
	CanaryP95Ns, IncumbentP95Ns float64
	// Ready reports both arms reached CanaryMinSamples; Pass the canary
	// won (only meaningful when Ready).
	Ready, Pass bool
	Reason      string
}

// CanaryDecision is the verdict controller's output.
type CanaryDecision struct {
	Action string // CanaryPending | CanaryPromote | CanaryReject
	Reason string
	Tiers  []CanaryTierVerdict
}

// CanaryVerdict compares the live trial's arms per tier. A tier is
// ready once both arms hold CanaryMinSamples observations; a ready
// tier passes when the canary's mean error stays within CanaryErrSigma
// combined standard errors of the incumbent's AND its reservoir p95
// within (1+CanaryLatSlack) of the incumbent's. Any ready tier failing
// rejects immediately (no reason to keep serving a losing table); all
// observed tiers ready and passing promotes; past CanaryMaxDuration
// the verdict is forced from the evidence at hand — at least one pass
// and no fail promotes, anything else (including a starved trial with
// no ready tier) rejects.
func (m *Monitor) CanaryVerdict(now time.Time) CanaryDecision {
	t := m.trial.Load()
	if t == nil {
		return CanaryDecision{Action: CanaryPending, Reason: "no live trial"}
	}
	cfg := m.Config()

	t.mu.Lock()
	names := make([]string, 0, len(t.tiers))
	for name := range t.tiers {
		names = append(names, name)
	}
	sort.Strings(names)
	d := CanaryDecision{Action: CanaryPending}
	ready, passed, failed := 0, 0, 0
	for _, name := range names {
		tt := t.tiers[name]
		v := CanaryTierVerdict{
			Tier:           name,
			CanaryN:        tt.canary.n,
			IncumbentN:     tt.incumbent.n,
			CanaryErr:      tt.canary.errMean,
			IncumbentErr:   tt.incumbent.errMean,
			CanaryP95Ns:    tt.canary.lat.Quantile(),
			IncumbentP95Ns: tt.incumbent.lat.Quantile(),
		}
		v.Ready = tt.canary.n >= int64(cfg.CanaryMinSamples) && tt.incumbent.n >= int64(cfg.CanaryMinSamples)
		if !v.Ready {
			v.Reason = fmt.Sprintf("gathering (canary %d, incumbent %d of %d)",
				tt.canary.n, tt.incumbent.n, cfg.CanaryMinSamples)
			d.Tiers = append(d.Tiers, v)
			continue
		}
		ready++
		// Two-sample comparison on mean error: the canary wins unless it
		// is worse beyond the combined standard error times the
		// configured sigma — the tier's own live confidence interval.
		se := math.Sqrt(tt.canary.errVar()/float64(maxI64(tt.canary.errN, 1)) +
			tt.incumbent.errVar()/float64(maxI64(tt.incumbent.errN, 1)))
		errPass := v.CanaryErr <= v.IncumbentErr+cfg.CanaryErrSigma*se+1e-12
		// An arm with no latency sample (all failures) reads NaN, which
		// compares false: it never fails the latency test.
		latPass := !(v.CanaryP95Ns > v.IncumbentP95Ns*(1+cfg.CanaryLatSlack))
		v.Pass = errPass && latPass
		switch {
		case v.Pass:
			passed++
			v.Reason = "pass"
		case !errPass:
			failed++
			v.Reason = fmt.Sprintf("err %.4f beyond incumbent %.4f + %gσ(%.4f)",
				v.CanaryErr, v.IncumbentErr, cfg.CanaryErrSigma, se)
		default:
			failed++
			v.Reason = fmt.Sprintf("p95 %.2fms beyond incumbent %.2fms +%g%%",
				v.CanaryP95Ns/1e6, v.IncumbentP95Ns/1e6, cfg.CanaryLatSlack*100)
		}
		d.Tiers = append(d.Tiers, v)
	}
	nTiers := len(t.tiers)
	t.mu.Unlock()

	expired := cfg.CanaryMaxDuration > 0 && now.Sub(t.started) >= cfg.CanaryMaxDuration
	switch {
	case failed > 0:
		d.Action = CanaryReject
		d.Reason = rejectReason(d.Tiers)
	case ready == nTiers && nTiers > 0 && passed > 0:
		d.Action = CanaryPromote
		d.Reason = fmt.Sprintf("%d/%d tiers pass", passed, nTiers)
	case expired && passed > 0:
		d.Action = CanaryPromote
		d.Reason = fmt.Sprintf("trial expired with %d passing, 0 failing of %d tiers", passed, nTiers)
	case expired:
		d.Action = CanaryReject
		d.Reason = "trial expired without a ready tier (starved canary)"
	}
	return d
}

// rejectReason names the first failing tier for the heal record.
func rejectReason(tiers []CanaryTierVerdict) string {
	for _, v := range tiers {
		if v.Ready && !v.Pass {
			return fmt.Sprintf("tier %s: %s", v.Tier, v.Reason)
		}
	}
	return "canary lost"
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
