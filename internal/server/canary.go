package server

import (
	"hash/fnv"
	"strings"
	"time"

	"github.com/toltiers/toltiers/internal/drift"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/tiers"
)

// Canary promotion: a drift-triggered heal no longer swaps its
// regenerated rule tables straight into the serving registry. The job
// stages them as a candidate registry serving a deterministic
// 1/CanaryFraction slice of traffic — named tenants split by FNV hash
// so a tenant's requests land consistently on one side, anonymous
// traffic by stride — and the drift monitor runs a live trial comparing
// canary telemetry against the incumbent's per tier. The drift loop
// polls the verdict every tick: a win promotes the candidate atomically
// (the same pointer swap a manual apply uses) and persists a state
// snapshot; a loss rolls back with the incumbent registry untouched and
// records the rejection in the heal history.

// canaryState is one staged heal: the candidate registry built from the
// healed tables, the job that generated them (and holds the re-profiled
// matrix behind them), and the traffic stride the slice is cut with. It
// hangs on Server.canary while the trial runs; promotion and rollback
// both clear the pointer, so the steady-state resolve path pays one
// atomic load.
type canaryState struct {
	reg    *tiers.Registry
	stride uint64
	job    *ruleJob
}

// inCanarySlice cuts the deterministic traffic slice: a named tenant
// hashes to one side for the whole trial (a tenant never flaps between
// tables mid-trial), anonymous traffic round-robins by stride.
func (s *Server) inCanarySlice(cs *canaryState, tenant string) bool {
	if tenant != "" {
		h := fnv.New32a()
		_, _ = h.Write([]byte(tenant))
		return uint64(h.Sum32())%cs.stride == 0
	}
	return s.canarySeq.Add(1)%cs.stride == 0
}

// resolveRule is the resolve stage's rule lookup (see resolve): without
// a staged canary it is exactly registry().Resolve; with one, requests
// in the trial slice resolve against the candidate registry and come
// back marked canary. A candidate that cannot serve the annotation
// (objective or tolerance outside the healed tables) falls back to the
// incumbent rather than failing traffic over a trial. The third return
// is the fleet version fence the rule resolved under (0 for
// canary-resolved requests: trial tables carry no fence until promoted).
func (s *Server) resolveRule(tol float64, obj rulegen.Objective, tenant string) (rulegen.Rule, bool, int64, error) {
	if cs := s.canary.Load(); cs != nil && s.inCanarySlice(cs, tenant) {
		if rule, err := cs.reg.Resolve(tol, obj); err == nil {
			return rule, true, 0, nil
		}
	}
	reg, ver := s.registryAndVersion()
	rule, err := reg.Resolve(tol, obj)
	return rule, false, ver, err
}

// canaryArmed reports that drift heals should stage through a canary
// trial instead of promoting blindly.
func (s *Server) canaryArmed() bool {
	return !s.mon.Config().CanaryDisabled
}

// beginCanary stages a finished drift job's tables as the candidate
// registry and opens the monitor's trial. Runs on the job goroutine;
// the drift loop polls the verdict from its next tick on.
func (s *Server) beginCanary(job *ruleJob, tables []rulegen.RuleTable, now time.Time) {
	stride := uint64(s.mon.Config().CanaryFraction)
	if stride < 2 {
		// Stride 1 would starve the incumbent arm and leave the verdict
		// without a reference; the smallest meaningful slice is half.
		stride = 2
	}
	s.mon.StartCanaryTrial(now)
	s.canary.Store(&canaryState{reg: newRegistryFrom(s.registry(), tables), stride: stride, job: job})
}

// checkCanary polls the live trial's verdict, promoting or rolling back
// when the controller decides. Called from the drift loop each tick.
func (s *Server) checkCanary(now time.Time) {
	cs := s.canary.Load()
	if cs == nil {
		return
	}
	d := s.mon.CanaryVerdict(now)
	switch d.Action {
	case drift.CanaryPromote:
		s.promote(cs.reg, cs.job, now)
	case drift.CanaryReject:
		s.rollbackCanary(d.Reason, now)
	}
}

// promote is the node's one promotion sequence — a manual apply, a
// blind drift heal and a canary win all run it: make reg the serving
// registry under a new version fence and mark job applied; for a drift
// heal, also adopt the job's re-profiled matrix, re-anchor the drift
// baselines on it (at the quantile the live trackers estimate, as at
// construction), restore the hedging quantiles and clear the last heal
// error. Then persist, and only then publish: the snapshot already
// carries the heal's record and reprofile count when FinishHeal makes
// them visible on GET /drift, so a kill -9 at any point leaves the API
// having reported nothing the disk does not hold.
func (s *Server) promote(reg *tiers.Registry, job *ruleJob, now time.Time) {
	s.installPromoted(reg)
	// A winning candidate leaves the trial slice only after the swap, so
	// slice traffic never falls back to the tables it displaced.
	if cs := s.canary.Load(); cs != nil && cs.reg == reg {
		s.canary.Store(nil)
	}
	s.jobMu.Lock()
	job.applied = true
	s.jobMu.Unlock()
	if !job.drift {
		s.saveState(nil)
		return
	}
	s.setTrainingMatrix(job.matrix)
	s.mon.SetBaselines(drift.BackendBaselinesAt(job.matrix, s.hedgeQuantile))
	s.restoreHedgeBoost()
	s.setDriftErr("")
	heal := s.mon.PendingHeal(now, drift.HealPromoted, "")
	s.saveState(&heal)
	s.mon.FinishHeal(now, drift.HealPromoted, "")
}

// rollbackCanary ends a losing trial: the candidate registry is
// dropped, the incumbent — which never stopped serving the other
// traffic — resumes serving everything, and the rejection lands in the
// heal history (advancing the monitor's retry backoff, so a flapping
// backend cannot heal-storm).
func (s *Server) rollbackCanary(reason string, now time.Time) {
	s.canary.Store(nil)
	s.restoreHedgeBoost()
	s.mon.FinishHeal(now, drift.HealRejected, reason)
	s.setDriftErr("canary rejected: " + reason)
}

// applyHedgeBoost raises the hedging quantile of every backend
// implicated in the confirmed shift — the quantile-alarmed backends
// plus the primaries of alarmed tiers' resolved rules — for the
// duration of the heal: hedges fire earlier against exactly the
// backends drifting away from their profile, bridging the window until
// a healed table reroutes around them.
func (s *Server) applyHedgeBoost() {
	cfg := s.mon.Config()
	if cfg.HedgeBoost >= 1 {
		return
	}
	boosted := make(map[int]bool)
	for _, i := range s.mon.AlarmedBackends() {
		boosted[i] = true
	}
	reg := s.registry()
	for _, tier := range s.mon.AlarmedTiers() {
		if obj, tol, ok := splitTierKey(tier); ok {
			if rule, err := reg.Resolve(tol, obj); err == nil {
				boosted[rule.Candidate.Policy.Primary] = true
			}
		}
	}
	for i := range boosted {
		s.disp.SetHedgeQuantile(i, cfg.HedgeBoost)
	}
}

// restoreHedgeBoost returns every backend to the dispatcher's
// configured hedging quantile once the heal resolves.
func (s *Server) restoreHedgeBoost() {
	for i := range s.backends {
		s.disp.SetHedgeQuantile(i, 0)
	}
}

// describeTrigger renders the confirmed shift for the heal record: the
// events that fired this tick, or — when the alarms were already
// reported in an earlier tick — the currently alarmed streams.
func (s *Server) describeTrigger(events []drift.Event) string {
	var parts []string
	for _, e := range events {
		parts = append(parts, e.Stream+" "+e.Detector)
	}
	if len(parts) == 0 {
		for _, t := range s.mon.AlarmedTiers() {
			parts = append(parts, "tier:"+t)
		}
		for _, i := range s.mon.AlarmedBackends() {
			if i >= 0 && i < len(s.backends) {
				parts = append(parts, "backend:"+s.backends[i].Name())
			}
		}
	}
	if len(parts) > 6 {
		parts = append(parts[:6], "…")
	}
	return strings.Join(parts, "; ")
}
