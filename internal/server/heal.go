package server

import (
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/drift"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/tiers"
)

// Self-healing keeps a tier's accuracy/latency characteristic what the
// consumer selected. drift.Monitor detects and gates (detectors, trial
// statistics, heal history, cooldown / backoff / retry budget); the
// healer owns the one heal that may be in flight, trigger to ending.
//
//	GET  /drift         -> api.DriftStatus (detector states, events, heals)
//	POST /drift/config  body: api.DriftConfig -> api.DriftStatus
//
// Stages, and the goroutine each runs on:
//
//	tick      loop, every Config.DriftInterval: judge a staged candidate
//	          (verdict), then Monitor.Check, which claims the in-flight
//	          slot when it returns trigger.
//	begin     loop: boost hedging on the implicated backends, re-profile
//	          the live backends (checks pause meanwhile: no point
//	          detecting drift on traffic about to be re-baselined) and
//	          start the standard rule job over the fresh matrix.
//	generated the rule job's goroutine, after the job reports finished:
//	          stage the healed tables as the candidate serving a
//	          deterministic 1/CanaryFraction slice of traffic and open
//	          the monitor's trial. A heal always earns its promotion
//	          through that trial.
//	verdict   loop: a win or a loss ends the heal; the incumbent never
//	          stopped serving the rest of the traffic.
//	finish    whichever goroutine ends the heal, and the only ending:
//	          build the one drift.HealRecord; on a win Server.install
//	          persists it with the candidate's tables, matrix and
//	          baselines, then swaps them in (unwritable: the heal fails
//	          and the incumbent serves on); clear the candidate, restore
//	          hedging, set last_error, and only then publish the record
//	          (Monitor.FinishHeal) — a kill -9 at any point leaves GET
//	          /drift having reported nothing the disk does not hold.
//
// Every failure (re-profile error, job collision, job failure or DELETE
// /rules/generate, rejection, shutdown) ends in finish; the detectors
// stay alarmed and the monitor's backoff decides when Check triggers
// again. Dispatches never stall: re-profiling uses the same
// concurrent-safe backends and promotion is an atomic pointer swap.
//
// Close cancels the loop's context and waits for it: a re-profile in
// progress is interrupted and fails its heal; a heal whose rule job is
// still sweeping, or whose candidate is on trial, Close ends as failed
// itself, so the final snapshot carries the record. The job keeps
// running, but generated finds the healer closed and stages nothing.
type healer struct {
	s        *Server
	interval time.Duration // loop cadence; < 0 never starts one
	// reprofile carries the heal job's generation parameters.
	reprofile api.RuleGenRequest
	// tableHook, when set (tests only), rewrites a heal's generated
	// tables before they stage — the seam that lets the rollback
	// end-to-end test serve a deliberately bad candidate.
	tableHook func([]rulegen.RuleTable) []rulegen.RuleTable

	// ctx bounds the loop and its re-profile (Close never waits on a
	// stalled backend); cancelled means closed.
	ctx    context.Context
	cancel context.CancelFunc

	// mu guards the fields below and orders staging against close.
	mu        sync.Mutex
	done      chan struct{} // non-nil once the loop started; closed on its exit
	cur       *heal         // the in-flight heal (nil = none)
	lastJobID int           // rule job of the latest heal that started one
	lastErr   string        // GET /drift last_error

	// cand is the staged candidate (nil = no trial), behind the one
	// atomic load the resolve path pays; seq strides anonymous traffic
	// into its slice.
	cand atomic.Pointer[candidate]
	seq  atomic.Uint64
}

// heal is the in-flight heal's provenance, for its eventual record.
type heal struct {
	trigger string
	start   time.Time
	jobID   int
}

// candidate is a staged heal: the registry built from the healed
// tables, the traffic stride its slice is cut with, and the job that
// generated it (and holds the re-profiled matrix behind it).
type candidate struct {
	reg    *tiers.Registry
	stride uint64
	job    *ruleJob
}

func newHealer(s *Server, cfg Config) *healer {
	h := &healer{s: s, interval: cfg.DriftInterval, reprofile: cfg.Reprofile}
	if h.interval == 0 {
		h.interval = 2 * time.Second // Config.DriftInterval's documented default
	}
	if _, err := ruleGenParams(h.reprofile); err != nil {
		// A broken self-heal request would otherwise only surface when a
		// heal is finally needed — and then fail on every retry. This is
		// a programming error; fail loudly at construction.
		panic("server: invalid Config.Reprofile: " + err.Error())
	}
	h.ctx, h.cancel = context.WithCancel(context.Background())
	return h
}

// ensureLoop starts the loop goroutine once, on the first enable
// (construction or POST /drift/config), so handler-only servers never
// spawn one. A closed healer never starts one.
func (h *healer) ensureLoop() {
	if h.interval < 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done != nil || h.ctx.Err() != nil {
		return
	}
	h.done = make(chan struct{})
	go h.loop(h.done)
}

func (h *healer) loop(done chan struct{}) {
	defer close(done)
	t := time.NewTicker(h.interval)
	defer t.Stop()
	for {
		select {
		case <-h.ctx.Done():
			return
		case now := <-t.C:
			if h.ctx.Err() == nil { // select picks at random when both are ready
				h.tick(now)
			}
		}
	}
}

func (h *healer) tick(now time.Time) {
	// A live trial resolves before anything else: its ending frees the
	// in-flight slot the trigger check respects.
	h.verdict(now)
	if events, trigger := h.s.mon.Check(now, h.s.disp.P95); trigger {
		h.begin(now, h.describeTrigger(events))
	}
}

func (h *healer) begin(now time.Time, trigger string) {
	s := h.s
	h.mu.Lock()
	h.cur = &heal{trigger: trigger, start: now}
	h.mu.Unlock()
	h.boostHedging()
	fresh, err := dispatch.ProfileBackends(h.ctx, s.domain, s.backends, s.reqs)
	if err != nil {
		h.finish(time.Now(), drift.HealFailed, "reprofile: "+err.Error())
		return
	}
	// Held across the start: generated and finish take mu first, so the
	// job's id is on the heal before its completion can read it.
	h.mu.Lock()
	job, err := s.startRuleJob(h.reprofile, fresh, h.generated)
	if err == nil {
		h.cur.jobID, h.lastJobID = job.id, job.id
	}
	h.mu.Unlock()
	if err != nil {
		// A manual job is running (errJobRunning); the loop retries once
		// the monitor's backoff allows.
		h.finish(time.Now(), drift.HealFailed, "rules: "+err.Error())
	}
}

// generated is the heal job's completion callback (see runRuleJob).
func (h *healer) generated(job *ruleJob, tables []rulegen.RuleTable, err error) {
	var reason string
	switch {
	case errors.Is(err, context.Canceled):
		reason = "rules job cancelled"
	case err != nil:
		reason = "rules job: " + err.Error()
	default:
		if h.tableHook != nil {
			tables = h.tableHook(tables)
		}
		// Stride 1 would starve the incumbent arm of its reference.
		stride := max(uint64(h.s.mon.Config().CanaryFraction), 2)
		c := &candidate{reg: newRegistryFrom(h.s.registry(), tables), stride: stride, job: job}
		// The closed check and the stage share the lock close takes
		// before it looks for a candidate: a closed node starts no trial.
		h.mu.Lock()
		if h.ctx.Err() == nil {
			h.s.mon.StartCanaryTrial(time.Now())
			h.cand.Store(c)
			h.mu.Unlock()
			return
		}
		h.mu.Unlock()
		reason = "shutdown during rules job"
	}
	h.finish(time.Now(), drift.HealFailed, reason)
}

func (h *healer) verdict(now time.Time) {
	if h.cand.Load() == nil {
		return
	}
	switch d := h.s.mon.CanaryVerdict(now); d.Action {
	case drift.CanaryPromote:
		h.finish(now, drift.HealPromoted, "")
	case drift.CanaryReject:
		h.finish(now, drift.HealRejected, d.Reason)
	}
}

// finish ends the in-flight heal (see the lifecycle above). When two
// endings race — close against the job's completion — the first claims
// the heal and the second is a no-op.
func (h *healer) finish(now time.Time, verdict, reason string) {
	h.mu.Lock()
	cur := h.cur
	if cur == nil {
		h.mu.Unlock()
		return
	}
	h.cur, h.lastErr = nil, reason
	h.mu.Unlock()
	s := h.s
	rec := drift.HealRecord{
		At: now, Trigger: cur.trigger, JobID: cur.jobID,
		Verdict: verdict, Promoted: verdict == drift.HealPromoted,
		Duration: now.Sub(cur.start), Err: reason,
	}
	if rec.Promoted {
		// c is staged (only a verdict promotes) and cleared only after the
		// swap, so slice traffic never falls back to the tables it displaced.
		c := h.cand.Load()
		if err := s.install(tableSet{reg: c.reg, job: c.job, matrix: c.job.matrix, heal: &rec}); err != nil {
			rec.Verdict, rec.Promoted, rec.Err = drift.HealFailed, false, err.Error()
			h.setErr(rec.Err)
		}
	}
	h.cand.Store(nil)
	for i := range s.backends {
		s.disp.SetHedgeQuantile(i, 0) // back to dispatch.HedgeQuantile
	}
	s.mon.FinishHeal(rec)
}

// close stops the loop and ends any heal still in flight as failed.
func (h *healer) close() {
	h.mu.Lock()
	h.cancel()
	done := h.done
	h.mu.Unlock()
	if done != nil {
		<-done
	}
	// The loop is gone and generated stages nothing once closed, so the
	// candidate pointer is stable here.
	reason := "shutdown during rules job"
	if h.cand.Load() != nil {
		reason = "shutdown during canary trial"
	}
	h.finish(time.Now(), drift.HealFailed, reason)
}

// setErr records a failure in GET /drift's last_error: a failed install
// of a won canary, or Close's final state snapshot.
func (h *healer) setErr(msg string) {
	h.mu.Lock()
	h.lastErr = msg
	h.mu.Unlock()
}

// inSlice cuts the deterministic trial slice: a named tenant hashes to
// one side for the whole trial (a tenant never flaps between tables
// mid-trial), anonymous traffic round-robins by stride.
func (h *healer) inSlice(c *candidate, tenant string) bool {
	if tenant != "" {
		f := fnv.New32a()
		_, _ = f.Write([]byte(tenant))
		return uint64(f.Sum32())%c.stride == 0
	}
	return h.seq.Add(1)%c.stride == 0
}

// resolveRule is the resolve stage's rule lookup (see resolve): without
// a staged candidate it is exactly registry().Resolve; with one,
// requests in the trial slice resolve against the candidate registry
// and come back marked canary. A candidate that cannot serve the
// annotation (objective or tolerance outside the healed tables) falls
// back to the incumbent rather than failing traffic over a trial. The
// third return is the fleet version fence the rule resolved under (0 for
// canary-resolved requests: trial tables carry no fence until promoted).
func (s *Server) resolveRule(tol float64, obj rulegen.Objective, tenant string) (*tiers.Tier, bool, int64, error) {
	if c := s.heal.cand.Load(); c != nil && s.heal.inSlice(c, tenant) {
		if tier, err := c.reg.ResolveTier(tol, obj); err == nil {
			return tier, true, 0, nil
		}
	}
	reg, ver := s.registryAndVersion()
	tier, err := reg.ResolveTier(tol, obj)
	return tier, false, ver, err
}

// boostHedging raises the hedging quantile of every backend implicated
// in the confirmed shift — the quantile-alarmed backends plus the
// primaries of alarmed tiers' resolved rules — until the heal ends:
// hedges fire earlier against exactly the backends drifting away from
// their profile, bridging the window until a healed table reroutes
// around them.
func (h *healer) boostHedging() {
	s := h.s
	cfg := s.mon.Config()
	if cfg.HedgeBoost >= 1 {
		return
	}
	for _, i := range s.mon.AlarmedBackends() {
		s.disp.SetHedgeQuantile(i, cfg.HedgeBoost)
	}
	reg := s.registry()
	for _, key := range s.mon.AlarmedTiers() {
		if obj, tol, ok := tierOf(reg, key); ok {
			if tier, err := reg.ResolveTier(tol, obj); err == nil {
				s.disp.SetHedgeQuantile(tier.Candidate.Policy.Primary, cfg.HedgeBoost)
			}
		}
	}
}

// describeTrigger renders the confirmed shift for the heal record: the
// events that fired this tick, or — when the alarms were already
// reported in an earlier tick — the currently alarmed streams.
func (h *healer) describeTrigger(events []drift.Event) string {
	var parts []string
	for _, e := range events {
		parts = append(parts, e.Stream+" "+e.Detector)
	}
	if len(parts) == 0 {
		for _, t := range h.s.mon.AlarmedTiers() {
			parts = append(parts, "tier:"+t)
		}
		for _, i := range h.s.mon.AlarmedBackends() {
			parts = append(parts, "backend:"+h.s.backends[i].Name())
		}
	}
	if len(parts) > 6 {
		parts = append(parts[:6], "…")
	}
	return strings.Join(parts, "; ")
}

func (s *Server) handleDrift(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.driftStatus())
}

func (s *Server) handleDriftConfig(w http.ResponseWriter, r *http.Request) {
	var cfg drift.Config
	if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
		httpError(w, http.StatusBadRequest, "invalid drift config: %v", err)
		return
	}
	s.mon.SetConfig(cfg)
	if cfg.Enabled {
		// First enable on a node constructed without drift: the loop
		// starts here.
		s.heal.ensureLoop()
	}
	s.handleDrift(w, r)
}

// driftStatus renders the monitor's wire view plus what the healer
// knows: the latest heal's job and the last error.
func (s *Server) driftStatus() api.DriftStatus {
	st := s.mon.Status(s.disp.P95)
	s.heal.mu.Lock()
	st.LastJobID, st.LastError = s.heal.lastJobID, s.heal.lastErr
	s.heal.mu.Unlock()
	return st
}
