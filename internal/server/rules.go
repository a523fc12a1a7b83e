package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/stats"
	"github.com/toltiers/toltiers/internal/tiers"
)

// Rule-generation endpoints: a serving node regenerates its own routing
// tables with rulegen's bootstrap sweep instead of shipping the corpus
// to an offline job.
//
//	POST   /rules/generate   body: api.RuleGenRequest  -> 202 api.RuleGenAccepted
//	GET    /rules/status                               -> api.RuleGenStatus
//	DELETE /rules/generate   cancels the running job   -> 202
//
// One job runs at a time (409 while busy); with "apply": true the
// tables install on success (Server.install), so in-flight /compute
// requests keep their tables and later ones see the new rules.
// DELETE cancels through the job's context: the sweep's workers stop
// before their next candidate, nothing is applied, and /rules/status
// reports "cancelling" until the workers drain, then "cancelled".
//
// The self-healing loop (heal.go) rides the same pipeline: a confirmed
// shift re-profiles the live backends into a fresh matrix and starts
// the identical job over it (drift: true in /rules/status), so
// cancellation and status behave the same whether a human or the
// monitor asked; a heal's tables go to its generated callback, to be
// staged for a trial, instead of being applied.

// ruleJob tracks one asynchronous generation sweep. Mutable fields are
// guarded by Server.jobMu.
type ruleJob struct {
	id          int
	req         api.RuleGenRequest
	objectives  []rulegen.Objective
	started     time.Time
	finished    time.Time
	done, total int
	running     bool
	applied     bool
	cancel      context.CancelFunc
	cancelled   bool
	err         error
	trials      stats.Stream
	// matrix is the profiled corpus this job sweeps (the node's
	// training matrix, or a drift re-profile).
	matrix *profile.Matrix
	// generated, when set, receives the finished job's outcome in place
	// of the manual job's "install if Apply" (see startRuleJob).
	generated generatedFunc
}

// generatedFunc is a rule job's completion callback: the generated
// tables, or the error that ended the sweep (context.Canceled for
// DELETE /rules/generate). It runs on the job's goroutine after the job
// reports finished.
type generatedFunc func(job *ruleJob, tables []rulegen.RuleTable, err error)

// errJobRunning distinguishes the one-at-a-time conflict from request
// validation errors.
var errJobRunning = errors.New("a rule-generation job is already running")

// Bounds on a request's tolerance grid: a tolerance is a relative error
// degradation, so nothing above 1 means anything, and the grid is
// built point by point after the sweep, so its size must be bounded
// before the job starts.
const (
	maxGridTolerance = 1.0
	maxGridPoints    = 10_001
)

// genParams is a validated rule-generation request.
type genParams struct {
	objectives   []rulegen.Objective
	gcfg         rulegen.Config
	step, maxTol float64
}

// ruleGenParams validates a RuleGenRequest and resolves its defaults.
func ruleGenParams(req api.RuleGenRequest) (genParams, error) {
	gp := genParams{gcfg: rulegen.DefaultConfig()}
	gp.objectives = []rulegen.Objective{rulegen.MinimizeLatency, rulegen.MinimizeCost}
	if len(req.Objectives) > 0 {
		gp.objectives = gp.objectives[:0]
		for _, o := range req.Objectives {
			obj, err := rulegen.ParseObjective(o)
			if err != nil {
				return gp, err
			}
			gp.objectives = append(gp.objectives, obj)
		}
	}
	if req.Confidence != 0 {
		if req.Confidence <= 0 || req.Confidence >= 1 {
			return gp, fmt.Errorf("confidence %v outside (0,1)", req.Confidence)
		}
		gp.gcfg.Confidence = req.Confidence
	}
	if req.MinTrials < 0 || req.MaxTrials < 0 || req.ThresholdPoints < 0 {
		return gp, fmt.Errorf("negative bootstrap bounds")
	}
	if req.MinTrials > 0 {
		gp.gcfg.MinTrials = req.MinTrials
	}
	if req.MaxTrials > 0 {
		gp.gcfg.MaxTrials = req.MaxTrials
	}
	if gp.gcfg.MinTrials > gp.gcfg.MaxTrials {
		return gp, fmt.Errorf("min_trials %d exceeds max_trials %d", gp.gcfg.MinTrials, gp.gcfg.MaxTrials)
	}
	if req.ThresholdPoints > 0 {
		gp.gcfg.ThresholdPoints = req.ThresholdPoints
	}
	gp.step, gp.maxTol = req.Step, req.MaxTolerance
	if gp.step <= 0 {
		gp.step = 0.01
	}
	if gp.maxTol <= 0 {
		gp.maxTol = 0.10
	}
	if gp.maxTol > maxGridTolerance {
		return gp, fmt.Errorf("max_tolerance %v above %v", gp.maxTol, maxGridTolerance)
	}
	if gp.maxTol/gp.step > maxGridPoints-1 {
		return gp, fmt.Errorf("step %v over max_tolerance %v makes a grid of more than %d points", gp.step, gp.maxTol, maxGridPoints)
	}
	return gp, nil
}

// startRuleJob validates the request and launches the asynchronous
// sweep over m; a nil generated is the manual job, which installs its
// tables when req.Apply is set. It returns errJobRunning while another
// job runs.
func (s *Server) startRuleJob(req api.RuleGenRequest, m *profile.Matrix, generated generatedFunc) (*ruleJob, error) {
	gp, err := ruleGenParams(req)
	if err != nil {
		return nil, err
	}
	s.jobMu.Lock()
	if s.job != nil && s.job.running {
		s.jobMu.Unlock()
		return nil, errJobRunning
	}
	s.jobSeq++
	ctx, cancel := context.WithCancel(context.Background())
	job := &ruleJob{
		id:         s.jobSeq,
		req:        req,
		objectives: gp.objectives,
		started:    time.Now(),
		running:    true,
		cancel:     cancel,
		matrix:     m,
		generated:  generated,
	}
	s.job = job
	s.jobMu.Unlock()

	go s.runRuleJob(ctx, job, gp.gcfg, gp.step, gp.maxTol)
	return job, nil
}

func (s *Server) handleRulesGenerate(w http.ResponseWriter, r *http.Request) {
	m := s.trainingMatrix()
	if m == nil {
		httpError(w, http.StatusServiceUnavailable, "rule generation not enabled on this node")
		return
	}
	var req api.RuleGenRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
			return
		}
	}
	job, err := s.startRuleJob(req, m, nil)
	if err != nil {
		if errors.Is(err, errJobRunning) {
			httpError(w, http.StatusConflict, "%v", err)
			return
		}
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(api.RuleGenAccepted{JobID: job.id, StatusURL: "/rules/status"})
}

// runRuleJob executes the sweep and hands the outcome on: to
// job.generated when set, else — on success with Apply set — to install.
// A cancelled context (DELETE /rules/generate) stops the sweep before
// the next candidate and marks the job cancelled instead of failed.
func (s *Server) runRuleJob(ctx context.Context, job *ruleJob, gcfg rulegen.Config, step, maxTol float64) {
	gen, err := rulegen.NewContext(ctx, job.matrix, nil, gcfg, func(done, total int) {
		s.jobMu.Lock()
		job.done, job.total = done, total
		s.jobMu.Unlock()
	})

	// A cancel that arrived after the sweep's last candidate but before the
	// tables are built still wins: DELETE promised nothing would be
	// applied. (Checked under jobMu; the swap below deliberately runs
	// outside the lock so status polls never stall behind it.)
	s.jobMu.Lock()
	cancelRequested := job.cancelled
	s.jobMu.Unlock()

	var tables []rulegen.RuleTable
	if err == nil && !cancelRequested {
		grid := rulegen.ToleranceGrid(maxTol, step)
		tables = make([]rulegen.RuleTable, 0, len(job.objectives))
		for _, obj := range job.objectives {
			tables = append(tables, gen.Generate(grid, obj))
		}
		if job.generated == nil && job.req.Apply {
			// Installed before the job reports "done" (a failed install
			// fails it), so a poll-then-resolve client sees the new tables.
			err = s.install(tableSet{reg: newRegistryFrom(s.registry(), tables), job: job})
		}
	}

	s.jobMu.Lock()
	job.finished = time.Now()
	job.running = false
	job.cancel() // release the context resources
	switch {
	case err != nil:
		if errors.Is(err, context.Canceled) {
			job.cancelled = true
		} else {
			// A real failure outranks a concurrently requested cancel:
			// reporting a clean "cancelled" would hide the error.
			job.err = err
			job.cancelled = false
		}
	case cancelRequested:
		// The sweep finished under the cancel's feet, but the promise
		// holds: nothing was generated or applied.
		job.cancelled = true
	default:
		// A cancel that landed after the pre-generate check lost the
		// race: the job completed (and possibly applied), and reports
		// "done".
		job.cancelled = false
		for _, c := range gen.Candidates() {
			job.trials.Add(float64(c.Trials))
		}
	}
	outcome := job.err
	if job.cancelled {
		outcome = context.Canceled
	}
	s.jobMu.Unlock()

	if job.generated != nil {
		job.generated(job, tables, outcome)
	}
}

// handleRulesCancel cancels the running generation job via its context.
func (s *Server) handleRulesCancel(w http.ResponseWriter, _ *http.Request) {
	if s.trainingMatrix() == nil {
		httpError(w, http.StatusServiceUnavailable, "rule generation not enabled on this node")
		return
	}
	s.jobMu.Lock()
	job := s.job
	running := job != nil && job.running
	if running {
		job.cancelled = true
		if job.cancel != nil {
			job.cancel()
		}
	}
	s.jobMu.Unlock()
	if !running {
		httpError(w, http.StatusConflict, "no rule-generation job is running")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(map[string]any{"job_id": job.id, "state": "cancelling"})
}

// newRegistryFrom rebuilds the registry with the generated tables,
// keeping any objective the job did not regenerate.
func newRegistryFrom(old *tiers.Registry, generated []rulegen.RuleTable) *tiers.Registry {
	seen := make(map[rulegen.Objective]bool, len(generated))
	tables := make([]rulegen.RuleTable, 0, len(generated)+2)
	for _, t := range generated {
		tables = append(tables, t)
		seen[t.Objective] = true
	}
	for _, obj := range old.Objectives() {
		if t, ok := old.Table(obj); ok && !seen[obj] {
			tables = append(tables, t)
		}
	}
	return tiers.NewRegistry(old.Service(), tables...)
}

func (s *Server) handleRulesStatus(w http.ResponseWriter, _ *http.Request) {
	if s.trainingMatrix() == nil {
		httpError(w, http.StatusServiceUnavailable, "rule generation not enabled on this node")
		return
	}
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	st := api.RuleGenStatus{State: "idle"}
	if job := s.job; job != nil {
		st.JobID = job.id
		st.Done, st.Total = job.done, job.total
		for _, o := range job.objectives {
			st.Objectives = append(st.Objectives, string(o))
		}
		st.Applied = job.applied
		st.Drift = job.generated != nil
		end := job.finished
		if job.running {
			end = time.Now()
		}
		st.ElapsedMS = float64(end.Sub(job.started)) / float64(time.Millisecond)
		switch {
		case job.running && job.cancelled:
			st.State = "cancelling"
		case job.running:
			st.State = "running"
		case job.cancelled:
			st.State = "cancelled"
		case job.err != nil:
			st.State = "failed"
			st.Error = job.err.Error()
		default:
			st.State = "done"
			st.MeanTrials = job.trials.Mean
			st.MaxTrials = job.trials.Max
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}
