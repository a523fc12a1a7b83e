// Package server exposes a Tolerance Tiers service over HTTP, following
// the request annotation of §IV-A: the API consumer POSTs an input with
// `Tolerance` and `Objective` headers and receives the result with
// latency/cost accounting.
//
// Payload formats (the repository's corpora are synthetic, so inputs are
// referenced by corpus ID rather than uploaded media):
//
//	POST /compute
//	  Tolerance: 0.01
//	  Objective: response-time
//	  body: {"request_id": 1234}
//
// /compute, /dispatch and /dispatch/batch are three adapters over one
// tier-execution path — parse, resolve once, admit a window, dispatch,
// render (dispatch.go) — differing only in body and response shape.
// Responses are JSON (internal/api). GET /tiers lists the offered tiers
// and GET /healthz reports readiness.
//
// Beside it rides the control plane: rule regeneration (rules.go), the
// self-healing loop (heal.go states its lifecycle once), state
// snapshots (state.go) and the worker fleet (fleet.go); the served
// tables change only through Server.install (persist, publish, push).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/toltiers/toltiers/internal/admit"
	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/coalesce"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/drift"
	"github.com/toltiers/toltiers/internal/fleet"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/state"
	"github.com/toltiers/toltiers/internal/tiers"
	"github.com/toltiers/toltiers/internal/trace"
)

// Config parameterizes a serving node beyond its registry and corpus.
// The zero value reproduces New's behaviour: live service backends, no
// rule generation, drift monitoring constructed but disabled.
type Config struct {
	// Matrix is the profiled training corpus backing the
	// rule-generation endpoints and the drift monitor's latency
	// baselines; nil disables POST /rules/generate (see rules.go).
	Matrix *profile.Matrix
	// Backends overrides the dispatcher's backend list (default: the
	// registry service's live versions). Replay or chaos-wrapped
	// backends hang here, with backend index i serving version i.
	Backends []dispatch.Backend
	// Dispatch tunes the tier-execution runtime. Its Observer field is
	// overwritten with the node's drift monitor.
	Dispatch dispatch.Options
	// Drift configures the drift monitor (zero = constructed but
	// disabled; POST /drift/config can enable it at runtime). With
	// AutoReprofile set, a confirmed shift starts a heal; heal.go
	// states the lifecycle.
	Drift drift.Config
	// Admission configures the admission-and-overload layer (zero =
	// constructed but disabled; POST /admission/config can enable it at
	// runtime).
	Admission admit.Config
	// Coalesce, when non-nil, lets single requests (/dispatch and
	// /compute) share windows: concurrent singles holding the same
	// resolved ticket gather in time/size windows and flush as one
	// DoBatch, admitted once per window (see internal/coalesce). With
	// nil, every single request is its own window of one. The Gate
	// field is overwritten with the node's admission function.
	Coalesce *coalesce.Options
	// Trace parameterizes the per-dispatch flight recorder behind
	// GET /trace/recent and GET /trace/{id} (zero = a 1024-slot ring
	// sampling 1 in 16 dispatches; set Disabled to serve without one).
	// The Dispatch.Recorder field is overwritten with the node's
	// recorder so dispatcher spans and admission sheds land in one ring.
	Trace trace.Options
	// DriftInterval is the drift loop's check cadence (0 = 2s; < 0
	// disables the loop entirely — Check is then never called).
	DriftInterval time.Duration
	// Reprofile carries the rule-generation parameters of
	// drift-triggered jobs (Apply is ignored: a heal stages its tables
	// for a trial; zero values use the generator defaults). It is
	// validated at construction — NewWithConfig panics on an invalid
	// request rather than letting every future heal fail at trigger time.
	Reprofile api.RuleGenRequest
	// StateDir, when non-empty, makes the node persist a state snapshot
	// (matrix, rule tables, drift baselines, heal history) atomically on
	// every install, before it serves, and on Close; see state.go. The
	// directory must exist. "" disables persistence.
	StateDir string
	// Restore seeds the drift monitor from a previously loaded snapshot
	// (baselines, heal history); the caller builds the registry and
	// matrix from the same snapshot. nil boots fresh.
	Restore *state.Snapshot
	// Fleet, when non-nil, makes this node a front tier: the fleet
	// control-plane endpoints (/fleet/register, /fleet/heartbeat,
	// /fleet/deregister, GET /fleet, GET /fleet/snapshot) are mounted,
	// dispatch traffic is routed across registered worker nodes with
	// tenant-affine consistent routing and transparent failover (the
	// node serves locally only when no worker can), and every table
	// promotion moves the fleet's version fence, which the workers
	// reach by pulling the snapshot. See internal/fleet.
	Fleet *fleet.Options
}

// Server serves one registry over a request corpus. Everything about a
// heal in flight — loop, candidate, last error — lives behind heal
// (see heal.go).
type Server struct {
	// regMu guards the serving registry and its fleet version fence:
	// install swaps both together, so a resolve observes one consistent
	// (tables, version) pair and a batch can never mix versions — it
	// resolves exactly once. installMu serialises install and the
	// snapshot writes; it is never taken under regMu.
	installMu sync.Mutex
	regMu     sync.RWMutex
	reg       *tiers.Registry
	tableVer  int64
	reqs      []*service.Request
	byID      map[int]*service.Request
	mux       *http.ServeMux

	// pool is the fleet control plane when this node is a front tier
	// (Config.Fleet); nil on workers and single-node servers.
	pool *fleet.Pool

	// disp is the online tier-execution runtime: every endpoint's
	// windows execute through it, so live telemetry covers all traffic.
	// The dispatcher wraps the configured backends; registry swaps (rule
	// regeneration) change tables, not backends.
	disp     *dispatch.Dispatcher
	backends []dispatch.Backend
	domain   service.Domain

	// adm admits every window before the dispatcher leases a backend
	// slot; admitWindow (admission.go) is its only caller.
	adm *admit.Controller

	// rec is the per-dispatch flight recorder (nil when Config.Trace
	// disabled it; see trace.go for the read-side handlers).
	rec *trace.Recorder

	// coal, when configured, forms the windows of single requests (nil =
	// each is a window of one; see dispatchOne).
	coal *coalesce.Coalescer

	// matrix is the profiled training corpus backing the rule-generation
	// endpoints; nil disables them (see rules.go). Guarded by jobMu — a
	// drift-triggered job promotes its re-profile on success.
	matrix *profile.Matrix
	jobMu  sync.Mutex
	job    *ruleJob
	jobSeq int

	// mon watches live telemetry for distribution shifts (it is the
	// dispatcher's Observer); heal ticks it and owns the self-healing
	// loop it gates.
	mon  *drift.Monitor
	heal *healer

	// stateDir is Config.StateDir: where promotions and Close persist
	// the node's state snapshot ("" = persistence off; see state.go).
	stateDir string
}

// New builds the HTTP handler. The /rules endpoints answer 503 without
// a training matrix (Config.Matrix).
func New(reg *tiers.Registry, reqs []*service.Request) *Server {
	return NewWithConfig(reg, reqs, Config{})
}

// NewWithConfig builds the HTTP handler with full control over the
// serving node: backend list, dispatch options, rule generation, and
// the drift monitor's self-healing loop.
func NewWithConfig(reg *tiers.Registry, reqs []*service.Request, cfg Config) *Server {
	s := &Server{reg: reg, reqs: reqs, byID: make(map[int]*service.Request, len(reqs)), matrix: cfg.Matrix}
	for _, r := range reqs {
		s.byID[r.ID] = r
	}
	s.domain = domainOf(reqs)
	s.backends = cfg.Backends
	if s.backends == nil {
		s.backends = dispatch.NewServiceBackends(reg.Service())
	}
	names := make([]string, len(s.backends))
	for i, b := range s.backends {
		names[i] = b.Name()
	}
	var baselines []float64
	if cfg.Matrix != nil && cfg.Matrix.NumVersions() == len(s.backends) {
		baselines = drift.BackendBaselines(cfg.Matrix)
	}
	s.mon = drift.NewMonitor(cfg.Drift, names, baselines)
	s.stateDir = cfg.StateDir
	if cfg.Restore != nil {
		s.restoreFrom(cfg.Restore)
		s.tableVer = cfg.Restore.TableVersion
	}
	if cfg.Fleet != nil {
		s.pool = fleet.NewPool(*cfg.Fleet)
		s.pool.SetVersion(s.tableVer)
	}
	s.heal = newHealer(s, cfg)

	dopts := cfg.Dispatch
	dopts.Observer = s.mon
	if !cfg.Trace.Disabled {
		s.rec = trace.New(cfg.Trace)
	}
	dopts.Recorder = s.rec
	s.disp = dispatch.New(s.backends, dopts)
	s.adm = admit.New(cfg.Admission)
	if cfg.Coalesce != nil {
		copts := *cfg.Coalesce
		copts.Gate = s.admitWindow
		s.coal = coalesce.New(s.disp, copts)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /compute", s.handleCompute)
	mux.HandleFunc("POST /dispatch", s.handleDispatch)
	mux.HandleFunc("POST /dispatch/batch", s.handleDispatchBatch)
	mux.HandleFunc("GET /telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /tiers", s.handleTiers)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /rules/generate", s.handleRulesGenerate)
	mux.HandleFunc("GET /rules/status", s.handleRulesStatus)
	mux.HandleFunc("DELETE /rules/generate", s.handleRulesCancel)
	mux.HandleFunc("GET /drift", s.handleDrift)
	mux.HandleFunc("POST /drift/config", s.handleDriftConfig)
	mux.HandleFunc("GET /admission", s.handleAdmission)
	mux.HandleFunc("POST /admission/config", s.handleAdmissionConfig)
	mux.HandleFunc("GET /trace/recent", s.handleTraceRecent)
	mux.HandleFunc("GET /trace/{id}", s.handleTraceGet)
	mux.HandleFunc("GET /metrics/prometheus", s.handlePrometheus)
	// The fleet control plane mounts only on a front tier.
	if s.pool != nil {
		mux.HandleFunc("POST /fleet/register", s.handleFleetRegister)
		mux.HandleFunc("POST /fleet/heartbeat", s.handleFleetHeartbeat)
		mux.HandleFunc("POST /fleet/deregister", s.handleFleetDeregister)
		mux.HandleFunc("GET /fleet", s.handleFleetStatus)
		mux.HandleFunc("GET /fleet/snapshot", s.handleFleetSnapshot)
	}
	s.mux = mux

	if cfg.Drift.Enabled {
		s.heal.ensureLoop()
	}
	return s
}

// Close stops the self-healing loop — cancelling a re-profile it is
// running and ending any heal in flight as failed (heal.go says what
// that means in each phase; an in-flight rule-generation job keeps
// running, cancel it via DELETE /rules/generate if needed) — and, with
// Config.StateDir set, writes a final state snapshot. The HTTP handler
// stays usable, and closing again only rewrites the snapshot.
func (s *Server) Close() {
	s.heal.close()
	if s.pool != nil {
		s.pool.Close()
	}
	s.installMu.Lock()
	if err := s.saveState(nil); err != nil {
		s.heal.setErr(err.Error())
	}
	s.installMu.Unlock()
}

// Dispatcher exposes the server's tier-execution runtime (load
// generators embed the server and drive it directly).
func (s *Server) Dispatcher() *dispatch.Dispatcher { return s.disp }

// DriftMonitor exposes the node's drift monitor.
func (s *Server) DriftMonitor() *drift.Monitor { return s.mon }

// Admission exposes the node's admission controller.
func (s *Server) Admission() *admit.Controller { return s.adm }

// Coalescer exposes the node's dispatch coalescer (nil when coalescing
// is not configured).
func (s *Server) Coalescer() *coalesce.Coalescer { return s.coal }

// Recorder exposes the node's flight recorder (nil when Config.Trace
// disabled it).
func (s *Server) Recorder() *trace.Recorder { return s.rec }

// trainingMatrix returns the matrix backing rule generation (nil
// disables the endpoints); a heal's install swaps in its re-profile.
func (s *Server) trainingMatrix() *profile.Matrix {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.matrix
}

// registry returns the serving registry; install swaps it, so readers
// always go through here.
func (s *Server) registry() *tiers.Registry {
	reg, _ := s.registryAndVersion()
	return reg
}

// registryAndVersion returns the serving registry together with the
// fleet version fence it was installed under — one consistent pair.
func (s *Server) registryAndVersion() (*tiers.Registry, int64) {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return s.reg, s.tableVer
}

// TableVersion reports the rule-table version fence this node serves
// (0 until a first promotion or fleet sync).
func (s *Server) TableVersion() int64 {
	_, ver := s.registryAndVersion()
	return ver
}

// Fleet exposes the front tier's worker pool (nil unless Config.Fleet
// made this node a front tier).
func (s *Server) Fleet() *fleet.Pool { return s.pool }

// tableSet is one change of the served tables, as install takes it:
// ver is the fence a resync names (a set carrying its
// rule job is this node's own promotion, which mints the served
// version + 1 instead); matrix, when set, replaces the training matrix
// (a heal's re-profile, a resync's shipped one); heal, when set, is the
// won canary's record, persisted with the tables, and the drift
// baselines re-anchor on matrix.
type tableSet struct {
	reg    *tiers.Registry
	ver    int64
	job    *ruleJob
	matrix *profile.Matrix
	heal   *drift.HealRecord
}

// errFence refuses a table set older than the one served.
var errFence = errors.New("version fence")

// install is the only code that changes the served table set — a
// manual apply, a canary win and a resync all run it —
// and the only place a version is minted. A version below the served
// one is refused; the same or a higher one installs. The steps run in
// one order: encode (an unencodable set is refused before anything is
// written), persist (with Config.StateDir; a failed save refuses the
// install), publish (registry and fence swap together under regMu, then
// the matrix, the baselines and the job's applied mark), fence (a front
// tier's pool moves to the new version; its workers pull it from the
// snapshot published before). installMu serialises installs and snapshot
// writes and is held outside regMu, so no resolve waits on an fsync.
func (s *Server) install(next tableSet) error {
	s.installMu.Lock()
	defer s.installMu.Unlock()
	switch cur := s.TableVersion(); {
	case next.job != nil:
		next.ver = cur + 1
	case next.ver < cur:
		return fmt.Errorf("%w: serving v%d, refusing v%d", errFence, cur, next.ver)
	}
	for _, t := range tablesOf(next.reg) {
		if err := rulegen.WriteTable(io.Discard, t); err != nil {
			return fmt.Errorf("encoding tables: %w", err)
		}
	}
	if err := s.saveState(&next); err != nil {
		return err
	}
	s.regMu.Lock()
	s.reg, s.tableVer = next.reg, next.ver
	s.regMu.Unlock()
	if next.heal != nil {
		s.mon.SetBaselines(drift.BackendBaselines(next.matrix))
	}
	s.jobMu.Lock()
	if next.matrix != nil {
		s.matrix = next.matrix
	}
	if next.job != nil {
		next.job.applied = true
	}
	s.jobMu.Unlock()
	if s.pool != nil {
		s.pool.Promote(next.ver)
	}
	return nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleTiers(w http.ResponseWriter, _ *http.Request) {
	var infos []api.TierInfo
	reg := s.registry()
	for _, obj := range reg.Objectives() {
		// Present the canonical 1/5/10% anchor tiers plus the strictest.
		for _, tol := range []float64{0, 0.01, 0.05, 0.10} {
			rule, err := reg.Resolve(tol, obj)
			if err != nil {
				continue
			}
			infos = append(infos, api.TierInfo{
				Objective: string(obj),
				Tolerance: rule.Tolerance,
				Policy:    rule.Candidate.Policy.String(),
			})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(infos)
}

// handleTelemetry serves what the tier-execution path has executed:
//
//	GET /telemetry[?tenant=acme] -> api.TelemetrySnapshot / api.TenantTelemetry
//
// the global snapshot (with its per-tenant rollup), or a single tenant's
// partition when ?tenant= names one.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if tenant := r.URL.Query().Get("tenant"); tenant != "" {
		_ = json.NewEncoder(w).Encode(s.disp.TenantSnapshot(tenant))
		return
	}
	_ = json.NewEncoder(w).Encode(s.disp.Snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(api.HealthStatus{
		Status:     "ok",
		Corpus:     len(s.reqs),
		Domain:     string(domainOf(s.reqs)),
		Objectives: len(s.registry().Objectives()),
		Version:    "toltiers-1",
	})
}

func domainOf(reqs []*service.Request) service.Domain {
	if len(reqs) > 0 && reqs[0].Image != nil {
		return service.VisionDomain
	}
	return service.SpeechDomain
}
