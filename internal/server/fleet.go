package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/state"
	"github.com/toltiers/toltiers/internal/tiers"
)

// Fleet glue: the front tier's control-plane handlers (register,
// heartbeat, status, snapshot shipping) and the assembly of a serving
// node from a shipped snapshot (the core of ttserver -join), which
// later snapshots keep current through InstallSnapshot. Dispatch
// traffic reaches the pool from the parse stage (parseCall in
// dispatch.go).

func (s *Server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	var req api.FleetRegisterRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid register body: %v", err)
		return
	}
	if req.Name == "" || req.BaseURL == "" {
		httpError(w, http.StatusBadRequest, "register requires name and base_url")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.pool.Register(req.Name, req.BaseURL, req.TableVersion))
}

func (s *Server) handleFleetHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req api.FleetHeartbeatRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid heartbeat body: %v", err)
		return
	}
	if req.Name == "" {
		httpError(w, http.StatusBadRequest, "heartbeat requires name")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.pool.Heartbeat(req.Name, req.TableVersion))
}

func (s *Server) handleFleetDeregister(w http.ResponseWriter, r *http.Request) {
	var req api.FleetHeartbeatRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid deregister body: %v", err)
		return
	}
	s.pool.Deregister(req.Name)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleFleetStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.pool.Status())
}

// handleFleetSnapshot ships the node's state — profile matrix plus the
// promoted rule tables, in the internal/state section format — so a
// node started with ttserver -join can bootstrap without a corpus or a
// profiling run.
func (s *Server) handleFleetSnapshot(w http.ResponseWriter, _ *http.Request) {
	snap := s.buildSnapshot(nil)
	if snap == nil {
		httpError(w, http.StatusServiceUnavailable, "no training matrix on this node; nothing to ship")
		return
	}
	var buf bytes.Buffer
	if err := state.Write(&buf, snap); err != nil {
		httpError(w, http.StatusInternalServerError, "encoding snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(api.HeaderTableVersion, strconv.FormatInt(snap.TableVersion, 10))
	// Declared, not chunked: the worker reads the body into one buffer
	// of exactly this size.
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

// tablesOf collects a registry's full table set in objective order —
// what a snapshot ships to workers (the complete set, not just the
// regenerated objectives).
func tablesOf(reg *tiers.Registry) []rulegen.RuleTable {
	objs := reg.Objectives()
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	tables := make([]rulegen.RuleTable, 0, len(objs))
	for _, obj := range objs {
		if t, ok := reg.Table(obj); ok {
			tables = append(tables, t)
		}
	}
	return tables
}

// WorkerOptions parameterizes a fleet worker node assembled from a
// pulled snapshot.
type WorkerOptions struct {
	// SleepScale > 0 makes replay invocations occupy wall-clock time
	// (profiled latency x SleepScale), so closed-loop load exercises
	// real queueing on the worker.
	SleepScale float64
	// Dispatch tunes the worker's tier-execution runtime.
	Dispatch dispatch.Options
}

// NewWorkerFromSnapshot assembles a serving node from a front tier's
// shipped snapshot: replay backends over the profile matrix (the matrix
// is the model — no corpus or profiling run exists on the worker), the
// shipped rule tables as its registry, and the snapshot's table version
// as its fence. The node serves the full dispatch wire surface; a
// fleet.Agent keeps its tables current through InstallSnapshot.
func NewWorkerFromSnapshot(snap *state.Snapshot, opts WorkerOptions) (*Server, error) {
	if snap == nil || snap.Matrix == nil {
		return nil, fmt.Errorf("server: worker snapshot has no profile matrix")
	}
	if len(snap.Tables) == 0 {
		return nil, fmt.Errorf("server: worker snapshot has no rule tables")
	}
	backends := dispatch.NewReplayBackends(snap.Matrix)
	if opts.SleepScale > 0 {
		for _, b := range backends {
			b.(*dispatch.ReplayBackend).SleepScale = opts.SleepScale
		}
	}
	reg := tiers.NewRegistry(nil, snap.Tables...)
	return NewWithConfig(reg, dispatch.ReplayRequests(snap.Matrix), Config{
		Matrix:   snap.Matrix,
		Backends: backends,
		Dispatch: opts.Dispatch,
		Restore:  snap,
	}), nil
}

// InstallSnapshot adopts a re-pulled fleet snapshot on a worker: the
// shipped rule tables, version fence and training matrix, through
// install. It is how a worker converges on every promotion: its agent
// pulls when a register or heartbeat answer names a version above the
// worker's own. A snapshot behind the local fence is refused; an equal
// version re-installs.
func (s *Server) InstallSnapshot(snap *state.Snapshot) error {
	if snap == nil || len(snap.Tables) == 0 {
		return fmt.Errorf("server: snapshot has no rule tables")
	}
	reg := newRegistryFrom(s.registry(), snap.Tables)
	return s.install(tableSet{reg: reg, ver: snap.TableVersion, matrix: snap.Matrix})
}
