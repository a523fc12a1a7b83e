package server

import (
	"path/filepath"
	"time"

	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/drift"
	"github.com/toltiers/toltiers/internal/state"
)

// Crash-safe persistence: with Config.StateDir set, the node writes a
// versioned state snapshot — training matrix, active rule tables, drift
// baselines, heal history — atomically on every promotion (a heal's
// before it is published; see heal.go) and on Close. A restarted node
// hands the loaded snapshot back through Config.Restore (ttserver
// -state-dir does both), resuming from its healed state with zero
// re-profiling. The snapshot is a cache: any load failure falls back to
// profiling from scratch.

// StatePath is the snapshot file a node with the given state directory
// reads and writes.
func StatePath(dir string) string { return filepath.Join(dir, stateFileName) }

const stateFileName = "toltiers-state.bin"

// buildSnapshot assembles the node's persistable state; nil when the
// node has no training matrix (nothing re-derivable to cache). A
// non-nil promoted is the record of a heal whose promotion is installed
// but not yet published: the snapshot holds the monitor's state as
// FinishHeal is about to leave it — the record appended, the reprofile
// counted, the per-tier baselines dropped with the detectors it resets.
func (s *Server) buildSnapshot(promoted *drift.HealRecord) *state.Snapshot {
	m := s.trainingMatrix()
	if m == nil {
		return nil
	}
	reg, tableVer := s.registryAndVersion()
	snap := &state.Snapshot{
		SavedAt:          time.Now(),
		HedgeQuantile:    dispatch.HedgeQuantile,
		Reprofiles:       s.mon.Reprofiles(),
		BackendBaselines: s.mon.Baselines(),
		Heals:            s.mon.Heals(),
		Matrix:           m,
		Tables:           tablesOf(reg),
		TableVersion:     tableVer,
	}
	if promoted != nil {
		snap.Reprofiles++
		snap.Heals = append(snap.Heals, *promoted)
	} else {
		snap.TierBaselines = s.mon.TierBaselines()
	}
	return snap
}

// saveState persists the snapshot atomically (temp + fsync + rename);
// promoted is buildSnapshot's. Best-effort: a failed save surfaces in
// /drift's last_error and the node keeps serving — the snapshot is a
// cache, never a dependency.
func (s *Server) saveState(promoted *drift.HealRecord) {
	if s.stateDir == "" {
		return
	}
	snap := s.buildSnapshot(promoted)
	if snap == nil {
		return
	}
	if err := state.Save(StatePath(s.stateDir), snap); err != nil {
		s.heal.setErr("state snapshot: " + err.Error())
	}
}

// restoreFrom seeds the drift monitor from a loaded snapshot: backend
// baselines at the snapshot's quantile, the frozen per-tier warmup
// baselines (tiers skip warmup and judge from the first window), and
// the heal history with its applied-reprofile count. The registry and
// matrix are the caller's to build from the same snapshot — they are
// constructor arguments, not monitor state.
func (s *Server) restoreFrom(snap *state.Snapshot) {
	if snap == nil {
		return
	}
	if len(snap.BackendBaselines) == len(s.backends) {
		s.mon.SetBaselines(snap.BackendBaselines)
	}
	for tier, base := range snap.TierBaselines {
		s.mon.SeedTierBaseline(tier, base)
	}
	s.mon.SeedHeals(snap.Heals, snap.Reprofiles)
}
