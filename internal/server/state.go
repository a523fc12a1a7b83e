package server

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/drift"
	"github.com/toltiers/toltiers/internal/state"
)

// Crash-safe persistence: with Config.StateDir set, the node writes a
// versioned state snapshot — training matrix, active rule tables, drift
// baselines, heal history — atomically on every install, before the
// tables serve or reach a worker (Server.install; a snapshot that cannot
// be written refuses the install), and best-effort on Close. A restarted
// node hands the loaded snapshot back through Config.Restore (ttserver
// -state-dir does both), resuming with zero re-profiling at the version
// its workers hold. Any load failure falls back to profiling from scratch.

// StatePath is the snapshot file a node with the given state directory
// reads and writes.
func StatePath(dir string) string { return filepath.Join(dir, stateFileName) }

const stateFileName = "toltiers-state.bin"

// buildSnapshot assembles the node's persistable state; nil when the
// node has no training matrix (nothing re-derivable to cache). A
// non-nil next is an install not yet published, and the snapshot holds
// the node as it will leave it; for a heal, the monitor as FinishHeal
// will: record appended, reprofile counted, backend baselines
// re-anchored, per-tier ones dropped with the detectors it resets.
func (s *Server) buildSnapshot(next *tableSet) *state.Snapshot {
	m := s.trainingMatrix()
	reg, tableVer := s.registryAndVersion()
	if next != nil {
		reg, tableVer = next.reg, next.ver
		if next.matrix != nil {
			m = next.matrix
		}
	}
	if m == nil {
		return nil
	}
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
	if next != nil && next.heal != nil {
		snap.Reprofiles++
		snap.Heals = append(snap.Heals, *next.heal)
		snap.BackendBaselines = drift.BackendBaselines(m)
	} else {
		snap.TierBaselines = s.mon.TierBaselines()
	}
	return snap
}

// saveState persists buildSnapshot(next) atomically (temp + fsync +
// rename + directory fsync). Callers hold installMu, so snapshots land
// in install order.
func (s *Server) saveState(next *tableSet) error {
	if s.stateDir == "" {
		return nil
	}
	snap := s.buildSnapshot(next)
	if snap == nil {
		return nil
	}
	if err := state.Save(StatePath(s.stateDir), snap); err != nil {
		return fmt.Errorf("state snapshot: %w", err)
	}
	return nil
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
