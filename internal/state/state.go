// Package state persists a serving node's healed runtime state — the
// profile matrix, the active rule tables, the drift monitor's baselines
// and the heal history — as one versioned, checksummed snapshot file.
// The server writes it atomically (temp + fsync + rename) on every
// canary promotion and on graceful shutdown; ttserver -state-dir loads
// it on boot, so a restarted node resumes from its healed state instead
// of re-profiling the stale shipped corpus. A snapshot is a cache of
// re-derivable work, never the source of truth: any load failure
// (truncation, corruption, version skew, incompatible corpus) is
// reported cleanly and the caller falls back to profiling from scratch.
//
// Layout: one JSON header line naming the sections (byte length and
// CRC32 each), then the raw section bytes concatenated in order. The
// sections reuse the repo's existing self-describing formats — the
// profile matrix its JSONL stream, each rule table its JSON table
// format — so a snapshot can be picked apart with standard tools.
package state

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/toltiers/toltiers/internal/drift"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/service"
)

// Format identifies the snapshot header.
const Format = "toltiers-state-v1"

// maxHeaderLine bounds the header's first line; a snapshot's section
// table is tiny, so anything larger is corruption, not configuration.
const maxHeaderLine = 1 << 20

// Snapshot is a serving node's persistable runtime state.
type Snapshot struct {
	// SavedAt is the wall clock of the save.
	SavedAt time.Time
	// HedgeQuantile records the dispatcher quantile the backend
	// baselines were taken at.
	HedgeQuantile float64
	// Reprofiles is the applied-heal count at save time.
	Reprofiles int64
	// BackendBaselines are the drift monitor's per-backend latency p95
	// baselines (ns), in version order.
	BackendBaselines []float64
	// TierBaselines are the monitor's frozen per-tier warmup latency
	// baselines (ns).
	TierBaselines map[string]float64
	// Heals is the monitor's heal history (newest last).
	Heals []drift.HealRecord
	// Matrix is the profile matrix the tables were generated from
	// (post-heal: the latest applied re-profile).
	Matrix *profile.Matrix
	// Tables are the active rule tables, one per objective.
	Tables []rulegen.RuleTable
	// TableVersion is the fleet's rule-table version fence at save
	// time (0 on single-node snapshots). Workers bootstrapping from a
	// shipped snapshot adopt it, so a fresh join already serves the
	// fenced version and needs no catch-up push.
	TableVersion int64
}

// header is the snapshot's first line.
type header struct {
	Format   string    `json:"format"`
	Sections []section `json:"sections"`
}

type section struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
	CRC32 uint32 `json:"crc32"`
}

// metaJSON is the "meta" section.
type metaJSON struct {
	SavedUnixMS      int64              `json:"saved_unix_ms"`
	HedgeQuantile    float64            `json:"hedge_quantile,omitempty"`
	Reprofiles       int64              `json:"reprofiles"`
	BackendBaselines []float64          `json:"backend_baselines,omitempty"`
	TierBaselines    map[string]float64 `json:"tier_baselines,omitempty"`
	Heals            []healJSON         `json:"heals,omitempty"`
	Tables           int                `json:"tables"`
	TableVersion     int64              `json:"table_version,omitempty"`
}

// healJSON mirrors drift.HealRecord with restart-stable fields.
type healJSON struct {
	UnixMS     int64   `json:"unix_ms"`
	Trigger    string  `json:"trigger,omitempty"`
	JobID      int     `json:"job_id,omitempty"`
	Verdict    string  `json:"verdict"`
	Promoted   bool    `json:"promoted"`
	DurationMS float64 `json:"duration_ms,omitempty"`
	Err        string  `json:"error,omitempty"`
}

// Write serializes the snapshot.
func Write(w io.Writer, s *Snapshot) error {
	if s.Matrix == nil {
		return fmt.Errorf("state: snapshot has no matrix")
	}
	meta := metaJSON{
		SavedUnixMS:      s.SavedAt.UnixMilli(),
		HedgeQuantile:    s.HedgeQuantile,
		Reprofiles:       s.Reprofiles,
		BackendBaselines: s.BackendBaselines,
		TierBaselines:    s.TierBaselines,
		Tables:           len(s.Tables),
		TableVersion:     s.TableVersion,
	}
	for _, h := range s.Heals {
		meta.Heals = append(meta.Heals, healJSON{
			UnixMS: h.At.UnixMilli(), Trigger: h.Trigger, JobID: h.JobID,
			Verdict: h.Verdict, Promoted: h.Promoted,
			DurationMS: float64(h.Duration) / float64(time.Millisecond),
			Err:        h.Err,
		})
	}
	metaBytes, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("state: encode meta: %w", err)
	}
	sections := [][]byte{metaBytes}
	names := []string{"meta"}

	mb, err := s.Matrix.AppendTo(nil)
	if err != nil {
		return fmt.Errorf("state: encode matrix: %w", err)
	}
	sections = append(sections, mb)
	names = append(names, "matrix")

	for i, t := range s.Tables {
		var tb bytes.Buffer
		if err := rulegen.WriteTable(&tb, t); err != nil {
			return fmt.Errorf("state: encode table %d: %w", i, err)
		}
		sections = append(sections, tb.Bytes())
		names = append(names, fmt.Sprintf("table:%d", i))
	}

	h := header{Format: Format}
	for i, b := range sections {
		h.Sections = append(h.Sections, section{
			Name: names[i], Bytes: int64(len(b)), CRC32: crc32.ChecksumIEEE(b),
		})
	}
	hb, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("state: write header: %w", err)
	}
	hb = append(hb, '\n')
	total := len(hb)
	for _, b := range sections {
		total += len(b)
	}
	// A buffer (the fleet snapshot handler's) is sized once.
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(total)
	}
	if _, err := w.Write(hb); err != nil {
		return fmt.Errorf("state: write header: %w", err)
	}
	for i, b := range sections {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("state: write section %s: %w", names[i], err)
		}
	}
	return nil
}

// Read deserializes a snapshot written by Write. Every failure mode of
// a damaged file — truncation, trailing garbage, a checksum mismatch,
// an absurd section table — returns a descriptive error; Read never
// panics on hostile input (FuzzStateSnapshot pins this).
func Read(data []byte) (*Snapshot, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || nl > maxHeaderLine {
		return nil, fmt.Errorf("state: missing or oversized header line")
	}
	var h header
	if err := json.Unmarshal(data[:nl+1], &h); err != nil {
		return nil, fmt.Errorf("state: decode header: %w", err)
	}
	if h.Format != Format {
		return nil, fmt.Errorf("state: unknown format %q", h.Format)
	}
	body := data[nl+1:]
	secs := make(map[string][]byte, len(h.Sections))
	order := make([]string, 0, len(h.Sections))
	off := int64(0)
	for _, s := range h.Sections {
		if s.Bytes < 0 || off+s.Bytes > int64(len(body)) || off+s.Bytes < off {
			return nil, fmt.Errorf("state: section %q truncated (%d bytes claimed at offset %d of %d)",
				s.Name, s.Bytes, off, len(body))
		}
		b := body[off : off+s.Bytes]
		if got := crc32.ChecksumIEEE(b); got != s.CRC32 {
			return nil, fmt.Errorf("state: section %q checksum mismatch (have %08x, want %08x)",
				s.Name, got, s.CRC32)
		}
		if _, dup := secs[s.Name]; dup {
			return nil, fmt.Errorf("state: duplicate section %q", s.Name)
		}
		secs[s.Name] = b
		order = append(order, s.Name)
		off += s.Bytes
	}
	if off != int64(len(body)) {
		return nil, fmt.Errorf("state: %d trailing bytes after last section", int64(len(body))-off)
	}

	metaBytes, ok := secs["meta"]
	if !ok {
		return nil, fmt.Errorf("state: no meta section")
	}
	var meta metaJSON
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return nil, fmt.Errorf("state: decode meta: %w", err)
	}

	matBytes, ok := secs["matrix"]
	if !ok {
		return nil, fmt.Errorf("state: no matrix section")
	}
	m, err := readMatrixSection(matBytes)
	if err != nil {
		return nil, err
	}

	if meta.Tables < 0 || int64(meta.Tables) > int64(len(order)) {
		return nil, fmt.Errorf("state: meta claims %d tables", meta.Tables)
	}
	tables := make([]rulegen.RuleTable, 0, meta.Tables)
	for i := 0; i < meta.Tables; i++ {
		tb, ok := secs[fmt.Sprintf("table:%d", i)]
		if !ok {
			return nil, fmt.Errorf("state: meta claims %d tables but section table:%d is missing", meta.Tables, i)
		}
		t, err := rulegen.ReadTable(bytes.NewReader(tb), m.NumVersions())
		if err != nil {
			return nil, fmt.Errorf("state: table %d: %w", i, err)
		}
		tables = append(tables, t)
	}

	s := &Snapshot{
		SavedAt:          time.UnixMilli(meta.SavedUnixMS),
		HedgeQuantile:    meta.HedgeQuantile,
		Reprofiles:       meta.Reprofiles,
		BackendBaselines: meta.BackendBaselines,
		TierBaselines:    meta.TierBaselines,
		Matrix:           m,
		Tables:           tables,
		TableVersion:     meta.TableVersion,
	}
	for _, hj := range meta.Heals {
		s.Heals = append(s.Heals, drift.HealRecord{
			At: time.UnixMilli(hj.UnixMS), Trigger: hj.Trigger, JobID: hj.JobID,
			Verdict: hj.Verdict, Promoted: hj.Promoted,
			Duration: time.Duration(hj.DurationMS * float64(time.Millisecond)),
			Err:      hj.Err,
		})
	}
	return s, nil
}

// readMatrixSection parses the matrix section in place. profile.Read
// sizes the columns by the rows the section holds, never by its header's
// claim, so a 50-byte section claiming a billion requests costs nothing.
func readMatrixSection(b []byte) (*profile.Matrix, error) {
	m, err := profile.Read(b)
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	return m, nil
}

// CompatibleWith verifies the snapshot can serve the given deployment:
// the profiled domain, version set and request corpus must match what
// the booting server would otherwise profile itself. A mismatch means
// the binary's corpus changed since the snapshot — the snapshot is
// stale and the caller must re-profile.
func (s *Snapshot) CompatibleWith(domain service.Domain, versionNames []string, requestIDs []int) error {
	if s.Matrix == nil {
		return fmt.Errorf("state: snapshot has no matrix")
	}
	if s.Matrix.Domain != domain {
		return fmt.Errorf("state: snapshot domain %q, deployment wants %q", s.Matrix.Domain, domain)
	}
	if len(s.Matrix.VersionNames) != len(versionNames) {
		return fmt.Errorf("state: snapshot has %d versions, deployment %d",
			len(s.Matrix.VersionNames), len(versionNames))
	}
	for i, n := range versionNames {
		if canonicalVersion(s.Matrix.VersionNames[i]) != canonicalVersion(n) {
			return fmt.Errorf("state: snapshot version %d is %q, deployment %q", i, s.Matrix.VersionNames[i], n)
		}
	}
	if len(s.Matrix.RequestIDs) != len(requestIDs) {
		return fmt.Errorf("state: snapshot corpus has %d requests, deployment %d",
			len(s.Matrix.RequestIDs), len(requestIDs))
	}
	for i, id := range requestIDs {
		if s.Matrix.RequestIDs[i] != id {
			return fmt.Errorf("state: snapshot corpus diverges at request %d (%d vs %d)",
				i, s.Matrix.RequestIDs[i], id)
		}
	}
	return nil
}

// canonicalVersion strips backend transport decorations from a version
// name: a heal's re-profiled matrix records backend names, and wrappers
// prefix "<kind>:" onto the service version name ("replay:alexnet-gpu").
// Version identity is positional throughout the system — the name check
// guards ordering, not spelling — so the comparison uses the
// undecorated tail.
func canonicalVersion(name string) string {
	if i := strings.LastIndexByte(name, ':'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// Save writes the snapshot to path atomically: a temp file in the same
// directory, fsynced, then renamed over the target, and the directory
// fsynced. A reader (or a crash) therefore only ever sees the previous
// complete snapshot or the new complete snapshot, never a torn write.
func Save(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".state-*.tmp")
	if err != nil {
		return fmt.Errorf("state: save: %w", err)
	}
	tmp := f.Name()
	if err := Write(f, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("state: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("state: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("state: rename: %w", err)
	}
	// The rename is durable only once the directory entry is: without
	// this sync a power loss can bring the previous snapshot back.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("state: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("state: sync dir: %w", err)
	}
	return nil
}

// Load reads a snapshot from path.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Read(data)
}
