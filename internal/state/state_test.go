package state

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/drift"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/vision"
)

// fixture builds a small but real snapshot: a profiled vision corpus,
// two generated rule tables, baselines and a heal history.
func fixture(t testing.TB) (*Snapshot, *dataset.VisionCorpus) {
	t.Helper()
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 64, Device: vision.CPU})
	m := profile.Build(c.Service, c.Requests)
	cfg := rulegen.DefaultConfig()
	cfg.MinTrials = 4
	cfg.MaxTrials = 16
	cfg.ThresholdPoints = 3
	cfg.IncludePickBest = false
	g := rulegen.New(m, nil, cfg)
	tols := []float64{0, 0.05, 0.10}
	tables := []rulegen.RuleTable{
		g.Generate(tols, rulegen.MinimizeLatency),
		g.Generate(tols, rulegen.MinimizeCost),
	}
	snap := &Snapshot{
		SavedAt:          time.UnixMilli(1754550000123),
		HedgeQuantile:    0.95,
		Reprofiles:       3,
		BackendBaselines: []float64{11e6, 22e6, 33e6, 44e6, 55e6},
		TierBaselines:    map[string]float64{"response-time/0.05": 18e6, "cost/0.10": 9e6},
		Heals: []drift.HealRecord{
			{At: time.UnixMilli(1754549000000), Trigger: "tier response-time/0.05: err-ph", JobID: 2,
				Verdict: drift.HealPromoted, Promoted: true, Duration: 1500 * time.Millisecond},
			{At: time.UnixMilli(1754549500000), Trigger: "backend quantile", JobID: 3,
				Verdict: drift.HealRejected, Duration: 900 * time.Millisecond,
				Err: "tier response-time/0.05: canary lost"},
		},
		Matrix: m,
		Tables: tables,
	}
	return snap, c
}

func encode(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap, c := fixture(t)
	got, err := Read(encode(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	if !got.SavedAt.Equal(snap.SavedAt) {
		t.Fatalf("SavedAt %v, want %v", got.SavedAt, snap.SavedAt)
	}
	if got.HedgeQuantile != snap.HedgeQuantile || got.Reprofiles != snap.Reprofiles {
		t.Fatalf("meta: %+v", got)
	}
	if !reflect.DeepEqual(got.BackendBaselines, snap.BackendBaselines) {
		t.Fatalf("backend baselines %v, want %v", got.BackendBaselines, snap.BackendBaselines)
	}
	if !reflect.DeepEqual(got.TierBaselines, snap.TierBaselines) {
		t.Fatalf("tier baselines %v, want %v", got.TierBaselines, snap.TierBaselines)
	}
	if len(got.Heals) != len(snap.Heals) {
		t.Fatalf("heals: %+v", got.Heals)
	}
	for i, h := range snap.Heals {
		g := got.Heals[i]
		if !g.At.Equal(h.At) || g.Trigger != h.Trigger || g.JobID != h.JobID ||
			g.Verdict != h.Verdict || g.Promoted != h.Promoted || g.Duration != h.Duration || g.Err != h.Err {
			t.Fatalf("heal %d: %+v, want %+v", i, g, h)
		}
	}
	if !reflect.DeepEqual(got.Matrix.VersionNames, snap.Matrix.VersionNames) ||
		!reflect.DeepEqual(got.Matrix.RequestIDs, snap.Matrix.RequestIDs) ||
		got.Matrix.Domain != snap.Matrix.Domain {
		t.Fatal("matrix labels did not round-trip")
	}
	if len(got.Tables) != len(snap.Tables) {
		t.Fatalf("%d tables, want %d", len(got.Tables), len(snap.Tables))
	}
	for ti, want := range snap.Tables {
		tb := got.Tables[ti]
		if tb.Objective != want.Objective || tb.Best != want.Best || len(tb.Rules) != len(want.Rules) {
			t.Fatalf("table %d header: %+v", ti, tb)
		}
		// The table wire format carries the routing-relevant candidate
		// fields; compare those (worst-latency style diagnostics are
		// deliberately not persisted).
		for ri, wr := range want.Rules {
			gr := tb.Rules[ri]
			if gr.Tolerance != wr.Tolerance || gr.Candidate.Policy != wr.Candidate.Policy ||
				gr.Candidate.Trials != wr.Candidate.Trials ||
				gr.Candidate.WorstErrDeg != wr.Candidate.WorstErrDeg ||
				gr.Candidate.MeanErrDeg != wr.Candidate.MeanErrDeg ||
				gr.Candidate.MeanLatency != wr.Candidate.MeanLatency ||
				gr.Candidate.MeanInvCost != wr.Candidate.MeanInvCost {
				t.Fatalf("table %d rule %d: %+v, want %+v", ti, ri, gr, wr)
			}
		}
	}
	if err := got.CompatibleWith(service.VisionDomain, c.Service.VersionNames(), got.Matrix.RequestIDs); err != nil {
		t.Fatalf("round-tripped snapshot incompatible with its own corpus: %v", err)
	}
}

// snapshotSHA256 is the SHA-256 of Write on fixture(), taken before the
// profile matrix codec was written by hand: the snapshot format is
// pinned byte for byte, as TestSetUpGolden pins the floats.
const snapshotSHA256 = "a60407594db73221e29cf5d8ac3d9b755ecf63533289aba5ebc3a1af2c4b548f"

func TestSnapshotBytesGolden(t *testing.T) {
	snap, _ := fixture(t)
	sum := sha256.Sum256(encode(t, snap))
	if got := hex.EncodeToString(sum[:]); got != snapshotSHA256 {
		t.Fatalf("snapshot SHA-256 %s, want %s", got, snapshotSHA256)
	}
}

func TestSnapshotRejectsDamage(t *testing.T) {
	snap, _ := fixture(t)
	good := encode(t, snap)
	if _, err := Read(good); err != nil {
		t.Fatal(err)
	}

	// A single flipped bit anywhere in the body fails a checksum.
	for _, off := range []int{len(good) / 3, len(good) / 2, len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		if _, err := Read(bad); err == nil {
			t.Fatalf("bit flip at %d accepted", off)
		}
	}
	// Truncation at any section boundary or mid-section fails.
	for _, cut := range []int{len(good) - 1, len(good) / 2, 10} {
		if _, err := Read(good[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// Trailing garbage after the last section fails.
	if _, err := Read(append(append([]byte(nil), good...), "extra"...)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A foreign format string fails before anything is decoded.
	alien := bytes.Replace(good, []byte(Format), []byte("toltiers-state-v9"), 1)
	if _, err := Read(alien); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("foreign format accepted: %v", err)
	}
	if _, err := Read(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSnapshotRejectsAbsurdMatrixHeader(t *testing.T) {
	// A tiny matrix section claiming huge dimensions must be rejected by
	// arithmetic, not honored by allocation.
	lie := `{"format":"toltiers-profile-v1","versions":["a","b"],"requests":1000000000}` + "\n"
	if _, err := readMatrixSection([]byte(lie)); err == nil {
		t.Fatal("absurd matrix header accepted")
	}
	// A claim whose row-range arithmetic overflows int64 once split across
	// three or more goroutines.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	lie = `{"format":"toltiers-profile-v1","versions":["a"],"requests":6917529027641081856}` + "\n"
	if _, err := readMatrixSection([]byte(lie)); err == nil {
		t.Fatal("overflowing matrix header accepted")
	}
	if _, err := readMatrixSection([]byte("no newline")); err == nil {
		t.Fatal("headerless matrix section accepted")
	}
}

func TestCompatibleWithMismatches(t *testing.T) {
	snap, c := fixture(t)
	names := c.Service.VersionNames()
	ids := snap.Matrix.RequestIDs

	if err := snap.CompatibleWith(service.VisionDomain, names, ids); err != nil {
		t.Fatal(err)
	}
	if err := snap.CompatibleWith(service.SpeechDomain, names, ids); err == nil {
		t.Fatal("domain mismatch accepted")
	}
	if err := snap.CompatibleWith(service.VisionDomain, names[:len(names)-1], ids); err == nil {
		t.Fatal("version-count mismatch accepted")
	}
	renamed := append([]string(nil), names...)
	renamed[0] = "other"
	if err := snap.CompatibleWith(service.VisionDomain, renamed, ids); err == nil {
		t.Fatal("version-name mismatch accepted")
	}
	if err := snap.CompatibleWith(service.VisionDomain, names, ids[:len(ids)-1]); err == nil {
		t.Fatal("corpus-size mismatch accepted")
	}
	shifted := append([]int(nil), ids...)
	shifted[0]++
	if err := snap.CompatibleWith(service.VisionDomain, names, shifted); err == nil {
		t.Fatal("corpus-id mismatch accepted")
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	snap, _ := fixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "toltiers-state.bin")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a newer snapshot: the rename replaces in place and
	// no temp files linger.
	snap.Reprofiles = 4
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "toltiers-state.bin" {
		t.Fatalf("directory after double save: %v", entries)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reprofiles != 4 {
		t.Fatalf("loaded Reprofiles %d, want 4", got.Reprofiles)
	}
	if _, err := Load(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestWriteRequiresMatrix(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{}); err == nil {
		t.Fatal("matrixless snapshot written")
	}
}

// FuzzStateSnapshot pins Read against hostile bytes: whatever the
// input, it must return cleanly — never panic, never runaway-allocate —
// and anything it does accept must re-encode and re-read.
func FuzzStateSnapshot(f *testing.F) {
	snap, _ := fixture(f)
	good := encode(f, snap)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("{\"format\":\"toltiers-state-v1\",\"sections\":[]}\n"))
	f.Add(good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(data)
		if err != nil {
			return
		}
		if s.Matrix == nil {
			t.Fatal("accepted snapshot has no matrix")
		}
		if math.IsNaN(s.HedgeQuantile) {
			return // NaN round-trips as JSON errors; nothing to re-encode
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatalf("re-encode of accepted snapshot: %v", err)
		}
		if _, err := Read(buf.Bytes()); err != nil {
			t.Fatalf("re-read of re-encoded snapshot: %v", err)
		}
	})
}
