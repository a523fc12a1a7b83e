package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/client"
	"github.com/toltiers/toltiers/internal/fleet"
	"github.com/toltiers/toltiers/internal/state"
)

// Install tests: every change of the served table set — manual apply,
// resync (a canary win is TestHealEndings') — goes through one fenced
// install that persists, then publishes, then moves the fleet fence.

// applyRules runs one small manual apply and waits for its ending.
func applyRules(t *testing.T, cl *client.Client) *api.RuleGenStatus {
	t.Helper()
	if _, err := cl.GenerateRules(context.Background(), api.RuleGenRequest{
		Objectives: []string{"response-time"}, MinTrials: 5, MaxTrials: 24,
		ThresholdPoints: 4, Step: 0.05, Apply: true,
	}); err != nil {
		t.Fatal(err)
	}
	return waitForJob(t, cl)
}

// TestInstallFence: one fence for every way a table set arrives. A
// manual apply mints the served version + 1; a resync installs the same
// or a higher version and refuses a lower one.
func TestInstallFence(t *testing.T) {
	front, fts, _ := fleetFront(t, 30*time.Second)
	cl := client.New(fts.URL, fts.Client())
	for want := int64(1); want <= 2; want++ {
		if st := applyRules(t, cl); st.State != "done" || !st.Applied {
			t.Fatalf("manual apply ended %q (applied %v, error %q)", st.State, st.Applied, st.Error)
		}
		if got := front.TableVersion(); got != want {
			t.Fatalf("manual apply minted v%d, want v%d", got, want)
		}
	}

	snap, err := fleet.PullSnapshot(context.Background(), fts.Client(), fts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("resync", func(t *testing.T) {
		w, err := NewWorkerFromSnapshot(snap, WorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for _, step := range []struct {
			name     string
			ver      int64
			installs bool
			serving  int64
		}{
			{"lower", 1, false, 2},
			{"same", 2, true, 2},
			{"higher", 5, true, 5},
			{"lower after higher", 4, false, 5},
		} {
			before := w.registry()
			s := *snap
			s.TableVersion = step.ver
			if got := w.InstallSnapshot(&s) == nil; got != step.installs {
				t.Errorf("%s (v%d): installed %v, want %v", step.name, step.ver, got, step.installs)
			}
			if got := w.TableVersion(); got != step.serving {
				t.Errorf("%s (v%d): serving v%d, want v%d", step.name, step.ver, got, step.serving)
			}
			if swapped := w.registry() != before; swapped != step.installs {
				t.Errorf("%s (v%d): registry swapped %v, want %v", step.name, step.ver, swapped, step.installs)
			}
		}
	})
}

// TestRulesApplyNeedsItsSnapshot: with Config.StateDir set, a manual
// apply whose snapshot cannot be written is not installed — the job
// fails with the save error, the old tables keep serving under the old
// version, and the fleet fence does not move.
func TestRulesApplyNeedsItsSnapshot(t *testing.T) {
	// A regular file where the directory should be: every save fails
	// with ENOTDIR, even as root.
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	front, fts, _ := fleetFrontWith(t, Config{Fleet: &fleet.Options{Lease: 30 * time.Second}, StateDir: dir})
	registerWorker(t, fts, "stub", "http://127.0.0.1:1", 0)

	before := front.registry()
	st := applyRules(t, client.New(fts.URL, fts.Client()))
	if st.State != "failed" || st.Applied || !strings.Contains(st.Error, "state snapshot: ") {
		t.Fatalf("apply over an unwritable snapshot ended %q (applied %v, error %q), want failed with the save error",
			st.State, st.Applied, st.Error)
	}
	if front.registry() != before || front.TableVersion() != 0 {
		t.Fatalf("refused apply still serves: registry swapped %v, v%d", front.registry() != before, front.TableVersion())
	}
	if hb := heartbeatWorker(t, fts, "stub", 0); hb.TableVersion != 0 || front.Fleet().Status().TableVersion != 0 {
		t.Fatalf("refused apply moved the fleet fence: heartbeat answers v%d", hb.TableVersion)
	}
}

// persistChecker serves h and checks every fleet answer against the
// snapshot on disk in dir: a register or heartbeat answer, or a served
// snapshot, that names a version a promotion minted (v1 on) must find
// at least that version persisted once the answer is written.
type persistChecker struct {
	t         *testing.T
	h         http.Handler
	dir       string
	checked   atomic.Int64
	snapshots atomic.Int64
}

func (c *persistChecker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, r)
	var named int64
	switch r.URL.Path {
	case "/fleet/register", "/fleet/heartbeat":
		var ans api.FleetHeartbeatResponse // the register answer's keys are a subset
		if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
			c.t.Errorf("%s answer: %v", r.URL.Path, err)
		}
		named = ans.TableVersion
	case "/fleet/snapshot":
		c.snapshots.Add(1)
		named, _ = strconv.ParseInt(rec.Header().Get(api.HeaderTableVersion), 10, 64)
	}
	if named > 0 {
		c.checked.Add(1)
		if snap, err := state.Load(StatePath(c.dir)); err != nil || snap.TableVersion < named {
			var onDisk int64 = -1
			if snap != nil {
				onDisk = snap.TableVersion
			}
			c.t.Errorf("%s named v%d while the snapshot on disk holds v%d (load error %v)", r.URL.Path, named, onDisk, err)
		}
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(rec.Body.Bytes())
}

// TestFleetFenceFollowsPersist: no heartbeat answer and no served
// snapshot names a version that the front tier's disk lacks, so a front
// tier killed mid-promotion restarts at least at the version its
// workers pull.
func TestFleetFenceFollowsPersist(t *testing.T) {
	dir := t.TempDir()
	front, _, _ := fleetFrontWith(t, Config{Fleet: &fleet.Options{Lease: 30 * time.Second}, StateDir: dir})
	check := &persistChecker{t: t, h: front, dir: dir}
	fts := httptest.NewServer(check)
	t.Cleanup(fts.Close)
	_, pulls := joinFleetWorker(t, fts, "w")

	cl := client.New(fts.URL, fts.Client())
	for ver := int64(1); ver <= 2; ver++ {
		if st := applyRules(t, cl); st.State != "done" || !st.Applied {
			t.Fatalf("manual apply ended %q (error %q)", st.State, st.Error)
		}
		waitReported(t, front, 1, ver)
	}
	// One bootstrap pull plus one per promotion; every answer naming v1
	// or v2 was checked.
	if p, s := pulls.Load(), check.snapshots.Load(); p != 2 || s != 3 {
		t.Fatalf("%d agent pull(s) and %d snapshot(s) served, want 2 and 3", p, s)
	}
	if check.checked.Load() == 0 {
		t.Fatal("no fleet answer named a promoted version")
	}
}
