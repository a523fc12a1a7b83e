package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
// fleet push, resync (a canary win is TestHealEndings') — goes through
// one fenced install that persists, then publishes, then pushes.

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

// waitRolloutDone polls the front tier's fleet status until the rollout
// of ver has walked every target.
func waitRolloutDone(t *testing.T, front *Server, ver int64) api.FleetRollout {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if ro := front.Fleet().Status().Rollout; ro != nil && ro.Version == ver && ro.Done {
			return *ro
		}
	}
	t.Fatalf("rollout of v%d never finished: %+v", ver, front.Fleet().Status().Rollout)
	return api.FleetRollout{}
}

// TestInstallFence: one fence for every way a table set arrives. A
// manual apply mints the served version + 1; a fleet push and a resync
// install the same or a higher version and refuse a lower one.
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
	blobs, err := fleet.EncodeTables(snap.Tables)
	if err != nil {
		t.Fatal(err)
	}
	for _, via := range []string{"push", "resync"} {
		t.Run(via, func(t *testing.T) {
			w, err := NewWorkerFromSnapshot(snap, WorkerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			ws := httptest.NewServer(w)
			defer ws.Close()
			install := func(ver int64) bool {
				if via == "resync" {
					s := *snap
					s.TableVersion = ver
					return w.InstallSnapshot(&s) == nil
				}
				body, _ := json.Marshal(api.FleetTableUpdate{Version: ver, Tables: blobs})
				resp, err := ws.Client().Post(ws.URL+"/fleet/table", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
					t.Fatalf("push v%d: status %d, want 200 or 409", ver, resp.StatusCode)
				}
				return resp.StatusCode == http.StatusOK
			}
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
				if got := install(step.ver); got != step.installs {
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
}

// TestRulesApplyNeedsItsSnapshot: with Config.StateDir set, a manual
// apply whose snapshot cannot be written is not installed — the job
// fails with the save error, the old tables keep serving under the old
// version, and nothing is pushed.
func TestRulesApplyNeedsItsSnapshot(t *testing.T) {
	// A regular file where the directory should be: every save fails
	// with ENOTDIR, even as root.
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var pushes atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		pushes.Add(1)
	}))
	defer stub.Close()
	front, fts, _ := fleetFrontWith(t, Config{Fleet: &fleet.Options{Lease: 30 * time.Second}, StateDir: dir})
	registerWorker(t, fts, "stub", stub.URL, 0)

	before := front.registry()
	st := applyRules(t, client.New(fts.URL, fts.Client()))
	if st.State != "failed" || st.Applied || !strings.Contains(st.Error, "state snapshot: ") {
		t.Fatalf("apply over an unwritable snapshot ended %q (applied %v, error %q), want failed with the save error",
			st.State, st.Applied, st.Error)
	}
	if front.registry() != before || front.TableVersion() != 0 {
		t.Fatalf("refused apply still serves: registry swapped %v, v%d", front.registry() != before, front.TableVersion())
	}
	time.Sleep(50 * time.Millisecond) // a rollout, if one started, reaches the stub
	if ro := front.Fleet().Status().Rollout; ro != nil || pushes.Load() != 0 {
		t.Fatalf("refused apply reached the fleet: rollout %+v, %d push(es)", ro, pushes.Load())
	}
}

// TestFleetPushFollowsPersist: a worker is pushed only a version the
// front tier's snapshot already holds, so a front tier killed
// mid-rollout restarts at the version its workers serve.
func TestFleetPushFollowsPersist(t *testing.T) {
	dir := t.TempDir()
	var pushes atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var upd api.FleetTableUpdate
		if err := json.NewDecoder(r.Body).Decode(&upd); err != nil {
			t.Errorf("push body: %v", err)
		}
		pushes.Add(1)
		if snap, err := state.Load(StatePath(dir)); err != nil || snap.TableVersion != upd.Version {
			var onDisk int64 = -1
			if snap != nil {
				onDisk = snap.TableVersion
			}
			t.Errorf("push of v%d while the snapshot on disk holds v%d (load error %v)", upd.Version, onDisk, err)
		}
		_ = json.NewEncoder(w).Encode(api.FleetTableAck{Version: upd.Version})
	}))
	defer stub.Close()
	front, fts, _ := fleetFrontWith(t, Config{Fleet: &fleet.Options{Lease: 30 * time.Second}, StateDir: dir})
	registerWorker(t, fts, "stub", stub.URL, 0)

	cl := client.New(fts.URL, fts.Client())
	for ver := int64(1); ver <= 2; ver++ {
		if st := applyRules(t, cl); st.State != "done" || !st.Applied {
			t.Fatalf("manual apply ended %q (error %q)", st.State, st.Error)
		}
		if ro := waitRolloutDone(t, front, ver); len(ro.Pushed) != 1 || len(ro.Evicted) != 0 {
			t.Fatalf("rollout of v%d: %+v, want the stub pushed", ver, ro)
		}
	}
	if got := pushes.Load(); got != 2 {
		t.Fatalf("%d pushes, want 2", got)
	}
}
