package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/client"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/state"
)

// healTier is the tier TestHealEndings alarms and trials.
var healTier = dispatch.TierKey(string(rulegen.MinimizeLatency), 0.05)

// gatedBackend fails every invocation while down is set — the seam
// that makes a heal's re-profile fail.
type gatedBackend struct {
	dispatch.Backend
	down *atomic.Bool
}

func (b gatedBackend) Invoke(ctx context.Context, req *service.Request) (dispatch.Response, error) {
	if b.down.Load() {
		return dispatch.Response{}, errors.New("backend down")
	}
	return b.Backend.Invoke(ctx, req)
}

// healEnv is one node of TestHealEndings plus the seams its rows pull:
// a backend gate, and a table hook that parks the heal's rule job.
type healEnv struct {
	t       *testing.T
	srv     *Server
	cl      *client.Client
	dir     string
	began   time.Time
	down    atomic.Bool
	parked  chan struct{} // closed when the heal's tables reach the hook
	release chan struct{} // the hook returns once this closes
}

func newHealEnv(t *testing.T, f *canaryFixture, interval time.Duration, reprofile api.RuleGenRequest) *healEnv {
	e := &healEnv{t: t, dir: t.TempDir(), began: time.Now()}
	backends := dispatch.NewReplayBackends(f.matrix)
	backends[0] = gatedBackend{Backend: backends[0], down: &e.down}
	cfg := f.driftConfig()
	// One heal per node: the loop must not retry on its own, so the
	// post-state each row asserts is the first heal's.
	cfg.Cooldown = time.Hour
	e.srv = NewWithConfig(f.reg, f.corpus.Requests, Config{
		Matrix: f.matrix, Backends: backends, Drift: cfg,
		DriftInterval: interval, Reprofile: reprofile, StateDir: e.dir,
	})
	t.Cleanup(e.srv.Close)
	ts := httptest.NewServer(e.srv)
	t.Cleanup(ts.Close)
	e.cl = client.New(ts.URL, nil)
	return e
}

// park makes the heal's rule job stop in the table hook until release.
func (e *healEnv) park() {
	e.parked, e.release = make(chan struct{}), make(chan struct{})
	e.srv.heal.tableHook = func(tables []rulegen.RuleTable) []rulegen.RuleTable {
		close(e.parked)
		<-e.release
		return tables
	}
}

// alarm warms the tier's detectors up on healthy outcomes and then
// collapses its accuracy, so the next Check confirms a shift.
func (e *healEnv) alarm() {
	good := dispatch.Outcome{Err: 0.05, Latency: 20 * time.Millisecond}
	bad := dispatch.Outcome{Err: 0.8, Latency: 20 * time.Millisecond}
	for i := 0; i < 32*8; i++ {
		e.srv.mon.ObserveOutcome(healTier, &good)
	}
	for i := 0; i < 32*4; i++ {
		e.srv.mon.ObserveOutcome(healTier, &bad)
	}
}

// trial waits for the candidate to stage and feeds both arms enough
// outcomes for a verdict, the canary arm grading canaryErr.
func (e *healEnv) trial(canaryErr float64) {
	e.waitFor("the canary trial", func() bool { return e.drift().State == "canary" })
	co := dispatch.Outcome{Err: canaryErr, Latency: 20 * time.Millisecond}
	io := dispatch.Outcome{Err: 0.05, Latency: 20 * time.Millisecond}
	for i := 0; i < 48; i++ {
		e.srv.mon.ObserveCanaryOutcome(healTier, &co)
		e.srv.mon.ObserveOutcome(healTier, &io)
	}
}

func (e *healEnv) waitFor(what string, cond func() bool) {
	e.t.Helper()
	for deadline := time.Now().Add(60 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			e.t.Fatalf("timed out waiting for %s; drift status %+v", what, e.drift())
		}
	}
}

func (e *healEnv) drift() *api.DriftStatus {
	e.t.Helper()
	st, err := e.cl.Drift(context.Background())
	if err != nil {
		e.t.Fatal(err)
	}
	return st
}

func (e *healEnv) snapshot() *state.Snapshot {
	e.t.Helper()
	snap, err := state.Load(StatePath(e.dir))
	if err != nil {
		e.t.Fatalf("no state snapshot: %v", err)
	}
	return snap
}

// TestHealEndings drives one heal to each of its endings and asserts
// the same post-state every time: however a heal ends, it ends once,
// through healer.finish.
func TestHealEndings(t *testing.T) {
	f := newCanaryFixture(t)
	// The cancel row needs a job still sweeping when DELETE arrives.
	slow := f.reprofileReq()
	slow.MinTrials, slow.MaxTrials = 4000, 4000
	const loop = 2 * time.Millisecond

	for _, row := range []struct {
		name      string
		interval  time.Duration
		reprofile api.RuleGenRequest
		// arm runs before the detectors alarm; drive takes the triggered
		// heal to its ending.
		arm, drive func(e *healEnv)
		verdict    string
		errHas     string
		ranJob     bool // the heal got as far as starting its rule job
		closed     bool // the ending is Close's: the final snapshot holds the record
	}{
		{
			name: "reprofile fails", interval: loop, reprofile: f.reprofileReq(),
			arm:     func(e *healEnv) { e.down.Store(true) },
			verdict: "failed", errHas: "reprofile: ",
		},
		{
			name: "job start collides with a manual job", interval: loop, reprofile: f.reprofileReq(),
			arm: func(e *healEnv) {
				e.srv.jobMu.Lock()
				e.srv.job = &ruleJob{running: true}
				e.srv.jobMu.Unlock()
			},
			verdict: "failed", errHas: "rules: " + errJobRunning.Error(),
		},
		{
			// A sweep over an in-memory matrix fails only by
			// cancellation, so this row plays the trigger and the job's
			// goroutine by hand on a node without a loop.
			name: "job fails", interval: -1, reprofile: f.reprofileReq(),
			drive: func(e *healEnv) {
				now := time.Now()
				events, trigger := e.srv.mon.Check(now, nil)
				if !trigger {
					e.t.Fatal("alarmed monitor did not trigger")
				}
				h := e.srv.heal
				h.mu.Lock()
				h.cur = &heal{trigger: h.describeTrigger(events), start: now, jobID: 41}
				h.lastJobID = 41
				h.mu.Unlock()
				h.generated(&ruleJob{id: 41}, nil, errors.New("sweep aborted"))
			},
			verdict: "failed", errHas: "rules job: sweep aborted", ranJob: true,
		},
		{
			name: "job cancelled", interval: loop, reprofile: slow,
			drive: func(e *healEnv) {
				e.waitFor("the heal's rule job", func() bool {
					js, err := e.cl.RulesStatus(context.Background())
					return err == nil && js.Drift && js.State == "running"
				})
				if err := e.cl.CancelRules(context.Background()); err != nil {
					e.t.Fatal(err)
				}
			},
			verdict: "failed", errHas: "rules job cancelled", ranJob: true,
		},
		{
			name: "canary rejected", interval: loop, reprofile: f.reprofileReq(),
			drive:   func(e *healEnv) { e.trial(1.0) },
			verdict: "rejected", errHas: "tier " + healTier, ranJob: true,
		},
		{
			name: "canary promoted", interval: loop, reprofile: f.reprofileReq(),
			drive:   func(e *healEnv) { e.trial(0.05) },
			verdict: "promoted", ranJob: true,
		},
		{
			// A won canary whose snapshot cannot be written is not
			// installed: the incumbent keeps serving.
			name: "canary won, snapshot unwritable", interval: loop, reprofile: f.reprofileReq(),
			arm: func(e *healEnv) {
				// A regular file where the directory was: every save
				// fails with ENOTDIR, even as root.
				if err := os.RemoveAll(e.dir); err != nil {
					e.t.Fatal(err)
				}
				if err := os.WriteFile(e.dir, nil, 0o644); err != nil {
					e.t.Fatal(err)
				}
			},
			drive:   func(e *healEnv) { e.trial(0.05) },
			verdict: "failed", errHas: "state snapshot: ", ranJob: true,
		},
		{
			name: "Close mid-trial", interval: loop, reprofile: f.reprofileReq(),
			drive: func(e *healEnv) {
				e.waitFor("the canary trial", func() bool { return e.drift().State == "canary" })
				e.srv.Close()
			},
			verdict: "failed", errHas: "shutdown during canary trial", ranJob: true, closed: true,
		},
		{
			// The regression row: at the parent commit the released job
			// staged its tables on the closed node — "canary staged=true
			// state=canary heals=0", a trial nobody would ever judge.
			name: "Close mid-job", interval: loop, reprofile: f.reprofileReq(),
			arm: func(e *healEnv) { e.park() },
			drive: func(e *healEnv) {
				select {
				case <-e.parked:
				case <-time.After(60 * time.Second):
					e.t.Fatalf("heal's rule job never reached the table hook; drift status %+v", e.drift())
				}
				e.srv.Close()
				close(e.release)
				// A closed node does nothing further, so there is no event
				// to wait for: watch a few dozen tick lengths for the stage
				// that must not happen.
				for i := 0; i < 50; i++ {
					if st := e.drift(); e.srv.heal.cand.Load() != nil || st.State == "canary" {
						e.t.Fatalf("rule job finishing after Close staged a candidate: state %q", st.State)
					}
					time.Sleep(time.Millisecond)
				}
			},
			verdict: "failed", errHas: "shutdown during rules job", ranJob: true, closed: true,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			ctx := context.Background()
			e := newHealEnv(t, f, row.interval, row.reprofile)
			if row.arm != nil {
				row.arm(e)
			}
			e.alarm()
			if row.drive != nil {
				row.drive(e)
			}
			promoted := row.verdict == "promoted"

			// Exactly one record, and a promoted one is already on disk
			// when GET /drift first shows it.
			var st *api.DriftStatus
			e.waitFor("the heal's record", func() bool { st = e.drift(); return len(st.Heals) > 0 })
			if promoted {
				snap := e.snapshot()
				if len(snap.Heals) != 1 || !snap.Heals[0].Promoted || snap.Reprofiles != 1 ||
					snap.Heals[0].At.UnixMilli() != st.Heals[0].UnixMS {
					t.Fatalf("published heal %+v not in the snapshot: reprofiles %d, heals %+v",
						st.Heals[0], snap.Reprofiles, snap.Heals)
				}
			}
			if len(st.Heals) != 1 {
				t.Fatalf("heal history %+v, want one record", st.Heals)
			}
			rec := st.Heals[0]
			if rec.Verdict != row.verdict || rec.Promoted != promoted {
				t.Fatalf("record %+v, want verdict %q", rec, row.verdict)
			}
			if (promoted && rec.Error != "") || !strings.Contains(rec.Error, row.errHas) {
				t.Fatalf("record error %q, want it to contain %q", rec.Error, row.errHas)
			}
			if rec.Trigger == "" {
				t.Fatalf("record lost its trigger: %+v", rec)
			}
			if rec.DurationMS <= 0 || rec.DurationMS > float64(time.Since(e.began))/float64(time.Millisecond) {
				t.Fatalf("record duration %vms outside the test's own span", rec.DurationMS)
			}

			// /drift and /rules/status agree with the record.
			js, err := e.cl.RulesStatus(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if row.ranJob {
				if rec.JobID == 0 || st.LastJobID != rec.JobID {
					t.Fatalf("record job %d, /drift last_job_id %d", rec.JobID, st.LastJobID)
				}
				if row.interval > 0 && (js.JobID != rec.JobID || !js.Drift) {
					t.Fatalf("/rules/status %+v is not the heal's job %d", js, rec.JobID)
				}
			} else if rec.JobID != 0 || st.LastJobID != 0 {
				t.Fatalf("heal that started no job reports job %d (last_job_id %d)", rec.JobID, st.LastJobID)
			}
			if js.Applied != promoted {
				t.Fatalf("/rules/status applied=%v after a %s heal", js.Applied, row.verdict)
			}
			if st.LastError != rec.Error {
				t.Fatalf("last_error %q, record error %q", st.LastError, rec.Error)
			}
			var wantReprofiles int64
			if promoted {
				wantReprofiles = 1
			}
			if st.Reprofiles != wantReprofiles {
				t.Fatalf("reprofiles %d after a %s heal", st.Reprofiles, row.verdict)
			}
			if st.State != "watching" {
				t.Fatalf("state %q after the heal ended", st.State)
			}
			if got := e.srv.TableVersion(); got != wantReprofiles {
				t.Fatalf("serving v%d after a %s heal, want v%d", got, row.verdict, wantReprofiles)
			}

			// No staged candidate: nothing resolves canary.
			if e.srv.heal.cand.Load() != nil {
				t.Fatal("candidate still staged")
			}
			for i := 0; i < 32; i++ {
				tenant := ""
				if i%2 == 1 {
					tenant = fmt.Sprintf("tenant-%d", i)
				}
				if _, canary, _, err := e.srv.resolveRule(0.05, rulegen.MinimizeLatency, tenant); err != nil || canary {
					t.Fatalf("resolve for tenant %q: canary=%v err=%v", tenant, canary, err)
				}
			}

			// Close's own endings are in the final snapshot.
			if row.closed {
				snap := e.snapshot()
				if len(snap.Heals) != 1 || snap.Heals[0].Err != rec.Error || snap.Reprofiles != 0 {
					t.Fatalf("final snapshot heals %+v, want the %q record", snap.Heals, rec.Error)
				}
			}

			// The in-flight slot is free: once the backoff has passed, an
			// alarmed Check triggers again. (A promotion reset the
			// detectors; re-alarm them first.)
			if promoted {
				e.alarm()
			}
			if _, trigger := e.srv.mon.Check(time.Now().Add(48*time.Hour), nil); !trigger {
				t.Fatal("in-flight slot not freed: an alarmed Check past the backoff did not trigger")
			}
		})
	}
}
