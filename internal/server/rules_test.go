package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/client"
	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/tiers"
	"github.com/toltiers/toltiers/internal/vision"
)

// testRuleGenServer builds a server with the rule-generation endpoints
// enabled over a small profiled corpus.
func testRuleGenServer(t testing.TB) (*Server, *httptest.Server, *dataset.VisionCorpus) {
	t.Helper()
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 300, Device: vision.GPU})
	m := profile.Build(c.Service, c.Requests)
	cfg := rulegen.DefaultConfig()
	cfg.MinTrials = 5
	cfg.MaxTrials = 24
	cfg.ThresholdPoints = 4
	cfg.IncludePickBest = false
	g := rulegen.New(m, nil, cfg)
	tols := []float64{0, 0.01, 0.05, 0.10}
	reg := tiers.NewRegistry(c.Service,
		g.Generate(tols, rulegen.MinimizeLatency),
		g.Generate(tols, rulegen.MinimizeCost))
	srv := NewWithConfig(reg, c.Requests, Config{Matrix: m})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, c
}

// waitForJob polls /rules/status until the job leaves the running state.
func waitForJob(t *testing.T, cl *client.Client) *api.RuleGenStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := cl.RulesStatus(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "running" && st.State != "idle" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after deadline", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRulesGenerateAppliesTables(t *testing.T) {
	_, ts, corpus := testRuleGenServer(t)
	cl := client.New(ts.URL, ts.Client())

	// Older clients still send shards, workers and batch_size: the body
	// is accepted and the three fields are ignored.
	resp, err := http.Post(ts.URL+"/rules/generate", "application/json",
		strings.NewReader(`{"shards": 3, "workers": 3, "batch_size": 7, "apply": true, "step": 0.05}`))
	if err != nil {
		t.Fatal(err)
	}
	var acc api.RuleGenAccepted
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, decode err %v; want 202", resp.StatusCode, err)
	}
	if acc.JobID == 0 || acc.StatusURL != "/rules/status" {
		t.Fatalf("accepted = %+v", acc)
	}

	st := waitForJob(t, cl)
	if st.State != "done" {
		t.Fatalf("job ended %q (err %q)", st.State, st.Error)
	}
	if !st.Applied {
		t.Fatal("tables not applied")
	}
	if st.Total == 0 || st.Done != st.Total {
		t.Fatalf("progress %d/%d", st.Done, st.Total)
	}
	if st.MeanTrials < 12 || st.MaxTrials < st.MeanTrials || st.MaxTrials > 320 {
		t.Fatalf("trials mean %v max %v outside the default [12, 320] bounds", st.MeanTrials, st.MaxTrials)
	}
	if len(st.Objectives) != 2 {
		t.Fatalf("objectives = %v", st.Objectives)
	}

	// The swapped registry must keep serving compute traffic.
	res, err := cl.Compute(context.Background(), corpus.Requests[1].ID, 0.05, rulegen.MinimizeLatency)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy == "" {
		t.Fatal("no policy after registry swap")
	}
}

func TestRulesGenerateSingleObjectiveKeepsOther(t *testing.T) {
	srv, ts, _ := testRuleGenServer(t)
	cl := client.New(ts.URL, ts.Client())
	if _, err := cl.GenerateRules(context.Background(), api.RuleGenRequest{
		Objectives: []string{string(rulegen.MinimizeCost)},
		Apply:      true,
		Step:       0.05,
	}); err != nil {
		t.Fatal(err)
	}
	st := waitForJob(t, cl)
	if st.State != "done" || !st.Applied {
		t.Fatalf("status = %+v", st)
	}
	// Both objectives must still be registered after a cost-only swap.
	objs := srv.registry().Objectives()
	if len(objs) != 2 {
		t.Fatalf("registry lost objectives: %v", objs)
	}
}

func TestRulesStatusIdle(t *testing.T) {
	_, ts, _ := testRuleGenServer(t)
	cl := client.New(ts.URL, ts.Client())
	st, err := cl.RulesStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "idle" {
		t.Fatalf("state = %q, want idle", st.State)
	}
}

func TestRulesGenerateValidation(t *testing.T) {
	_, ts, _ := testRuleGenServer(t)
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()
	if _, err := cl.GenerateRules(ctx, api.RuleGenRequest{Objectives: []string{"warp"}}); err == nil {
		t.Fatal("bad objective accepted")
	}
	if _, err := cl.GenerateRules(ctx, api.RuleGenRequest{Confidence: 1.5}); err == nil {
		t.Fatal("bad confidence accepted")
	}
	// A grid too large to build is refused before any sweep starts.
	for _, body := range []string{`{"step": 1e-12}`, `{"max_tolerance": 2}`} {
		resp, err := http.Post(ts.URL+"/rules/generate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if st, err := cl.RulesStatus(ctx); err != nil || st.State != "idle" {
		t.Fatalf("status after refused requests = %+v, %v; want idle", st, err)
	}
}

func TestRulesGenerateConflictWhileRunning(t *testing.T) {
	srv, ts, _ := testRuleGenServer(t)
	cl := client.New(ts.URL, ts.Client())
	// Pin a running job directly so the conflict check is deterministic.
	srv.jobMu.Lock()
	srv.job = &ruleJob{id: 99, running: true}
	srv.jobMu.Unlock()
	_, err := cl.GenerateRules(context.Background(), api.RuleGenRequest{})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != 409 {
		t.Fatalf("err = %v, want 409", err)
	}
	srv.jobMu.Lock()
	srv.job = nil
	srv.jobMu.Unlock()
}

func TestRulesEndpointsDisabledWithoutMatrix(t *testing.T) {
	ts, _ := testServer(t) // plain New: no matrix
	cl := client.New(ts.URL, ts.Client())
	_, err := cl.GenerateRules(context.Background(), api.RuleGenRequest{})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != 503 {
		t.Fatalf("generate err = %v, want 503", err)
	}
	_, err = cl.RulesStatus(context.Background())
	apiErr, ok = err.(*client.APIError)
	if !ok || apiErr.StatusCode != 503 {
		t.Fatalf("status err = %v, want 503", err)
	}
	if err = cl.CancelRules(context.Background()); err == nil {
		t.Fatal("cancel without matrix accepted")
	}
}

func TestRulesCancelRunningJob(t *testing.T) {
	_, ts, _ := testRuleGenServer(t)
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	// Nothing to cancel while idle.
	if err := cl.CancelRules(ctx); err == nil {
		t.Fatal("cancel with no running job accepted")
	}

	// Every candidate runs the full 320 trials, so the sweep is long
	// and a cancel issued right after acceptance lands mid-sweep.
	if _, err := cl.GenerateRules(ctx, api.RuleGenRequest{
		MinTrials: 320,
		MaxTrials: 320,
		Apply:     true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.CancelRules(ctx); err != nil {
		t.Fatal(err)
	}
	st := waitForJob(t, cl)
	if st.State == "cancelling" {
		// The workers were still draining; wait for the terminal state.
		deadline := time.Now().Add(30 * time.Second)
		for st.State == "cancelling" {
			if time.Now().After(deadline) {
				t.Fatalf("job stuck cancelling")
			}
			time.Sleep(10 * time.Millisecond)
			var err error
			if st, err = cl.RulesStatus(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st.State != "cancelled" {
		t.Fatalf("job ended %q (err %q), want cancelled", st.State, st.Error)
	}
	if st.Applied {
		t.Fatal("cancelled job applied tables")
	}
	if st.Done >= st.Total && st.Total > 0 {
		t.Fatalf("cancel landed after the sweep (%d/%d candidates)", st.Done, st.Total)
	}

	// A cancelled job releases the one-at-a-time slot: a fresh sweep
	// must be accepted and run to completion.
	if _, err := cl.GenerateRules(ctx, api.RuleGenRequest{Step: 0.05}); err != nil {
		t.Fatal(err)
	}
	if st = waitForJob(t, cl); st.State != "done" {
		t.Fatalf("follow-up job ended %q", st.State)
	}
}
