package server

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/client"
)

func TestDriftStatusDefaultDisabled(t *testing.T) {
	_, ts, _ := testRuleGenServer(t)
	cl := client.New(ts.URL, nil)
	st, err := cl.Drift(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "disabled" {
		t.Fatalf("state %q on a server without drift config", st.State)
	}
	if st.Config.Enabled {
		t.Fatal("config reports enabled")
	}
	// Defaults are resolved even while disabled.
	if st.Config.Window <= 0 || st.Config.WarmupWindows <= 0 {
		t.Fatalf("unresolved defaults in %+v", st.Config)
	}
}

func TestDriftConfigEnableAtRuntime(t *testing.T) {
	srv, ts, corpus := testRuleGenServer(t)
	cl := client.New(ts.URL, nil)
	ctx := context.Background()

	st, err := cl.SetDriftConfig(ctx, api.DriftConfig{Enabled: true, Window: 16, WarmupWindows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "watching" || !st.Config.Enabled || st.Config.Window != 16 {
		t.Fatalf("status after enable: %+v", st)
	}
	// The monitor now observes traffic: tier state appears.
	for i := 0; i < 20; i++ {
		if _, err := cl.Dispatch(ctx, corpus.Requests[i].ID, 0.05, "response-time", 0); err != nil {
			t.Fatal(err)
		}
	}
	st, err = cl.Drift(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tiers) != 1 || st.Tiers[0].Requests != 20 {
		t.Fatalf("observed tiers %+v", st.Tiers)
	}
	// Disable again: observation stops and state clears.
	if _, err := cl.SetDriftConfig(ctx, api.DriftConfig{Enabled: false}); err != nil {
		t.Fatal(err)
	}
	if st := srv.DriftMonitor().Status(nil); st.State != "disabled" || len(st.Tiers) != 0 {
		t.Fatalf("disable left state %+v", st)
	}
}

func TestDriftConfigValidation(t *testing.T) {
	_, ts, _ := testRuleGenServer(t)
	bodies := []string{`not json`}
	for _, field := range []string{
		"window", "warmup_windows", "err_delta", "err_lambda", "lat_delta", "lat_lambda",
		"cusum_k", "cusum_h", "quantile_ratio", "quantile_strikes", "cooldown_ms",
		"season_period", "season_cycles", "canary_fraction", "canary_min_samples",
		"canary_max_ms", "canary_err_sigma", "canary_lat_slack", "max_heal_retries",
		"heal_backoff_ms", "hedge_boost_quantile",
	} {
		bodies = append(bodies, `{"enabled": true, "`+field+`": -1}`)
	}
	// Sub-nanosecond negatives round to a zero Duration, so the sign is
	// checked on the wire value.
	for _, field := range []string{"cooldown_ms", "canary_max_ms", "heal_backoff_ms"} {
		bodies = append(bodies, `{"enabled": true, "`+field+`": -1e-7}`)
	}
	for _, body := range bodies {
		resp, err := http.Post(ts.URL+"/drift/config", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestRuleGenRequestBootstrapOverrides(t *testing.T) {
	gp, err := ruleGenParams(api.RuleGenRequest{MinTrials: 3, MaxTrials: 9, ThresholdPoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	if gp.gcfg.MinTrials != 3 || gp.gcfg.MaxTrials != 9 || gp.gcfg.ThresholdPoints != 2 {
		t.Fatalf("overrides not applied: %+v", gp.gcfg)
	}
	for name, req := range map[string]api.RuleGenRequest{
		"min > max":                 {MinTrials: 30, MaxTrials: 9},
		"negative bounds":           {MinTrials: -1},
		"max_tolerance above 1":     {MaxTolerance: 1.5},
		"grid of 10 002 points":     {MaxTolerance: 1, Step: 1.0 / 10_001},
		"grid of 10^11 points":      {Step: 1e-12},
		"default max, tiny step":    {Step: 0.1 / 20_000},
		"tiny step, small max":      {MaxTolerance: 0.01, Step: 1e-7},
		"huge max before tiny step": {MaxTolerance: 1e9, Step: 1e-12},
	} {
		if _, err := ruleGenParams(req); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The largest grids still accepted: max_tolerance 1, and 10 001
	// points.
	for _, req := range []api.RuleGenRequest{{MaxTolerance: 1}, {MaxTolerance: 1, Step: 0.0001}, {Step: 0.1 / 10_000}} {
		if _, err := ruleGenParams(req); err != nil {
			t.Errorf("%+v rejected: %v", req, err)
		}
	}
}
