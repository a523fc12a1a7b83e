package server

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// configWireCases pins what the two config endpoints accept and serve:
// for each body POSTed to <path>/config, the whole status document the
// POST answers and a following GET <path> serves. Documents compare as
// decoded key/value sets, so key order is free but every key and value
// is fixed.
var configWireCases = []struct {
	name, path, body, want string
}{
	{
		name: "drift zero",
		path: "/drift",
		body: `{}`,
		want: `{"config":{"auto_reprofile":false,"canary_err_sigma":3,"canary_fraction":8,"canary_lat_slack":0.25,"canary_max_ms":120000,"canary_min_samples":96,"cooldown_ms":30000,"cusum_h":12,"cusum_k":0.5,"enabled":false,"err_delta":0.02,"err_lambda":0.3,"heal_backoff_ms":30000,"hedge_boost_quantile":0.99,"lat_delta":0.05,"lat_lambda":1,"max_heal_retries":8,"quantile_ratio":0.5,"quantile_strikes":3,"season_cycles":2,"warmup_windows":8,"window":64},"reprofiles":0,"state":"disabled"}`,
	},
	{
		name: "drift defaulted",
		path: "/drift",
		body: `{"enabled":true,"auto_reprofile":false,"window":64,"warmup_windows":8,"err_delta":0.02,"err_lambda":0.3,"lat_delta":0.05,"lat_lambda":1,"cusum_k":0.5,"cusum_h":12,"quantile_ratio":0.5,"quantile_strikes":3,"cooldown_ms":30000,"season_cycles":2,"canary_fraction":8,"canary_min_samples":96,"canary_max_ms":120000,"canary_err_sigma":3,"canary_lat_slack":0.25,"max_heal_retries":8,"heal_backoff_ms":30000,"hedge_boost_quantile":0.99}`,
		want: `{"config":{"auto_reprofile":false,"canary_err_sigma":3,"canary_fraction":8,"canary_lat_slack":0.25,"canary_max_ms":120000,"canary_min_samples":96,"cooldown_ms":30000,"cusum_h":12,"cusum_k":0.5,"enabled":true,"err_delta":0.02,"err_lambda":0.3,"heal_backoff_ms":30000,"hedge_boost_quantile":0.99,"lat_delta":0.05,"lat_lambda":1,"max_heal_retries":8,"quantile_ratio":0.5,"quantile_strikes":3,"season_cycles":2,"warmup_windows":8,"window":64},"reprofiles":0,"state":"watching"}`,
	},
	{
		name: "drift every field",
		path: "/drift",
		body: `{"enabled":true,"auto_reprofile":true,"window":32,"warmup_windows":4,"err_delta":0.03,"err_lambda":0.4,"lat_delta":0.06,"lat_lambda":1.5,"cusum_k":0.75,"cusum_h":9,"quantile_ratio":0.6,"quantile_strikes":5,"cooldown_ms":1500.5,"season_period":12,"season_cycles":3,"canary_fraction":4,"canary_min_samples":50,"canary_max_ms":60000.25,"canary_err_sigma":2.5,"canary_lat_slack":0.1,"max_heal_retries":6,"heal_backoff_ms":0.001,"hedge_boost_quantile":0.95}`,
		want: `{"config":{"auto_reprofile":true,"canary_err_sigma":2.5,"canary_fraction":4,"canary_lat_slack":0.1,"canary_max_ms":60000.25,"canary_min_samples":50,"cooldown_ms":1500.5,"cusum_h":9,"cusum_k":0.75,"enabled":true,"err_delta":0.03,"err_lambda":0.4,"heal_backoff_ms":0.001,"hedge_boost_quantile":0.95,"lat_delta":0.06,"lat_lambda":1.5,"max_heal_retries":6,"quantile_ratio":0.6,"quantile_strikes":5,"season_cycles":3,"season_period":12,"warmup_windows":4,"window":32},"reprofiles":0,"state":"watching"}`,
	},
	{
		name: "drift disabled again",
		path: "/drift",
		body: `{"enabled":false}`,
		want: `{"config":{"auto_reprofile":false,"canary_err_sigma":3,"canary_fraction":8,"canary_lat_slack":0.25,"canary_max_ms":120000,"canary_min_samples":96,"cooldown_ms":30000,"cusum_h":12,"cusum_k":0.5,"enabled":false,"err_delta":0.02,"err_lambda":0.3,"heal_backoff_ms":30000,"hedge_boost_quantile":0.99,"lat_delta":0.05,"lat_lambda":1,"max_heal_retries":8,"quantile_ratio":0.5,"quantile_strikes":3,"season_cycles":2,"warmup_windows":8,"window":64},"reprofiles":0,"state":"disabled"}`,
	},
	{
		name: "admission zero",
		path: "/admission",
		body: `{}`,
		want: `{"admitted":0,"config":{"brownout_engage_intervals":2,"brownout_engage_shed":0.1,"brownout_interval_ms":500,"brownout_release_intervals":4,"brownout_release_shed":0.02,"brownout_tolerance":0.1,"enabled":false,"priority_tolerance":0.01,"retry_after_ms":250,"shed_margin":1},"in_flight":0,"state":"disabled"}`,
	},
	{
		name: "admission defaulted",
		path: "/admission",
		body: `{"enabled":true,"max_in_flight":100,"priority_reserve":10,"priority_tolerance":0.01,"shed_margin":1,"brownout":false,"brownout_tolerance":0.1,"brownout_engage_shed":0.1,"brownout_release_shed":0.02,"brownout_engage_intervals":2,"brownout_release_intervals":4,"brownout_interval_ms":500,"retry_after_ms":250}`,
		want: `{"admitted":0,"config":{"brownout_engage_intervals":2,"brownout_engage_shed":0.1,"brownout_interval_ms":500,"brownout_release_intervals":4,"brownout_release_shed":0.02,"brownout_tolerance":0.1,"enabled":true,"max_in_flight":100,"priority_reserve":10,"priority_tolerance":0.01,"retry_after_ms":250,"shed_margin":1},"in_flight":0,"state":"normal"}`,
	},
	{
		name: "admission every field",
		path: "/admission",
		body: `{"enabled":true,"max_in_flight":64,"priority_reserve":5,"priority_tolerance":0.02,"default_rate_per_sec":100,"default_burst":200,"tenants":{"metered":{"rate_per_sec":50,"burst":100},"free":{"rate_per_sec":0}},"shed_margin":-1,"brownout":true,"brownout_tolerance":0.15,"brownout_engage_shed":0.2,"brownout_release_shed":0.05,"brownout_engage_intervals":3,"brownout_release_intervals":5,"brownout_interval_ms":250.5,"retry_after_ms":125.25}`,
		want: `{"admitted":0,"config":{"brownout":true,"brownout_engage_intervals":3,"brownout_engage_shed":0.2,"brownout_interval_ms":250.5,"brownout_release_intervals":5,"brownout_release_shed":0.05,"brownout_tolerance":0.15,"default_burst":200,"default_rate_per_sec":100,"enabled":true,"max_in_flight":64,"priority_reserve":5,"priority_tolerance":0.02,"retry_after_ms":125.25,"shed_margin":-1,"tenants":{"free":{"rate_per_sec":0},"metered":{"burst":100,"rate_per_sec":50}}},"in_flight":0,"state":"normal"}`,
	},
}

func TestConfigWireEquivalence(t *testing.T) {
	_, ts, _ := testRuleGenServer(t)
	decode := func(resp *http.Response) map[string]any {
		t.Helper()
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		var doc map[string]any
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("%v: %s", err, b)
		}
		return doc
	}
	for _, tc := range configWireCases {
		var want map[string]any
		if err := json.Unmarshal([]byte(tc.want), &want); err != nil {
			t.Fatalf("%s: bad pinned document: %v", tc.name, err)
		}
		resp, err := http.Post(ts.URL+tc.path+"/config", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		posted := decode(resp)
		if resp, err = http.Get(ts.URL + tc.path); err != nil {
			t.Fatal(err)
		}
		got := decode(resp)
		for verb, doc := range map[string]map[string]any{"POST": posted, "GET": got} {
			delete(doc, "backends") // profiled baselines, not configuration
			if !reflect.DeepEqual(doc, want) {
				b, _ := json.Marshal(doc)
				t.Errorf("%s: %s %s served\n%s\nwant\n%s", tc.name, verb, tc.path, b, tc.want)
			}
		}
	}
}
