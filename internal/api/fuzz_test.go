package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// Wire-format fuzzers for the runtime's two highest-volume payloads:
// the telemetry snapshot (every monitoring poll) and the batch dispatch
// request/response pair (thousands of items per body). The contract is
// the usual one for a JSON wire type: any bytes the decoder accepts
// must re-encode canonically — encode, decode, encode again yields the
// same bytes — and nothing may panic on arbitrary input. The comparison
// is on bytes, not values: an empty `omitempty` slice re-encodes to an
// absent field and decodes to nil, which is the same wire value. (JSON cannot carry NaN/Inf and Go's
// decoder rejects out-of-range numbers, so a decoded value is always
// re-encodable.)

// roundTrip re-encodes v into out (a pointer of the same type), failing
// the test on any asymmetry.
func roundTrip(t *testing.T, v, out any) {
	t.Helper()
	first, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("accepted value failed to marshal: %v", err)
	}
	if err := json.Unmarshal(first, out); err != nil {
		t.Fatalf("marshalled bytes rejected on re-read: %v\n%s", err, first)
	}
	second, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-encoding not canonical:\nfirst  %s\nsecond %s", first, second)
	}
}

// FuzzTelemetrySnapshot round-trips the GET /telemetry wire format.
func FuzzTelemetrySnapshot(f *testing.F) {
	seed, _ := json.Marshal(TelemetrySnapshot{
		Requests: 12345, Failures: 2,
		Tiers: []TierTelemetry{{
			Tier: "response-time/0.05", Requests: 100, Escalations: 12, Hedges: 3,
			DeadlineMisses: 1, EscalationFailures: 1, Graded: 99,
			MeanErr: 0.042, MeanLatencyMS: 17.25, MaxLatencyMS: 120.5, MeanCostUSD: 0.0003,
		}},
		Backends: []BackendTelemetry{{
			Backend: "replay:v0", Invocations: 112, MeanLatencyMS: 9.5,
			P95LatencyMS: 21.25, InvocationUSD: 0.01, IaaSUSD: 0.0004,
		}},
	})
	f.Add(seed)
	tenantSeed, _ := json.Marshal(TelemetrySnapshot{
		Requests: 500, Failures: 3,
		Tiers: []TierTelemetry{{Tier: "response-time/0.05", Requests: 500, Graded: 497}},
		Tenants: []TenantTelemetry{
			{
				Tenant: "acme", Requests: 320, Failures: 2,
				Tiers:    []TierTelemetry{{Tier: "response-time/0.05", Requests: 320, Graded: 318, MeanErr: 0.031}},
				Backends: []BackendTelemetry{{Backend: "replay:v0", Invocations: 320, InvocationUSD: 0.02}},
			},
			{Tenant: "blue", Requests: 180, Failures: 1},
		},
	})
	f.Add(tenantSeed)
	f.Add([]byte(`{"requests": 0, "tiers": null, "backends": null}`))
	f.Add([]byte(`{"tenants": [{"tenant": "", "requests": -1, "tiers": [{}]}, {}]}`))
	f.Add([]byte(`{"requests": 1, "tiers": [{"tier": "", "graded": -1}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"requests": 1e999}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var snap TelemetrySnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return // rejected input: nothing to round-trip
		}
		var again TelemetrySnapshot
		roundTrip(t, &snap, &again)
	})
}

// FuzzDispatchBatchWire round-trips the POST /dispatch/batch pair: the
// request body and the per-item response.
func FuzzDispatchBatchWire(f *testing.F) {
	reqSeed, _ := json.Marshal(DispatchBatchRequest{RequestIDs: []int{1, 2, 3, 99}, DeadlineMS: 40})
	cls := 7
	resSeed, _ := json.Marshal(DispatchBatchResult{
		Items: []DispatchBatchItem{
			{DispatchResult: DispatchResult{
				ComputeResult: ComputeResult{
					Class: &cls, Confidence: 0.93, Tier: 0.05, Objective: "response-time",
					Policy: "failover(v0->v4@0.5)", LatencyMS: 12.5, CostUSD: 0.001, Escalated: true,
				},
				Backend: "replay:v4", Started: 2, Hedged: true, DeadlineExceeded: true, IaaSUSD: 0.0002,
			}},
			{Error: "dispatch: backend replay:v0: chaos: injected backend fault"},
		},
		Failed: 1,
	})
	f.Add(reqSeed, resSeed)
	f.Add([]byte(`{"request_ids": []}`), []byte(`{"items": null}`))
	f.Add([]byte(`{"request_ids": [1], "deadline_ms": -3}`), []byte(`{"items": [{"transcript": [1, 2]}]}`))
	f.Add([]byte(`no`), []byte(`{"failed": 9007199254740993}`))
	f.Add([]byte(`{}`), []byte(`{"items":[{"transcript":[]}]}`)) // empty omitempty slice: absent on re-encode

	f.Fuzz(func(t *testing.T, reqData, resData []byte) {
		var req DispatchBatchRequest
		if err := json.Unmarshal(reqData, &req); err == nil {
			var again DispatchBatchRequest
			roundTrip(t, &req, &again)
		}
		var res DispatchBatchResult
		if err := json.Unmarshal(resData, &res); err == nil {
			var again DispatchBatchResult
			roundTrip(t, &res, &again)
		}
	})
}

// FuzzConfigWire holds the two config bodies to their contract: an
// arbitrary body either fails to decode or decodes to a config that
// encodes without error and decodes back to itself, and no body with a
// negative number — a sub-nanosecond *_ms value included — decodes, so
// no handler can apply one.
func FuzzConfigWire(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"enabled":true,"auto_reprofile":true,"window":128,"err_lambda":0.2}`,
		`{"enabled": true, "max_in_flight": 256, "brownout": true, "tenants": {"metered": {"rate_per_sec": 50, "burst": 100}}}`,
		`{"cooldown_ms":1500.5,"canary_max_ms":0.000249,"heal_backoff_ms":2.0438187938605434e10}`,
		`{"brownout_interval_ms":250.5,"retry_after_ms":9.2e12,"default_rate_per_sec":100,"default_burst":200,"shed_margin":-1}`,
		`{"cooldown_ms":-1e-7,"retry_after_ms":-1e-7}`,
		`{"COOLDOWN_MS":5,"cooldown_ms":-1,"tenants":{}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var drift, driftBack DriftConfig
		var driftMS struct {
			Cooldown    float64 `json:"cooldown_ms"`
			CanaryMax   float64 `json:"canary_max_ms"`
			HealBackoff float64 `json:"heal_backoff_ms"`
		}
		if configRoundTrip(t, body, &drift, &driftBack, &driftMS) {
			if !nonNegative(reflect.ValueOf(drift)) || driftMS.Cooldown < 0 || driftMS.CanaryMax < 0 || driftMS.HealBackoff < 0 {
				t.Fatalf("negative value accepted: %s", body)
			}
		}
		var adm, admBack AdmissionConfig
		var admMS struct {
			Interval   float64 `json:"brownout_interval_ms"`
			RetryAfter float64 `json:"retry_after_ms"`
		}
		if configRoundTrip(t, body, &adm, &admBack, &admMS) {
			adm.ShedMargin = 0
			if !nonNegative(reflect.ValueOf(adm)) || admMS.Interval < 0 || admMS.RetryAfter < 0 {
				t.Fatalf("negative value accepted: %s", body)
			}
		}
	})
}

// configRoundTrip decodes body into cfg and, when that succeeds, checks
// the encode/decode round trip through back and decodes body's *_ms
// keys as plain floats into ms. It reports whether body decoded.
func configRoundTrip(t *testing.T, body []byte, cfg, back, ms any) bool {
	if json.Unmarshal(body, cfg) != nil {
		return false
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("decoded config failed to encode: %v", err)
	}
	if err := json.Unmarshal(b, back); err != nil {
		t.Fatalf("encoded config rejected on re-read: %v\n%s", err, b)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Fatalf("round trip changed the config:\nfirst  %+v\nsecond %+v\nwire %s", cfg, back, b)
	}
	if err := json.Unmarshal(body, ms); err != nil {
		t.Fatalf("accepted body has malformed *_ms keys: %v", err)
	}
	return true
}
