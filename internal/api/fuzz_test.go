package api

import (
	"bytes"
	"encoding/json"
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
