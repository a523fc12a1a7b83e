package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/client"
	"github.com/toltiers/toltiers/internal/rulegen"
)

func TestDispatchRoundTrip(t *testing.T) {
	ts, corpus := testServer(t)
	cl := client.New(ts.URL, ts.Client())
	res, err := cl.Dispatch(context.Background(), corpus.Requests[5].ID, 0.05, rulegen.MinimizeLatency, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != 0.05 {
		t.Fatalf("tier = %v", res.Tier)
	}
	if res.Backend == "" || res.Started < 1 {
		t.Fatalf("runtime fields missing: %+v", res)
	}
	if res.Class == nil || res.LatencyMS <= 0 || res.CostUSD <= 0 {
		t.Fatalf("payload/accounting missing: %+v", res)
	}
	if res.Hedged {
		t.Fatal("hedged without a deadline")
	}
}

func TestDispatchDeadlineMarking(t *testing.T) {
	ts, corpus := testServer(t)
	cl := client.New(ts.URL, ts.Client())
	// A 1ns budget is always overrun; the outcome must say so rather
	// than fail.
	res, err := cl.Dispatch(context.Background(), corpus.Requests[0].ID, 0.10, rulegen.MinimizeLatency, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadlineExceeded {
		t.Fatalf("1ns deadline not marked exceeded: %+v", res)
	}
}

func TestDispatchValidation(t *testing.T) {
	ts, corpus := testServer(t)
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()
	if _, err := cl.Dispatch(ctx, 1<<30, 0.05, rulegen.MinimizeLatency, 0); err == nil {
		t.Fatal("unknown request id accepted")
	}
	if _, err := cl.Dispatch(ctx, corpus.Requests[0].ID, 0.05, "warp", 0); err == nil {
		t.Fatal("bad objective accepted")
	}
	if _, err := cl.Dispatch(ctx, corpus.Requests[0].ID, 0.05, rulegen.MinimizeLatency, -time.Second); err == nil {
		t.Fatal("negative deadline accepted")
	}
	// A deadline whose nanosecond conversion overflows int64 must be
	// rejected, not silently wrapped into "no deadline" (the raw wire
	// field can carry magnitudes a time.Duration cannot).
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/dispatch",
		strings.NewReader(`{"request_id": 0, "deadline_ms": 1e13}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Tolerance", "0.05")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing deadline_ms: status %d, want 400", resp.StatusCode)
	}
}

func TestDispatchBatchRoundTrip(t *testing.T) {
	ts, corpus := testServer(t)
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	ids := make([]int, 12)
	for i := range ids {
		ids[i] = corpus.Requests[i].ID
	}
	batch, err := cl.DispatchBatch(ctx, ids, 0.05, rulegen.MinimizeLatency, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != len(ids) || batch.Failed != 0 {
		t.Fatalf("batch = %d items, %d failed", len(batch.Items), batch.Failed)
	}
	// Item-for-item equivalence with the single endpoint on a fresh
	// server (same corpus/tables, independent telemetry).
	ts2, _ := testServer(t)
	cl2 := client.New(ts2.URL, ts2.Client())
	for i, id := range ids {
		item := batch.Items[i]
		single, err := cl2.Dispatch(ctx, id, 0.05, rulegen.MinimizeLatency, 0)
		if err != nil {
			t.Fatal(err)
		}
		if item.Error != "" {
			t.Fatalf("item %d: %s", i, item.Error)
		}
		if item.LatencyMS != single.LatencyMS || item.CostUSD != single.CostUSD ||
			item.Backend != single.Backend || item.Escalated != single.Escalated ||
			item.Started != single.Started || *item.Class != *single.Class {
			t.Fatalf("item %d: batch %+v != single %+v", i, item, single)
		}
	}
	// The whole batch lands in telemetry as one transaction.
	snap, err := cl.Telemetry(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Requests != int64(len(ids)) {
		t.Fatalf("telemetry requests = %d, want %d", snap.Requests, len(ids))
	}

	// On the wire, again on fresh servers: the batch answer is framed by
	// Content-Length, not chunked, and each item is byte for byte the
	// single answer for its id, newline trimmed.
	post := func(url, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.HeaderTolerance, "0.05")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s %v", url, resp.StatusCode, b, err)
		}
		return resp, b
	}
	ts3, _ := testServer(t)
	ts4, _ := testServer(t)
	idText := make([]string, len(ids))
	for i, id := range ids {
		idText[i] = strconv.Itoa(id)
	}
	resp, body := post(ts3.URL+"/dispatch/batch", `{"request_ids": [`+strings.Join(idText, ", ")+`]}`)
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("batch answer framed with ContentLength %d, TransferEncoding %v; body is %d bytes",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
	var items struct{ Items []json.RawMessage }
	if err := json.Unmarshal(body, &items); err != nil || len(items.Items) != len(ids) {
		t.Fatalf("batch answer %s: %d items, %v", body, len(items.Items), err)
	}
	for i, id := range idText {
		_, single := post(ts4.URL+"/dispatch", `{"request_id": `+id+`}`)
		if want := bytes.TrimSuffix(single, []byte("\n")); !bytes.Equal(items.Items[i], want) {
			t.Fatalf("item %d:\n%s\nsingle answer:\n%s", i, items.Items[i], want)
		}
	}
}

func TestDispatchBatchValidation(t *testing.T) {
	ts, corpus := testServer(t)
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()
	if _, err := cl.DispatchBatch(ctx, []int{corpus.Requests[0].ID, 1 << 30}, 0.05, rulegen.MinimizeLatency, 0); err == nil {
		t.Fatal("unknown request id accepted")
	}
	if _, err := cl.DispatchBatch(ctx, nil, 0.05, rulegen.MinimizeLatency, 0); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := cl.DispatchBatch(ctx, []int{corpus.Requests[0].ID}, 0.05, rulegen.MinimizeLatency, -time.Second); err == nil {
		t.Fatal("negative deadline accepted")
	}
	big := make([]int, maxBatchItems+1)
	if _, err := cl.DispatchBatch(ctx, big, 0.05, rulegen.MinimizeLatency, 0); err == nil {
		t.Fatal("oversized batch accepted")
	}
	// Deadline marking applies per item.
	res, err := cl.DispatchBatch(ctx, []int{corpus.Requests[0].ID}, 0.10, rulegen.MinimizeLatency, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Items[0].DeadlineExceeded {
		t.Fatalf("1ns deadline not marked exceeded: %+v", res.Items[0])
	}
}

func TestTelemetryEndpoint(t *testing.T) {
	ts, corpus := testServer(t)
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	// Traffic through both paths lands in the same runtime telemetry.
	if _, err := cl.Compute(ctx, corpus.Requests[1].ID, 0.05, rulegen.MinimizeLatency); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.Dispatch(ctx, corpus.Requests[i].ID, 0.05, rulegen.MinimizeLatency, 0); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := cl.Telemetry(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Requests != 4 {
		t.Fatalf("telemetry requests = %d, want 4", snap.Requests)
	}
	var tier *api.TierTelemetry
	for i := range snap.Tiers {
		if snap.Tiers[i].Tier == "response-time/0.05" {
			tier = &snap.Tiers[i]
		}
	}
	if tier == nil {
		t.Fatalf("tier key missing from %+v", snap.Tiers)
	}
	if tier.Requests != 4 || tier.Graded != 4 {
		t.Fatalf("tier telemetry = %+v", tier)
	}
	if tier.MeanLatencyMS <= 0 || tier.MeanCostUSD <= 0 {
		t.Fatalf("tier means = %+v", tier)
	}
	if len(snap.Backends) == 0 {
		t.Fatal("no backend telemetry")
	}
	invocations := int64(0)
	for _, b := range snap.Backends {
		invocations += b.Invocations
	}
	if invocations < 4 {
		t.Fatalf("backend invocations = %d", invocations)
	}
}
