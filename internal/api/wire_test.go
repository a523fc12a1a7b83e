package api

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sameFloat is bit equality: the decoder must keep -0 apart from 0.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkDecode holds the three decoders to encoding/json on
// one body: same error text, same struct, whichever half answered — and,
// when the scanner accepted, that its own values are the ones
// encoding/json produces.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var wantC, gotC ComputeRequest
	wantErr := decodeJSON(body, &wantC)
	if err := DecodeCompute(body, &gotC); errText(err) != errText(wantErr) || gotC != wantC {
		t.Fatalf("DecodeCompute(%q) = %+v, %v; encoding/json %+v, %v", body, gotC, err, wantC, wantErr)
	}

	var wantD, gotD DispatchRequest
	wantErr = decodeJSON(body, &wantD)
	err := DecodeDispatch(body, &gotD)
	if errText(err) != errText(wantErr) || gotD.RequestID != wantD.RequestID || !sameFloat(gotD.DeadlineMS, wantD.DeadlineMS) {
		t.Fatalf("DecodeDispatch(%q) = %+v, %v; encoding/json %+v, %v", body, gotD, err, wantD, wantErr)
	}
	var c call
	if scanCall(body, fieldID|fieldDeadline, &c, false) {
		if wantErr != nil || c.id != wantD.RequestID || !sameFloat(c.deadline, wantD.DeadlineMS) {
			t.Fatalf("scanner accepted %q as %+v; encoding/json %+v, %v", body, c, wantD, wantErr)
		}
	}

	// The batch decoder twice: into a zero struct, and into recycled
	// capacity holding stale ids, as the server calls it.
	for _, recycled := range [][]int{nil, {7, 7, 7, 7}} {
		wantB := DispatchBatchRequest{RequestIDs: slices.Clone(recycled)[:0]}
		gotB := DispatchBatchRequest{RequestIDs: slices.Clone(recycled)[:0]}
		wantErr = decodeJSON(body, &wantB)
		err := DecodeDispatchBatch(body, &gotB)
		if errText(err) != errText(wantErr) {
			t.Fatalf("DecodeDispatchBatch(%q) error %v; encoding/json %v", body, err, wantErr)
		}
		if err == nil && (!sameFloat(gotB.DeadlineMS, wantB.DeadlineMS) || !reflect.DeepEqual(gotB.RequestIDs, wantB.RequestIDs)) {
			t.Fatalf("DecodeDispatchBatch(%q) = %#v; encoding/json %#v", body, gotB, wantB)
		}
		c = call{}
		if scanCall(body, fieldIDs|fieldDeadline, &c, true) {
			if wantErr != nil || !sameFloat(c.deadline, wantB.DeadlineMS) || !slices.Equal(c.ids, wantB.RequestIDs) {
				t.Fatalf("scanner accepted batch %q as %+v; encoding/json %+v, %v", body, c, wantB, wantErr)
			}
		}
	}
}

var decodeSeeds = []string{
	`{"request_id":7}`,
	`{"request_id":7,"deadline_ms":40}`,
	`{"deadline_ms":0.5,"request_id":12}`,
	`{"request_ids":[1,2,3,99],"deadline_ms":40}`,
	`{"request_ids": []}`,
	`{"request_ids": [1], "deadline_ms": -3}`,
	`{}`,
	`no`,
	``,
	" \t\r\n{ \"request_id\" : 3 , \"deadline_ms\" : 2.5e1 } \n",
	`{"request_id":1e3}`,
	`{"request_id":1.0}`,
	`{"request_id":-0,"deadline_ms":-0}`,
	`{"request_id":01}`,
	`{"request_id":-}`,
	`{"request_id":999999999999999999}`,
	`{"request_id":9223372036854775808}`,
	`{"deadline_ms":1e999}`,
	`{"deadline_ms":1.}`,
	`{"deadline_ms":.5}`,
	`{"deadline_ms":1E+2}`,
	`{"deadline_ms":0.000000000000000000000000000000000001}`,
	`{"request_id":1,"request_id":2}`,
	`{"Request_ID":5}`,
	`{"request_\u0069d":5}`,
	`{"request_id":null}`,
	`{"request_id":"7"}`,
	`{"request_id":7,"extra":{"a":[1,{"b":2}]}}`,
	`{"request_id":7} trailing`,
	`{"request_id":7}{"request_id":8}`,
	`{"request_id":7,}`,
	`{"request_id":7`,
	`{"request_ids":[1,2,],"deadline_ms":1}`,
	`{"request_ids":[1 2]}`,
	`{"request_ids":null}`,
	`{"request_ids":[1.5]}`,
	`[1,2]`,
	`{"request_id":7}` + strings.Repeat(" ", 1<<12),
	`{"request_ids":[` + strings.Repeat("1,", 5000) + `1]}`,
}

// TestDecodeMatchesEncodingJSON runs the seed bodies through checkDecode
// and pins which of them the scanner takes itself — a scanner that
// rejected everything would pass the parity check and save nothing.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, s := range decodeSeeds {
		checkDecode(t, []byte(s))
	}
	var c call
	for _, s := range []string{
		`{"request_id":7}`, `{"request_id":7,"deadline_ms":40}`, `{"deadline_ms":0.5,"request_id":12}`,
		" {\n\t\"request_id\" : 3 , \"deadline_ms\" : 2.5e1 } \r\n", `{"request_id":-0,"deadline_ms":-0}`, `{}`,
	} {
		if !scanCall([]byte(s), fieldID|fieldDeadline, &c, false) {
			t.Errorf("scanner left %q to encoding/json", s)
		}
	}
	for _, s := range []string{`{"request_ids":[1,2,3,99],"deadline_ms":40}`, `{"request_ids": [ ]}`, `{"deadline_ms":1,"request_ids":[5]}`} {
		if !scanCall([]byte(s), fieldIDs|fieldDeadline, &c, true) {
			t.Errorf("scanner left batch %q to encoding/json", s)
		}
	}
	if scanCall([]byte(`{"request_id":7,"deadline_ms":40}`), fieldID, &c, false) {
		t.Error("the /compute scanner took a field ComputeRequest does not have")
	}
}

// FuzzDispatchWire: whatever the bytes, the decoders answer as
// encoding/json does, and a body the scanner accepts carries the values
// encoding/json reads from it.
func FuzzDispatchWire(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}

// renderPrefix is what the renderers append after; they must leave it.
const renderPrefix = "kept"

// compareRender holds one rendering to json.Marshal(v) + "\n" (what
// Encoder.Encode writes), errors included.
func compareRender(t *testing.T, name string, got []byte, gotErr error, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s error %v; json.Marshal %v", name, gotErr, wantErr)
	}
	if wantErr != nil {
		want = nil
	} else {
		want = append(want, '\n')
	}
	if string(got) != renderPrefix+string(want) {
		t.Fatalf("%s rendered\n%s\njson.Marshal\n%s", name, got[len(renderPrefix):], want)
	}
}

// checkRender holds the three renderers to json.Marshal on one result,
// appending after existing bytes without touching them.
func checkRender(t *testing.T, res *DispatchResult, errMsg string, failed int, nilItems bool) {
	t.Helper()
	got, err := AppendComputeResult([]byte(renderPrefix), &res.ComputeResult)
	compareRender(t, "AppendComputeResult", got, err, &res.ComputeResult)
	got, err = AppendDispatchResult([]byte(renderPrefix), res)
	compareRender(t, "AppendDispatchResult", got, err, res)

	batch := DispatchBatchResult{Failed: failed}
	if !nilItems {
		// The last two items share a tier segment: the second copies it.
		batch.Items = []DispatchBatchItem{{DispatchResult: *res}, {Error: errMsg}, {DispatchResult: *res, Error: errMsg}, {DispatchResult: *res}}
		batch.Items = batch.Items[:min(failed&7, 4)]
	}
	got, err = AppendDispatchBatchResult([]byte(renderPrefix), &batch)
	compareRender(t, "AppendDispatchBatchResult", got, err, &batch)
}

func TestRenderMatchesEncodingJSON(t *testing.T) {
	cls, zero := 7, 0
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, 9.99999e-7, 1e-7, 1.5e-9, 1e20, 1e21, 9.999999999999999e20,
		1.7976931348623157e308, 5e-324, 12.345, 0.0003, 1e-10, 123456789.125, math.NaN(), math.Inf(1), math.Inf(-1)}
	strs := []string{"", "response-time", "failover(v1->v7,θ=0.350,best)", `<script>&"\`, "a\x00b\x1f\x7f", "\b\f\n\r\t",
		"bad\xffutf8\xc3", "line\u2028sep\u2029end", "日本語", strings.Repeat("x<", 100)}
	for i, f := range floats {
		for j, s := range strs {
			res := DispatchResult{
				ComputeResult: ComputeResult{Confidence: f, Tier: floats[(i+1)%len(floats)%18], Objective: s, Policy: strs[(j+1)%len(strs)],
					LatencyMS: floats[(i+j)%18], CostUSD: floats[(i+2*j)%18], Escalated: i%2 == 0},
				Backend: strs[(j+2)%len(strs)], Started: i - 3, Hedged: j%2 == 0, DeadlineExceeded: j%3 == 0, Downgraded: i%3 == 0,
				IaaSUSD: floats[(i*j)%18],
			}
			switch (i + j) % 4 {
			case 0:
				res.Class = &cls
			case 1:
				res.Class = &zero // a zero class is a class: only a nil pointer is omitted
			case 2:
				res.Transcript = []int{3, -1, 0, 44}
			case 3:
				res.Transcript = []int{} // empty is omitted like nil
			}
			checkRender(t, &res, s, i+j, (i+j)%7 == 0)
		}
	}

	// A batch item copies its predecessor's tier segment only when tier
	// bits, objective and policy all repeat.
	item := func(tier float64, objective, policy string) DispatchBatchItem {
		return DispatchBatchItem{DispatchResult: DispatchResult{
			ComputeResult: ComputeResult{Confidence: 0.93, Tier: tier, Objective: objective, Policy: policy, LatencyMS: 12.5, CostUSD: 0.001},
			Backend:       "replay:v4", IaaSUSD: 2e-7,
		}}
	}
	a := item(0.05, "response-time", "concurrent(1->6,θ=0.450)")
	failed := DispatchBatchItem{Error: "dispatch: backend replay:v0: injected fault"}
	for name, items := range map[string][]DispatchBatchItem{
		"tier changes":      {a, a, item(0.1, a.Objective, a.Policy), a},
		"objective changes": {a, a, item(a.Tier, "cost", a.Policy), a},
		"policy changes":    {a, a, item(a.Tier, a.Objective, "failover(v0->v4,θ=0.500)"), a},
		"error between":     {a, failed, a, a},
		"errors only":       {failed, failed},
		"zero tier":         {item(0, "", ""), failed, item(0, "", ""), item(0, "", "p")},
		"signed zero":       {item(0, "o", "p"), item(math.Copysign(0, -1), "o", "p"), item(0, "o", "p")},
		"escaped segment":   {item(1e-7, "<o>", "p\xff"), item(1e-7, "<o>", "p\xff")},
	} {
		batch := DispatchBatchResult{Items: items}
		got, err := AppendDispatchBatchResult([]byte(renderPrefix), &batch)
		compareRender(t, name, got, err, &batch)
	}
}

// FuzzResultRender: the renderers write what json.Marshal writes, for
// any floats (bit patterns, so NaN, infinities, subnormals and the
// 1e-6 / 1e21 format boundaries are all reachable) and any strings.
func FuzzResultRender(f *testing.F) {
	f.Add(math.Float64bits(0.93), math.Float64bits(1e-7), math.Float64bits(1e21), "response-time", "failover(v0->v4,θ=0.500)", "replay:v4", 7, uint8(0), int8(0))
	f.Add(math.Float64bits(1e-6), math.Float64bits(-0.0), math.Float64bits(12.5), "<>&", "bad\xffutf8", "a b", 0, uint8(0xff), int8(1))
	f.Add(math.Float64bits(math.NaN()), uint64(1), math.Float64bits(math.Inf(-1)), "", "\x00\x1f\"\\", " ", -1, uint8(0x55), int8(2))
	f.Add(math.Float64bits(9.999999999999999e20), math.Float64bits(9.99999e-7), uint64(0x7fefffffffffffff), "o", "p", "b", 1<<40, uint8(3), int8(3))
	f.Add(uint64(0), uint64(1), uint64(2), "o", "p", "b", 123456789, uint8(0), int8(6<<2)) // cost 123.456789
	f.Fuzz(func(t *testing.T, a, b, c uint64, objective, policy, backend string, n int, flags uint8, payload int8) {
		fa, fb, fc := math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)
		// Random bits almost never land on AppendFloat's short-decimal
		// path, so the cost is a decimal n/10^k built from two ints.
		res := DispatchResult{
			ComputeResult: ComputeResult{Confidence: fa, Tier: fb, Objective: objective, Policy: policy,
				LatencyMS: fc, CostUSD: float64(n) / math.Pow10(int(uint8(payload)>>2)%10), Escalated: flags&1 != 0},
			Backend: backend, Started: n, Hedged: flags&2 != 0, DeadlineExceeded: flags&4 != 0, Downgraded: flags&8 != 0,
			IaaSUSD: fb + fc,
		}
		switch payload & 3 {
		case 0:
			res.Class = &n
		case 1:
			res.Transcript = []int{n, -n, 0}
		case 2:
			res.Transcript = []int{}
		}
		checkRender(t, &res, policy, int(flags>>4), flags&16 != 0 && flags&32 != 0)
	})
}

// TestAppendFloatMatchesStrconv holds AppendFloat to encoding/json's
// number rule on decimals n/10^k (the short path's domain), on their
// neighbours either side (which must fall back to strconv), on the
// path's guard edges, and on random bit patterns.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	var fs []float64
	add := func(f float64) {
		fs = append(fs, f, -f, math.Nextafter(f, math.Inf(1)), math.Nextafter(f, math.Inf(-1)))
	}
	rng := rand.New(rand.NewPCG(30, 1))
	for k := 0; k <= 9; k++ {
		p := math.Pow10(k)
		for n := uint64(0); n < 2000; n++ {
			add(float64(n) / p)
		}
		for _, n := range []uint64{1<<53 - 1, 1 << 53, 1 << 51, 1<<51 - 1, 1<<51 + 1, 123456789, 2251799813685248, 99999999} {
			add(float64(n) / p)
		}
		for range 5000 {
			add(float64(rng.Uint64N(1<<53+1)) / p)
			add(float64(rng.Uint64N(1<<(rng.UintN(53)+1))) / p)
		}
	}
	for _, f := range []float64{0, 1e-6, shortMax, 1e-8, 5e-9, 0.1 + 0.2, 1.0 / 3, 22517998.13685248, 22517998.136852484} {
		add(f)
	}
	fs = append(fs, math.Copysign(0, -1), math.Nextafter(1e-6, 0), math.Nextafter(shortMax, 0))
	for range 50000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			fs = append(fs, f)
		}
	}
	for _, f := range fs {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Fatalf("AppendFloat(%v) = %s; encoding/json %s (bits %#x)", f, got, want, math.Float64bits(f))
		}
	}
}

// TestWireCodecAllocs pins the codec itself at zero: a scanned decode
// into recycled capacity and a render into a buffer that is large enough
// allocate nothing.
func TestWireCodecAllocs(t *testing.T) {
	single := []byte(`{"request_id": 1234, "deadline_ms": 40.5}`)
	batch := []byte(`{"request_ids": [1, 2, 3, 4, 5, 6, 7, 8], "deadline_ms": 40}`)
	ids := make([]int, 0, 8)
	cls := 3
	res := DispatchResult{ComputeResult: ComputeResult{Class: &cls, Confidence: 0.93, Tier: 0.05, Objective: "response-time",
		Policy: "failover(v0->v4,θ=0.500)", LatencyMS: 12.5, CostUSD: 0.001}, Backend: "replay:v4", Started: 1, IaaSUSD: 2e-7}
	batchRes := DispatchBatchResult{Items: []DispatchBatchItem{{DispatchResult: res}, {DispatchResult: res}, {Error: "failed"}}, Failed: 1}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(200, func() {
		var d DispatchRequest
		var b DispatchBatchRequest
		b.RequestIDs = ids[:0]
		if DecodeDispatch(single, &d) != nil || DecodeDispatchBatch(batch, &b) != nil || len(b.RequestIDs) != 8 || d.RequestID != 1234 {
			t.Fatal("decode failed")
		}
		if _, err := AppendDispatchResult(buf, &res); err != nil {
			t.Fatal(err)
		}
		if _, err := AppendDispatchBatchResult(buf, &batchRes); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("codec allocates %v objects per call", n)
	}
}
