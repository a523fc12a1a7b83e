package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// BENCHMARK.json at the root of the repo is what the code prints, and
// stays inside the contract's limits.
func TestSpecMatchesFile(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, specJSON()) {
		t.Fatalf("BENCHMARK.json differs from `run.sh -spec`; regenerate it with: bash benchmark/run.sh -spec > BENCHMARK.json")
	}
	if len(file) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(file))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	s := spec()
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Errorf("%d workloads", len(s.Workloads))
	}
	for _, w := range s.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("unit %q of %s", m.Unit, m.Name)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s needs a bound in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range s.EndToEnd {
				if *o.Bound > *m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %g", o.Name, *o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(s.PerLayer))
	}
	for _, m := range s.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("unit %q of %s", m.Unit, m.Name)
		}
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	// 4 + 22 runs per workload, two builds, all within 3420 s.
	runs := 4 + 22*len(s.Workloads)
	if perRun := (3420.0 - 2*60) / float64(runs); perRun < runSeconds+12 {
		t.Errorf("%d runs leave %.0f s each, too little for %d s of measuring plus set-up", runs, perRun, runSeconds)
	}
}

// quartiles must be Python's statistics.quantiles(n=4): the driver
// judges spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spreadShare([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

// The seed changes the order of the stream and nothing else.
func TestSeedKeepsTheMultiset(t *testing.T) {
	_, reqs := newCorpus(100)
	multiset := func(seed uint64, perCall int) (keys []int, order []int32) {
		st := newStream(seed, reqs, consumerMix(), perCall, tenants, pathDispatch)
		for i := range st.calls {
			c := &st.calls[i]
			if int(c.n) != perCall {
				t.Fatalf("call with %d ids, want %d", c.n, perCall)
			}
			for _, idx := range st.idsOf(c) {
				keys = append(keys, int(c.class)*1000+int(idx))
				order = append(order, idx)
			}
		}
		sort.Ints(keys)
		return
	}
	a, orderA := multiset(1, 1)
	b, orderB := multiset(2, 1)
	if len(a) != passesPerMix*100 {
		t.Errorf("cycle of %d calls, want %d", len(a), passesPerMix*100)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("two seeds send different multisets of (class, request)")
		}
	}
	same := true
	for i := range orderA {
		same = same && orderA[i] == orderB[i]
	}
	if same {
		t.Error("two seeds send the same order")
	}
	// Batches are topped up to full size, so the count may exceed the
	// passes by less than one batch per class.
	c, _ := multiset(1, batchSize)
	if len(c) < len(a) || len(c) >= len(a)+len(consumerMix())*batchSize {
		t.Errorf("batch cycle carries %d ids, single cycle %d", len(c), len(a))
	}
}

// smallBench assembles a node over a small corpus, ready to time.
func smallBench(t *testing.T, workload string) *bench {
	t.Helper()
	b := &bench{cfg: runConfig{workload: workload, seed: 1, seconds: 0.4, corpus: 120, setups: 1}, mach: readMachine()}
	if err := b.setUps(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.tearDown)
	return b
}

// A deliberately corrupted answer fails the run.
func TestCorruptedAnswerFailsRun(t *testing.T) {
	for _, wl := range []string{wlDirectSingle, wlDirectBatch, wlEmbedded} {
		b := smallBench(t, wl)
		for k := range b.o.svc {
			if b.o.raw != nil {
				b.o.raw[k][len(b.o.raw[k])/2] ^= 1
			} else {
				b.o.out[k].Latency++
			}
		}
		if err := b.prepare(); err != nil {
			t.Fatal(err)
		}
		p, err := b.timedClosed(200*time.Millisecond, 2, 0)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if p.led.mismatched != p.led.sent || p.led.sent == 0 {
			t.Errorf("%s: %d of %d calls flagged as mismatched, want all", wl, p.led.mismatched, p.led.sent)
		}
		if _, err := b.untraced(); err == nil || !strings.Contains(err.Error(), "calls failed") {
			t.Errorf("%s: a run against a corrupted oracle returned %v", wl, err)
		}
	}
}

// An unbalanced ledger fails the run: a request the node dispatched
// behind the generator's back shows up against the dispatchers' count.
func TestUnbalancedLedgerFailsRun(t *testing.T) {
	b := smallBench(t, wlDirectSingle)
	if err := b.prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.timedClosed(200*time.Millisecond, 2, 0); err != nil {
		t.Fatalf("honest phase: %v", err)
	}
	side, err := dialWire(b.n.front.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer side.close()
	honest, stray := b.issue, false
	b.issue = func(s *sender, c *call) verdict {
		if !stray && s.id == 0 {
			stray = true
			if _, _, _, err := side.roundTrip(c.wire); err != nil {
				t.Error(err)
			}
		}
		return honest(s, c)
	}
	if _, err := b.timedClosed(200*time.Millisecond, 2, 0); err == nil || !strings.Contains(err.Error(), "ledger") {
		t.Errorf("a stray dispatch went unnoticed: %v", err)
	}
	// And the generator's own half: a call booked without a verdict.
	l := ledger{sent: 3, ok: 2, okItems: 2}
	if err := l.balance(2); err == nil {
		t.Error("sent 3 = ok 2 balanced")
	}
}

// judge applies the driver's two rules.
func TestJudge(t *testing.T) {
	mk := func(second float64) series {
		s := series{}
		for set := 0; set < 2; set++ {
			for run := 0; run < 10; run++ {
				for _, wl := range workloads {
					for _, m := range endToEnd {
						v := 100 + 0.1*float64(run)
						if set == 1 && m.Name == "throughput_rps" && wl.Name == wlDirectBatch {
							v *= second
						}
						s.add(2, set, wl.Name, m.Name, v)
					}
				}
			}
		}
		return s
	}
	var bound float64
	for _, m := range endToEnd {
		if m.Name == "throughput_rps" {
			bound = *m.Bound
		}
	}
	if err := judge(io.Discard, mk(1-bound+0.05), 2, false); err != nil {
		t.Errorf("a drop in throughput 5 points inside the bound failed: %v", err)
	}
	if err := judge(io.Discard, mk(1-bound-0.05), 2, false); err == nil || !strings.Contains(err.Error(), "direct_batch/throughput_rps DRIFT") {
		t.Errorf("a drop in throughput 5 points beyond the bound passed: %v", err)
	}
	noisy := mk(1)
	noisy[wlFleetSingle+"/latency_p50_ms"][1] = []float64{60, 70, 80, 90, 100, 110, 120, 130, 140, 150}
	if err := judge(io.Discard, noisy, 2, false); err == nil || !strings.Contains(err.Error(), "SPREAD") {
		t.Errorf("a 50%% spread passed: %v", err)
	}
}

// The smoke run: every workload, both passes, every metric of the spec
// reported, every end-to-end metric non-zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run skipped in -short")
	}
	var out bytes.Buffer
	if err := runSmoke(&out, 7, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), `{"correct": true`); n != 2*len(workloads) {
		t.Errorf("%d result lines, want %d", n, 2*len(workloads))
	}
}
