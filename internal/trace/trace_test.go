package trace

import (
	"context"
	"math"
	"sync"
	"testing"
)

// TestSamplerDeterminism pins the head sampler's stride: with
// SampleEvery=4, observations 1, 5, 9, ... are kept and everything else
// between them is dropped — no randomness, so two identical runs record
// identical spans.
func TestSamplerDeterminism(t *testing.T) {
	r := New(Options{Size: 64, SampleEvery: 4})
	ctx := context.Background()
	var s Span
	var c Cache
	for i := 0; i < 16; i++ {
		s.Reset("tier", "", AdmitNone)
		s.LatencyNs = 1000
		r.Observe(ctx, &s, &c)
	}
	st := r.Stats()
	if st.Dispatches != 16 {
		t.Fatalf("Dispatches = %d, want 16", st.Dispatches)
	}
	if st.Committed != 4 {
		t.Fatalf("Committed = %d, want 4 (1 in 4 of 16)", st.Committed)
	}
	if st.Kinds["sampled"] != 4 {
		t.Fatalf("Kinds[sampled] = %d, want 4", st.Kinds["sampled"])
	}
	if got := len(r.Recent(Filter{}, 64)); got != 4 {
		t.Fatalf("Recent holds %d spans, want 4", got)
	}
}

// TestTailExemplarsBypassSampler verifies every tail condition — error,
// deadline overrun, degraded escalation, fired hedge — is kept even
// with a sampling stride that would otherwise drop everything, and that
// each is classified under its own kind.
func TestTailExemplarsBypassSampler(t *testing.T) {
	r := New(Options{Size: 64, SampleEvery: 1 << 20})
	ctx := context.Background()
	var c Cache
	shape := []struct {
		name string
		mut  func(s *Span)
	}{
		{"error", func(s *Span) { s.Err = "boom" }},
		{"deadline", func(s *Span) { s.DeadlineExceeded = true }},
		{"degraded", func(s *Span) { s.Degraded = true }},
		{"hedge", func(s *Span) { s.Hedged = true }},
	}
	var s Span
	// Burn the stride's first observation (n=1 is always kept) on a
	// plain span so the exemplars below owe nothing to the sampler.
	s.Reset("tier", "", AdmitNone)
	r.Observe(ctx, &s, &c)
	for _, sh := range shape {
		s.Reset("tier", "", AdmitAccepted)
		sh.mut(&s)
		r.Observe(ctx, &s, &c)
	}
	st := r.Stats()
	for _, sh := range shape {
		if st.Kinds[sh.name] != 1 {
			t.Errorf("Kinds[%s] = %d, want 1", sh.name, st.Kinds[sh.name])
		}
	}
	if st.Committed != 5 {
		t.Fatalf("Committed = %d, want 5 (4 exemplars + first sample)", st.Committed)
	}
	for _, sh := range shape {
		k, ok := KindByName(sh.name)
		if !ok {
			t.Fatalf("KindByName(%q) missing", sh.name)
		}
		if got := r.Recent(Filter{Kind: k, HasKind: true}, 8); len(got) != 1 {
			t.Errorf("Recent(kind=%s) = %d spans, want 1", sh.name, len(got))
		}
	}
}

// TestSlowExemplar arms a tier's tail threshold with a full window of
// uniform latencies, then checks a large outlier is captured as "slow"
// despite a sampler stride that drops it.
func TestSlowExemplar(t *testing.T) {
	r := New(Options{Size: 1024, SampleEvery: 2})
	ctx := context.Background()
	var s Span
	var c Cache
	// Only stride-sampled dispatches feed the tail window, so arming
	// takes stride x (tailWindow + tailRefresh) uniform observations.
	for i := 0; i < 2*(tailWindow+tailRefresh); i++ {
		s.Reset("tier", "", AdmitNone)
		s.LatencyNs = 1_000_000
		r.Observe(ctx, &s, &c)
	}
	if math.IsNaN(c.t.Quantile()) {
		t.Fatal("tail threshold never armed")
	}
	// Stride keeps land on odd dispatch counts (sample = 2). One filler
	// parks the counter on odd, so the outlier arrives on an even count
	// — a tick the head sampler drops — and its capture proves slow
	// exemplars bypass the sampler.
	s.Reset("tier", "", AdmitNone)
	s.LatencyNs = 1_000_000
	r.Observe(ctx, &s, &c)
	s.Reset("tier", "", AdmitNone)
	s.LatencyNs = 50_000_000
	r.Observe(ctx, &s, &c)
	st := r.Stats()
	if st.Kinds["slow"] != 1 {
		t.Fatalf("Kinds[slow] = %d, want 1", st.Kinds["slow"])
	}
	got := r.Recent(Filter{Kind: KindSlow, HasKind: true}, 8)
	if len(got) != 1 || got[0].LatencyNs != 50_000_000 {
		t.Fatalf("slow exemplar = %+v, want the 50ms outlier", got)
	}
}

// TestRecordShed verifies sheds commit unconditionally with the
// admission cause attached and are retrievable by id.
func TestRecordShed(t *testing.T) {
	r := New(Options{Size: 64, SampleEvery: 1 << 20})
	id := NextID()
	r.RecordShed(id, "cost/0.1", "tenant-1", AdmitShedRate)
	r.RecordShed(0, "cost/0.1", "", AdmitShedCapacity) // minted id
	st := r.Stats()
	if st.Sheds != 2 || st.Kinds["shed"] != 2 {
		t.Fatalf("Sheds = %d, Kinds[shed] = %d, want 2/2", st.Sheds, st.Kinds["shed"])
	}
	sp, ok := r.Get(id)
	if !ok {
		t.Fatal("shed span not retrievable by id")
	}
	if sp.Kind != KindShed || sp.Admit != AdmitShedRate || sp.Tenant != "tenant-1" || sp.NLegs != 0 {
		t.Fatalf("shed span = %+v", sp)
	}
}

// TestRingWrapEviction fills a small ring past capacity and checks old
// spans evict while the newest survive.
func TestRingWrapEviction(t *testing.T) {
	r := New(Options{Size: 16, SampleEvery: 1})
	ctx := context.Background()
	var s Span
	var c Cache
	ids := make([]uint64, 40)
	for i := range ids {
		ids[i] = NextID()
		s.Reset("tier", "", AdmitNone)
		s.ID = ids[i]
		r.Observe(ctx, &s, &c)
	}
	if _, ok := r.Get(ids[0]); ok {
		t.Fatal("oldest span survived a ring wrap")
	}
	for _, id := range ids[len(ids)-16:] {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("span %s evicted while within ring capacity", FormatID(id))
		}
	}
	if got := len(r.Recent(Filter{}, 64)); got != 16 {
		t.Fatalf("Recent holds %d spans, want ring size 16", got)
	}
}

// TestRecentFilters exercises tier/tenant filtering and newest-first
// ordering.
func TestRecentFilters(t *testing.T) {
	r := New(Options{Size: 64, SampleEvery: 1})
	ctx := context.Background()
	var s Span
	var c Cache
	for i := 0; i < 4; i++ {
		tier, tenant := "a", "t1"
		if i%2 == 1 {
			tier, tenant = "b", "t2"
		}
		s.Reset(tier, tenant, AdmitAccepted)
		s.LatencyNs = int64(i+1) * 1000
		r.Observe(ctx, &s, &c)
	}
	if got := r.Recent(Filter{Tier: "a"}, 64); len(got) != 2 {
		t.Fatalf("Recent(tier=a) = %d spans, want 2", len(got))
	}
	if got := r.Recent(Filter{Tenant: "t2"}, 64); len(got) != 2 {
		t.Fatalf("Recent(tenant=t2) = %d spans, want 2", len(got))
	}
	if got := r.Recent(Filter{Tier: "a", Tenant: "t2"}, 64); len(got) != 0 {
		t.Fatalf("Recent(tier=a, tenant=t2) = %d spans, want 0", len(got))
	}
	all := r.Recent(Filter{}, 64)
	for i := 1; i < len(all); i++ {
		if all[i-1].Time < all[i].Time {
			t.Fatal("Recent not newest-first")
		}
	}
	if got := r.Recent(Filter{}, 2); len(got) != 2 {
		t.Fatalf("Recent(max=2) = %d spans, want 2", len(got))
	}
}

// TestIDRoundTrip pins the 16-hex wire form.
func TestIDRoundTrip(t *testing.T) {
	for i := 0; i < 64; i++ {
		id := NextID()
		if id == 0 {
			t.Fatal("NextID minted the reserved zero id")
		}
		s := FormatID(id)
		if len(s) != 16 {
			t.Fatalf("FormatID(%d) = %q, want 16 hex digits", id, s)
		}
		back, ok := ParseID(s)
		if !ok || back != id {
			t.Fatalf("ParseID(FormatID(%d)) = %d, %v", id, back, ok)
		}
	}
	if FormatID(0xdeadbeef) != "00000000deadbeef" {
		t.Fatalf("FormatID(0xdeadbeef) = %q", FormatID(0xdeadbeef))
	}
	for _, bad := range []string{"", "zz", "0", "00000000000000000", "not-a-trace-id"} {
		if _, ok := ParseID(bad); ok {
			t.Errorf("ParseID(%q) accepted garbage", bad)
		}
	}
}

// TestNilRecorder pins the nil-receiver contract: every method is a
// safe no-op so call sites carry one branch, not a nil panic.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	var s Span
	var c Cache
	r.Observe(context.Background(), &s, &c)
	r.RecordShed(1, "t", "", AdmitShedRate)
	if got := r.Recent(Filter{}, 8); got != nil {
		t.Fatalf("nil Recent = %v", got)
	}
	if _, ok := r.Get(1); ok {
		t.Fatal("nil Get returned a span")
	}
	if st := r.Stats(); st.Dispatches != 0 || st.Committed != 0 {
		t.Fatalf("nil Stats = %+v", st)
	}
}

// TestContextPlumbing round-trips the id and batch attribution.
func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if IDFromContext(ctx) != 0 {
		t.Fatal("background context carries a trace id")
	}
	if BatchFromContext(ctx) != nil {
		t.Fatal("background context carries batch meta")
	}
	id := NextID()
	ctx2 := ContextWithID(ctx, id)
	if IDFromContext(ctx2) != id {
		t.Fatal("id did not round-trip")
	}
	bm := &BatchMeta{Window: 7, Park: []int64{1, 2}, IDs: []uint64{id}}
	ctx3 := ContextWithBatch(ctx2, bm)
	if BatchFromContext(ctx3) != bm {
		t.Fatal("batch meta did not round-trip")
	}
	if IDFromContext(ctx3) != id {
		t.Fatal("batch wrap dropped the id")
	}
}

// TestConcurrentReconciliation hammers the recorder from concurrent
// writers (spans and sheds) while readers scan, then reconciles the
// counters — run under -race this is the tearing proof for the ring.
// Every written span follows one of two self-consistent templates; a
// read span matching neither is a torn record.
func TestConcurrentReconciliation(t *testing.T) {
	r := New(Options{Size: 64, SampleEvery: 2})
	const writers = 8
	const perWriter = 500
	const shedsPer = 50
	templates := [2]Span{
		{Tier: "tier-a", Tenant: "ten-a", LatencyNs: 1111, Hedged: true},
		{Tier: "tier-b", Tenant: "ten-b", LatencyNs: 2222, DeadlineExceeded: true},
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sp := range r.Recent(Filter{}, 64) {
					if sp.Kind == KindShed {
						if sp.Tier != "shed-tier" || sp.Admit != AdmitShedCapacity {
							t.Errorf("torn shed span: %+v", sp)
							return
						}
						continue
					}
					tmpl := templates[0]
					if sp.Tier == "tier-b" {
						tmpl = templates[1]
					}
					if sp.Tenant != tmpl.Tenant || sp.LatencyNs != tmpl.LatencyNs ||
						sp.Hedged != tmpl.Hedged || sp.DeadlineExceeded != tmpl.DeadlineExceeded {
						t.Errorf("torn span: %+v", sp)
						return
					}
				}
				r.Get(1) // exercise the by-id scan against writers too
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			ctx := context.Background()
			var s Span
			var c Cache
			for i := 0; i < perWriter; i++ {
				tmpl := templates[(w+i)%2]
				s.Reset(tmpl.Tier, tmpl.Tenant, AdmitAccepted)
				s.LatencyNs = tmpl.LatencyNs
				s.Hedged = tmpl.Hedged
				s.DeadlineExceeded = tmpl.DeadlineExceeded
				r.Observe(ctx, &s, &c)
			}
			for i := 0; i < shedsPer; i++ {
				r.RecordShed(0, "shed-tier", "", AdmitShedCapacity)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	st := r.Stats()
	if st.Dispatches != writers*perWriter {
		t.Fatalf("Dispatches = %d, want %d", st.Dispatches, writers*perWriter)
	}
	if st.Sheds != writers*shedsPer {
		t.Fatalf("Sheds = %d, want %d", st.Sheds, writers*shedsPer)
	}
	var sum int64
	for _, v := range st.Kinds {
		sum += v
	}
	if sum != st.Committed {
		t.Fatalf("Committed = %d but kind counters sum to %d", st.Committed, sum)
	}
	// Half the spans are hedged (tail exemplars), half deadline-overrun
	// (also tail): everything commits, plus every shed.
	want := int64(writers*perWriter + writers*shedsPer)
	if st.Committed != want {
		t.Fatalf("Committed = %d, want %d (all spans are tail exemplars)", st.Committed, want)
	}
}

// TestSpanLegOverflow pins the guarded leg claim: MaxLegs claims
// succeed, the next returns nil instead of corrupting the record.
func TestSpanLegOverflow(t *testing.T) {
	var s Span
	s.Reset("t", "", AdmitNone)
	for i := 0; i < MaxLegs; i++ {
		if s.Leg() == nil {
			t.Fatalf("leg claim %d failed below MaxLegs", i)
		}
	}
	if s.Leg() != nil {
		t.Fatal("leg claim past MaxLegs succeeded")
	}
	if s.NLegs != MaxLegs {
		t.Fatalf("NLegs = %d, want %d", s.NLegs, MaxLegs)
	}
}

// TestObserveAllocs pins the recording contract at the source: a
// recorder-on Observe with a warmed tier cache allocates nothing, and a
// nil recorder's Observe allocates nothing.
func TestObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc budget measured without -race")
	}
	r := New(Options{Size: 256, SampleEvery: 16})
	ctx := context.Background()
	var s Span
	var c Cache
	for i := 0; i < 64; i++ {
		s.Reset("tier", "tenant", AdmitAccepted)
		s.LatencyNs = 1000
		r.Observe(ctx, &s, &c)
	}
	avg := testing.AllocsPerRun(300, func() {
		s.Reset("tier", "tenant", AdmitAccepted)
		s.LatencyNs = 1000
		r.Observe(ctx, &s, &c)
	})
	if avg != 0 {
		t.Fatalf("recorder-on Observe: %v allocs/op, want 0", avg)
	}
	var nilRec *Recorder
	avg = testing.AllocsPerRun(300, func() {
		s.Reset("tier", "tenant", AdmitAccepted)
		nilRec.Observe(ctx, &s, &c)
	})
	if avg != 0 {
		t.Fatalf("nil-recorder Observe: %v allocs/op, want 0", avg)
	}
}
