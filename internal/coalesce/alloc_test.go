package coalesce

import (
	"context"
	"testing"

	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/trace"
)

// Allocation pins for the two coalescer paths. Both allocate nothing in
// steady state — the window, waiter and flush scratch are pooled, and a
// window builds its traced flush context once — so each pin is "< 1
// per call on average": any per-call allocation fails it, while a GC
// emptying a sync.Pool mid-run is absorbed.

func TestCoalescedBypassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	m := visionMatrix(t)
	d := dispatch.New(dispatch.NewReplayBackends(m), dispatch.Options{DisableHedging: true})
	c := New(d, Options{})
	reqs := dispatch.ReplayRequests(m)
	tk := singleTicket("alloc/bypass")
	ctx := context.Background()

	for i := 0; i < 64; i++ {
		if _, _, err := c.Do(ctx, reqs[i%len(reqs)], tk); err != nil {
			t.Fatal(err)
		}
	}
	var i int
	avg := testing.AllocsPerRun(300, func() {
		if _, _, err := c.Do(ctx, reqs[i%len(reqs)], tk); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg >= 1 {
		t.Fatalf("bypass path allocates %.2f per Do, want < 1 — the coalescer is taxing solo callers", avg)
	}
	if st := c.Stats(); st.Coalesced != 0 || st.Windows != 0 {
		t.Fatalf("stats %+v: sequential callers opened windows", st)
	}
}

func TestCoalescedEnqueueAllocs(t *testing.T) {
	enqueueAllocs(t, nil)
}

// TestCoalescedEnqueueAllocsTraced is the recorder-on twin: a traced
// flush hands DoBatch the window's batch attribution through a context
// the pooled window keeps.
func TestCoalescedEnqueueAllocsTraced(t *testing.T) {
	enqueueAllocs(t, trace.New(trace.Options{}))
}

func enqueueAllocs(t *testing.T, rec *trace.Recorder) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	m := visionMatrix(t)
	d := dispatch.New(dispatch.NewReplayBackends(m), dispatch.Options{DisableHedging: true, Recorder: rec})
	c := New(d, Options{MaxBatch: 1})
	// MaxBatch=1 makes every caller its own crowd, so every Do takes the
	// window path and size-triggers an inline flush, exercising the full
	// open → park → flush → fan-out cycle deterministically per call.
	reqs := dispatch.ReplayRequests(m)
	tk := dispatch.Ticket{Tier: "alloc/window", Policy: ensemble.Policy{Kind: ensemble.Single, Primary: 0}}
	ctx := context.Background()

	for i := 0; i < 64; i++ {
		if _, _, err := c.Do(ctx, reqs[i%len(reqs)], tk); err != nil {
			t.Fatal(err)
		}
	}
	var i int
	avg := testing.AllocsPerRun(300, func() {
		if _, _, err := c.Do(ctx, reqs[i%len(reqs)], tk); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg >= 1 {
		t.Fatalf("enqueue path (recorder %v) allocates %.2f per Do, want < 1", rec != nil, avg)
	}
	if st := c.Stats(); st.Bypassed != 0 || st.SizeFlushes != st.Windows {
		t.Fatalf("stats %+v: expected every window to size-flush", st)
	}
}
