package coalesce

import (
	"context"
	"testing"

	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/ensemble"
)

// Allocation budgets for the two coalescer paths. The bypass path must
// match the dispatcher's own steady-state budget exactly — a solo
// caller pays nothing for the coalescer being present. The enqueue
// path (open window, park waiter, flush through DoBatch, fan out) is
// allowed a small documented constant: the window and waiter structs
// are pooled, so the remaining allocations are the per-flush batch
// slices inside DoBatch.
const (
	bypassAllocBudget  = 2 // identical to the dispatcher's replay Do budget
	enqueueAllocBudget = 8
)

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
	if avg > bypassAllocBudget {
		t.Fatalf("bypass path allocates %.1f per Do, budget %d — the coalescer is taxing solo callers", avg, bypassAllocBudget)
	}
	if st := c.Stats(); st.Coalesced != 0 || st.Windows != 0 {
		t.Fatalf("stats %+v: sequential callers opened windows", st)
	}
}

func TestCoalescedEnqueueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	m := visionMatrix(t)
	d := dispatch.New(dispatch.NewReplayBackends(m), dispatch.Options{DisableHedging: true})
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
	if avg > enqueueAllocBudget {
		t.Fatalf("enqueue path allocates %.1f per Do, budget %d", avg, enqueueAllocBudget)
	}
	if st := c.Stats(); st.Bypassed != 0 || st.SizeFlushes != st.Windows {
		t.Fatalf("stats %+v: expected every window to size-flush", st)
	}
}
