package coalesce

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/ensemble"
)

// FuzzCoalesceWindow drives the window state machine with an
// adversarial schedule decoded from raw bytes: each byte spawns one
// concurrent Do whose tier, cancellation, and arrival order the fuzzer
// controls, while the first byte picks the batch cap and a shedding
// cadence for the gate. The crowd byte sets the caller count relative
// to that cap — how many callers may be inside Do at once, from one to
// twice MaxBatch — and its top bit fakes a crowd that is present for the
// first half of the arrivals and gone for the rest, so the corpus holds
// the pass-through regime, the parked regime and the transition. The
// invariants are the ones that make the coalescer safe to put in front
// of a server: no panic, every caller returns exactly once (no stranded
// waiter, no double delivery), no window object leaks after quiescence,
// the stats ledger balances, and below the crowd no window ever opens.
func FuzzCoalesceWindow(f *testing.F) {
	m := visionMatrix(f)
	reqs := dispatch.ReplayRequests(m)

	f.Add([]byte{0x00}, uint8(0))
	f.Add([]byte{0x17, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07}, uint8(0x0f))                         // MaxBatch 8, all 8 callers at once
	f.Add([]byte{0x51, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f}, uint8(0x00))                   // MaxBatch 2, one at a time
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(0x86)) // MaxBatch 8, 7 wide, crowd faked then gone
	f.Add([]byte{0x31, 0x00, 0x08, 0x00, 0x08, 0x00, 0x08, 0x00, 0x08}, uint8(0x03))                   // MaxBatch 2, 4 wide
	f.Add([]byte{0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, uint8(0x82))       // MaxBatch 4, 3 wide: windows only while the phantoms stay
	f.Add([]byte{0x02, 0x00, 0x03, 0x00, 0x03, 0x00, 0x03, 0x00, 0x03, 0x00, 0x03}, uint8(0x02))       // MaxBatch 3, 3 wide: exactly at the threshold

	f.Fuzz(func(t *testing.T, data []byte, crowd uint8) {
		if len(data) == 0 || len(data) > 64 {
			t.Skip()
		}
		maxBatch := 1 + int(data[0]&7)
		shedEvery := int64(data[0] >> 4)
		width := 1 + int(crowd&0x7f)%(2*maxBatch)
		phantoms := crowd&0x80 != 0

		d := dispatch.New(dispatch.NewReplayBackends(m), dispatch.Options{DisableHedging: true})
		errShed := errors.New("fuzz shed")
		var flushSeq atomic.Int64
		var gate Gate
		if shedEvery > 0 {
			gate = func(n int, tk dispatch.Ticket) (Grant, error) {
				if flushSeq.Add(1)%(shedEvery+1) == 0 {
					return Grant{}, errShed
				}
				return Grant{Ticket: tk}, nil
			}
		}
		c := New(d, Options{MaxBatch: maxBatch, Window: minWindow, Gate: gate})

		tiers := [3]dispatch.Ticket{
			{Tier: "fz/a", Policy: ensemble.Policy{Kind: ensemble.Single, Primary: 0}},
			{Tier: "fz/b", Policy: ensemble.Policy{Kind: ensemble.Single, Primary: 0}},
			{Tier: "fz/c", Policy: ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: m.NumVersions() - 1, Threshold: 0.5}},
		}

		leave := func() {}
		if phantoms {
			leave = fakeCrowd(c)
		}
		inside := make(chan struct{}, width) // semaphore: callers allowed inside Do at once

		var ok, shed, ctxErr, returned atomic.Int64
		var wg sync.WaitGroup
		for i, b := range data {
			if i == len(data)/2 {
				leave()
			}
			wg.Add(1)
			go func(i int, b byte) {
				defer wg.Done()
				inside <- struct{}{}
				defer func() { <-inside }()
				ctx := context.Background()
				if b&0x08 != 0 {
					cctx, cancel := context.WithCancel(ctx)
					defer cancel()
					ctx = cctx
					go cancel()
				}
				_, _, err := c.Do(ctx, reqs[i%len(reqs)], tiers[int(b)%len(tiers)])
				returned.Add(1)
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, errShed):
					shed.Add(1)
				case errors.Is(err, context.Canceled):
					ctxErr.Add(1)
				default:
					t.Errorf("byte %d: unexpected error %v", i, err)
				}
			}(i, b)
		}
		wg.Wait()

		if got := returned.Load(); got != int64(len(data)) {
			t.Fatalf("%d callers returned, %d spawned — waiter stranded or double-counted", got, len(data))
		}
		c.mu.Lock()
		live := len(c.windows)
		c.mu.Unlock()
		if live != 0 {
			t.Fatalf("%d windows still open after all callers returned", live)
		}
		// A delivered caller (bypassed or flushed) can still end in
		// context.Canceled when its context dies during the dispatch, and
		// one cancelled before Do counts it appears in no counter, so the
		// ledger brackets the ground truth rather than equalling it:
		// ok + shed <= delivered, and delivered + left <= callers.
		st := c.Stats()
		delivered := st.Bypassed + st.Coalesced
		if delivered < ok.Load()+shed.Load() || delivered+st.Left > int64(len(data)) {
			t.Fatalf("stats %+v: delivered %d + left %d of %d callers, ground truth ok %d + shed %d",
				st, delivered, st.Left, len(data), ok.Load(), shed.Load())
		}
		if st.Shed != shed.Load() {
			t.Fatalf("stats Shed %d, ground truth %d", st.Shed, shed.Load())
		}
		if st.Left > ctxErr.Load() {
			t.Fatalf("stats Left %d exceeds %d context cancellations", st.Left, ctxErr.Load())
		}
		if !phantoms && width < maxBatch && st.Windows+st.Coalesced+st.Left != 0 {
			t.Fatalf("stats %+v: a window opened with at most %d callers inside against MaxBatch %d", st, width, maxBatch)
		}
	})
}
