package coalesce

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/vision"
)

var testMatrixOnce sync.Once
var testMatrix *profile.Matrix

func visionMatrix(t testing.TB) *profile.Matrix {
	t.Helper()
	testMatrixOnce.Do(func() {
		c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 300, Device: vision.GPU})
		testMatrix = profile.Build(c.Service, c.Requests)
	})
	return testMatrix
}

// newRuntime builds a replay dispatcher and a coalescer in front of it.
func newRuntime(t testing.TB, opts Options) (*Coalescer, *dispatch.Dispatcher, []*service.Request) {
	t.Helper()
	m := visionMatrix(t)
	d := dispatch.New(dispatch.NewReplayBackends(m), dispatch.Options{DisableHedging: true})
	return New(d, opts), d, dispatch.ReplayRequests(m)
}

func singleTicket(tier string) dispatch.Ticket {
	return dispatch.Ticket{Tier: tier, Policy: ensemble.Policy{Kind: ensemble.Single, Primary: 0}}
}

// fakeCrowd puts MaxBatch phantom callers on the pending gauge (white
// box), so every real arrival sees a crowd and queues instead of taking
// the bypass; the returned func sends the phantoms home.
func fakeCrowd(c *Coalescer) (leave func()) {
	n := int64(c.opts.MaxBatch)
	c.pending.Add(n)
	return func() { c.pending.Add(-n) }
}

// awaitQueued blocks until the open window of tk holds n waiters and
// returns it. Its callers disarm the time trigger, so the window stays
// as found until the test itself acts on it.
func awaitQueued(c *Coalescer, tk dispatch.Ticket, n int) *window {
	for {
		c.mu.Lock()
		win := c.windows[tk]
		queued := win != nil && len(win.waiters) == n
		c.mu.Unlock()
		if queued {
			return win
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// sameOutcome is bitwise outcome equality (Outcome itself is not
// comparable: Result carries the ASR transcript slice).
func sameOutcome(a, b dispatch.Outcome) bool {
	if a.Err != b.Err && !(a.Err != a.Err && b.Err != b.Err) { // NaN-tolerant
		return false
	}
	if len(a.Result.Transcript) != len(b.Result.Transcript) {
		return false
	}
	for i := range a.Result.Transcript {
		if a.Result.Transcript[i] != b.Result.Transcript[i] {
			return false
		}
	}
	return a.Result.Class == b.Result.Class &&
		a.Result.Confidence == b.Result.Confidence &&
		a.Result.Latency == b.Result.Latency &&
		a.Result.WorkUnits == b.Result.WorkUnits &&
		a.Latency == b.Latency &&
		a.InvCost == b.InvCost &&
		a.IaaSCost == b.IaaSCost &&
		a.Escalated == b.Escalated &&
		a.Hedged == b.Hedged &&
		a.DeadlineExceeded == b.DeadlineExceeded &&
		a.Started == b.Started &&
		a.Backend == b.Backend
}

// TestOptionClamps pins the documented defaults and clamp ranges.
func TestOptionClamps(t *testing.T) {
	c, _, _ := newRuntime(t, Options{})
	if c.MaxBatch() != defaultMaxBatch || c.Window() != defaultWindow {
		t.Fatalf("zero options: MaxBatch %d Window %v, want %d/%v",
			c.MaxBatch(), c.Window(), defaultMaxBatch, defaultWindow)
	}
	c, _, _ = newRuntime(t, Options{MaxBatch: 1 << 20, Window: time.Second})
	if c.MaxBatch() != maxMaxBatch || c.Window() != maxWindow {
		t.Fatalf("oversized options not clamped: MaxBatch %d Window %v", c.MaxBatch(), c.Window())
	}
	c, _, _ = newRuntime(t, Options{MaxBatch: 1, Window: time.Nanosecond})
	if c.MaxBatch() != 1 || c.Window() != minWindow {
		t.Fatalf("undersized options: MaxBatch %d Window %v, want 1/%v", c.MaxBatch(), c.Window(), minWindow)
	}
}

// TestSoloBypasses pins the zero-wait contract: a sequential caller —
// never more than one request pending — always takes the bypass and
// never opens a window.
func TestSoloBypasses(t *testing.T) {
	c, d, reqs := newRuntime(t, Options{})
	tk := singleTicket("solo/0")
	ctx := context.Background()
	const n = 50
	for i := 0; i < n; i++ {
		if _, _, err := c.Do(ctx, reqs[i], tk); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bypassed != n || st.Coalesced != 0 || st.Windows != 0 {
		t.Fatalf("sequential traffic: %+v, want %d bypassed and no windows", st, n)
	}
	if snap := d.Snapshot(); snap.Requests != n {
		t.Fatalf("dispatcher saw %d requests, want %d", snap.Requests, n)
	}
}

// TestGateShedsWindow pins the shed contract: a gate rejection delivers
// the gate's error and Served value to every waiter in the window, and
// the dispatcher is never entered.
func TestGateShedsWindow(t *testing.T) {
	errShed := errors.New("shed for test")
	var gateN int
	c, d, reqs := newRuntime(t, Options{MaxBatch: 1, Gate: func(n int, tk dispatch.Ticket) (Grant, error) {
		gateN = n
		return Grant{Served: "shed-meta"}, errShed
	}})
	// MaxBatch 1 makes every caller its own crowd: the full window cycle
	// runs, so the rejection exercises the flush fan-out, not the solo
	// path.
	out, served, err := c.Do(context.Background(), reqs[0], singleTicket("shed/0"))
	if !errors.Is(err, errShed) {
		t.Fatalf("err = %v, want the gate's rejection", err)
	}
	if served != "shed-meta" {
		t.Fatalf("served = %v, want the grant's Served", served)
	}
	if !sameOutcome(out, dispatch.Outcome{}) {
		t.Fatalf("shed returned a non-zero outcome: %+v", out)
	}
	if gateN != 1 {
		t.Fatalf("gate saw n=%d, want 1", gateN)
	}
	if snap := d.Snapshot(); snap.Requests != 0 {
		t.Fatalf("shed traffic entered the dispatcher: %d requests", snap.Requests)
	}
	if st := c.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
}

// TestGateRewritesTicket pins the downgrade seam: the dispatched batch
// runs under the gate's rewritten ticket, and every waiter receives the
// grant's Served value and the Release hook fires.
func TestGateRewritesTicket(t *testing.T) {
	released := 0
	c, d, reqs := newRuntime(t, Options{MaxBatch: 1, Gate: func(n int, tk dispatch.Ticket) (Grant, error) {
		tk.Tier = "rewritten/0.10"
		tk.Downgraded = true
		return Grant{Ticket: tk, Served: 42, Release: func() { released++ }}, nil
	}})
	_, served, err := c.Do(context.Background(), reqs[0], singleTicket("requested/0.01"))
	if err != nil {
		t.Fatal(err)
	}
	if served != 42 {
		t.Fatalf("served = %v, want the grant's Served", served)
	}
	if released != 1 {
		t.Fatalf("release ran %d times, want 1", released)
	}
	snap := d.Snapshot()
	if len(snap.Tiers) != 1 || snap.Tiers[0].Tier != "rewritten/0.10" {
		t.Fatalf("telemetry tiers = %+v, want only the rewritten tier", snap.Tiers)
	}
}

// TestCancelWhileQueued pins the removal path deterministically: a
// waiter whose context dies while its window is still open leaves the
// window, gets its context error, and the emptied window is retired
// without ever flushing. The window's timer is stopped by hand (white
// box) so the flush can never race the cancellation.
func TestCancelWhileQueued(t *testing.T) {
	c, d, reqs := newRuntime(t, Options{MaxBatch: 64})
	// White box: disarm the time trigger entirely (bypassing the clamp)
	// so only cancellation can resolve the waiter — a real window would
	// flush before a test on a loaded box could observe it queued.
	c.opts.Window = time.Hour
	tk := singleTicket("cancel/queued")
	defer fakeCrowd(c)() // so Do queues instead of bypassing

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, reqs[0], tk)
		done <- err
	}()

	awaitQueued(c, tk, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	c.mu.Lock()
	open := len(c.windows)
	c.mu.Unlock()
	if open != 0 {
		t.Fatalf("%d windows still open after the last waiter left", open)
	}
	if st := c.Stats(); st.Left != 1 || st.Windows != 0 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v, want one departure and no flush", st)
	}
	if snap := d.Snapshot(); snap.Requests != 0 {
		t.Fatalf("cancelled request reached the dispatcher: %d requests", snap.Requests)
	}
}

// TestCancelAfterClaim pins the other half of the cancellation
// contract: once a flush has claimed a waiter (window detached), a
// dying context no longer removes it — the caller receives the
// dispatched outcome. Claim and cancellation are sequenced by hand
// (white box), so the test is exact, not probabilistic.
func TestCancelAfterClaim(t *testing.T) {
	c, d, reqs := newRuntime(t, Options{MaxBatch: 64})
	c.opts.Window = time.Hour // white box: only the test's own claim may flush
	tk := singleTicket("cancel/claimed")
	defer fakeCrowd(c)()

	ctx, cancel := context.WithCancel(context.Background())
	type res struct {
		out dispatch.Outcome
		err error
	}
	done := make(chan res, 1)
	go func() {
		out, _, err := c.Do(ctx, reqs[0], tk)
		done <- res{out, err}
	}()

	// Claim the window exactly as a trigger would, before the
	// cancellation below can observe it queued.
	win := awaitQueued(c, tk, 1)
	c.mu.Lock()
	c.detachLocked(win)
	c.mu.Unlock()
	cancel()
	c.flush(win)
	r := <-done
	if r.err != nil {
		t.Fatalf("claimed waiter returned %v, want its dispatched outcome", r.err)
	}
	want, err := dispatch.New(dispatch.NewReplayBackends(visionMatrix(t)), dispatch.Options{DisableHedging: true}).
		Do(context.Background(), reqs[0], tk)
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcome(r.out, want) {
		t.Fatalf("outcome %+v != serial %+v", r.out, want)
	}
	if snap := d.Snapshot(); snap.Requests != 1 {
		t.Fatalf("dispatcher saw %d requests, want 1", snap.Requests)
	}
	if st := c.Stats(); st.Left != 0 || st.Coalesced != 1 || st.Windows != 1 {
		t.Fatalf("stats = %+v, want one coalesced flush and no departure", st)
	}
}

// TestSizeTriggerFlushesInline pins the size trigger: with a crowd
// present, MaxBatch arrivals of one ticket make exactly one window,
// which flushes without waiting for its timer, as one batch.
func TestSizeTriggerFlushesInline(t *testing.T) {
	const batch = 4
	c, d, reqs := newRuntime(t, Options{MaxBatch: batch})
	c.opts.Window = time.Hour // white box: only the size trigger may flush
	tk := singleTicket("size/0")
	defer fakeCrowd(c)() // so every request queues

	var wg sync.WaitGroup
	errs := make([]error, batch)
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do(context.Background(), reqs[i], tk)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	st := c.Stats()
	if st.Coalesced != batch || st.Windows != 1 || st.SizeFlushes != 1 {
		t.Fatalf("stats = %+v, want %d coalesced in one size-triggered window", st, batch)
	}
	if snap := d.Snapshot(); snap.Requests != batch {
		t.Fatalf("dispatcher saw %d requests", snap.Requests)
	}
}

// heldBackend answers as the backend it wraps, after reporting on
// entered and blocking until release closes: the test decides how long
// dispatches overlap.
type heldBackend struct {
	dispatch.Backend
	entered chan<- struct{}
	release <-chan struct{}
}

func (b heldBackend) Invoke(ctx context.Context, req *service.Request) (dispatch.Response, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.Backend.Invoke(ctx, req)
}

// TestSubCrowdNeverWaits pins the crowd rule's low-load half (the
// two-senders-idle-a-core case): fewer than MaxBatch callers, all inside
// the backend at the same instant, each dispatched solo. Nobody parked —
// with an hour-long time trigger a single parked caller would never
// reach the backend and the test would hang — and no window, hence no
// timer, was ever created.
func TestSubCrowdNeverWaits(t *testing.T) {
	const maxBatch = 8
	const n = maxBatch - 1
	m := visionMatrix(t)
	entered, release := make(chan struct{}), make(chan struct{})
	backends := dispatch.NewReplayBackends(m)
	for i, b := range backends {
		backends[i] = heldBackend{b, entered, release}
	}
	d := dispatch.New(backends, dispatch.Options{DisableHedging: true})
	c := New(d, Options{MaxBatch: maxBatch})
	c.opts.Window = time.Hour // white box: a parked caller stays parked
	made := 0
	c.windowPool.New = func() any { made++; return &window{c: c} }
	reqs := dispatch.ReplayRequests(m)
	tk := singleTicket("subcrowd/0")

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do(context.Background(), reqs[i], tk)
		}(i)
	}
	for i := 0; i < n; i++ {
		<-entered // once n have reported, all are inside the backend together
	}
	if got := c.pending.Load(); got != n {
		t.Fatalf("pending gauge %d with %d callers dispatching", got, n)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if st := c.Stats(); st.Bypassed != n || st.Windows != 0 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v, want %d bypassed and no window", st, n)
	}
	if made != 0 {
		t.Fatalf("%d windows were built (and their timers armed) below the crowd", made)
	}
}

// TestArrivalDrainsLeftovers pins the drain: k < MaxBatch-1 waiters
// parked while a crowd was present are released, as one batch of k+1, by
// the next arrival of their ticket once the crowd has gone. The time
// trigger is an hour away, so only that arrival can release them, and it
// is not a size flush.
func TestArrivalDrainsLeftovers(t *testing.T) {
	const maxBatch, k = 4, 2
	var gateN []int
	c, d, reqs := newRuntime(t, Options{MaxBatch: maxBatch, Gate: func(n int, tk dispatch.Ticket) (Grant, error) {
		gateN = append(gateN, n)
		return Grant{Ticket: tk}, nil
	}})
	c.opts.Window = time.Hour // white box: only an arrival may flush
	tk := singleTicket("drain/0")
	leave := fakeCrowd(c)

	var wg sync.WaitGroup
	errs := make([]error, k+1)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do(context.Background(), reqs[i], tk)
		}(i)
	}
	awaitQueued(c, tk, k)
	leave()

	_, _, errs[k] = c.Do(context.Background(), reqs[k], tk)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if len(gateN) != 1 || gateN[0] != k+1 {
		t.Fatalf("gate saw flushes of %v, want one of %d", gateN, k+1)
	}
	st := c.Stats()
	if st.Windows != 1 || st.Coalesced != k+1 || st.SizeFlushes != 0 || st.Bypassed != 0 {
		t.Fatalf("stats = %+v, want one drained window of %d and no size flush", st, k+1)
	}
	if snap := d.Snapshot(); snap.Requests != k+1 {
		t.Fatalf("dispatcher saw %d requests, want %d", snap.Requests, k+1)
	}
}

// TestMixedContextsShareWindow pins one window holding both kinds of
// caller: those whose context can never be cancelled (they wait in a
// plain receive) and those whose context can (they wait in a select).
// Two cancellable callers cancelled while queued leave the window with
// their context error; the rest — the third cancellable caller among
// them — ride one size-triggered flush and each receive the outcome a
// serial dispatch would have given. The coalescer then serves a second
// round from its pooled waiters and window: a result delivered twice
// would sit in a recycled waiter's buffer and surface there, or block
// the flush on the full buffer.
func TestMixedContextsShareWindow(t *testing.T) {
	const maxBatch = 8
	c, d, reqs := newRuntime(t, Options{MaxBatch: maxBatch})
	c.opts.Window = time.Hour // white box: only the size trigger may flush
	defer fakeCrowd(c)()
	serial := dispatch.New(dispatch.NewReplayBackends(visionMatrix(t)), dispatch.Options{DisableHedging: true})
	tk := dispatch.Ticket{Tier: "mixed/0", Policy: ensemble.Policy{
		Kind: ensemble.Failover, Primary: 0, Secondary: visionMatrix(t).NumVersions() - 1, Threshold: 0.5,
	}}

	for round := 0; round < 2; round++ {
		type res struct {
			out dispatch.Outcome
			err error
		}
		results := make([]chan res, maxBatch+2)
		call := func(i int, ctx context.Context) {
			results[i] = make(chan res, 1)
			go func() {
				out, _, err := c.Do(ctx, reqs[round*16+i], tk)
				results[i] <- res{out, err}
			}()
		}
		// Callers 0-2 cannot be cancelled; 3-5 can, and 3 and 4 will be.
		cancels := make([]context.CancelFunc, maxBatch+2)
		for i := 0; i < 6; i++ {
			ctx := context.Background()
			if i >= 3 {
				ctx, cancels[i] = context.WithCancel(ctx)
				defer cancels[i]()
			}
			call(i, ctx)
			awaitQueued(c, tk, i+1)
		}
		cancels[3]()
		cancels[4]()
		for _, i := range []int{3, 4} {
			if r := <-results[i]; !errors.Is(r.err, context.Canceled) {
				t.Fatalf("round %d: cancelled caller %d returned %v, want context.Canceled", round, i, r.err)
			}
		}
		awaitQueued(c, tk, 4)
		// Four more uncancellable callers fill the window to MaxBatch.
		for i := 6; i < maxBatch+2; i++ {
			call(i, context.Background())
		}
		for i, ch := range results {
			if i == 3 || i == 4 {
				continue
			}
			r := <-ch
			if r.err != nil {
				t.Fatalf("round %d: caller %d: %v", round, i, r.err)
			}
			want, err := serial.Do(context.Background(), reqs[round*16+i], tk)
			if err != nil {
				t.Fatal(err)
			}
			if !sameOutcome(r.out, want) {
				t.Fatalf("round %d: caller %d got %+v, serial %+v", round, i, r.out, want)
			}
		}
		st := c.Stats()
		if st.Left != int64(2*(round+1)) || st.Windows != int64(round+1) ||
			st.SizeFlushes != int64(round+1) || st.Coalesced != int64(maxBatch*(round+1)) {
			t.Fatalf("round %d: stats %+v, want two departures and one full window per round", round, st)
		}
		if snap := d.Snapshot(); snap.Requests != int64(maxBatch*(round+1)) {
			t.Fatalf("round %d: dispatcher saw %d requests, want %d", round, snap.Requests, maxBatch*(round+1))
		}
	}
}
