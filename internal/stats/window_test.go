package stats

import (
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"testing"

	"github.com/toltiers/toltiers/internal/xrand"
)

// The dispatcher's hedging window: 128 samples, armed at 8, its
// quantile refreshed once every 16.
const (
	hedgeSize  = 128
	hedgeArm   = 8
	hedgeEvery = 16
)

func newHedgeWindow() *Window { return NewWindow(hedgeSize, hedgeArm, hedgeEvery, 0.95) }

// bitsHash folds one read into a running FNV-64a hash, little-endian.
func bitsHash(h interface{ Write([]byte) (int, error) }, u uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
}

// TestWindowGolden pins Window bit for bit to the estimators it
// replaced, on seeded streams whose hashes were recorded from them.
// The hedging stream arms with a cold-start outlier among its first
// 8 samples, wraps past 128, holds a zero-bits slot (a claimed but
// unstored sample) from 150 to 277, and boosts the quantile to 0.99 at
// 200 and restores it at 260, reading the quantile on four samples in
// five and the minimum on every one. The tail stream is the flight
// recorder's threshold: the second-largest of 128, armed only when the
// window is full, with a 500 ms outlier at 300.
func TestWindowGolden(t *testing.T) {
	rng := xrand.New(42)
	w := newHedgeWindow()
	h := fnv.New64a()
	spot := map[int][2]float64{ // sample -> {quantile, minimum}
		8:   {9.926235e+06, 1.754766e+06},
		100: {9.502831e+06, 1.257384e+06},
		250: {9.781027e+06, 1.045012e+06},
		400: {9.582695e+06, 1.020962e+06},
	}
	for i := 1; i <= 400; i++ {
		v := 1e6 + math.Floor(rng.Float64()*9e6)
		switch i {
		case 3:
			v = 5e8
		case 150:
			v = 0
		case 200:
			w.SetQuantile(0.99)
		case 260:
			w.SetQuantile(0)
		}
		w.Add(v)
		q := math.NaN()
		if i%5 != 2 {
			q = w.Quantile()
			bitsHash(h, math.Float64bits(q))
		}
		m := w.Min()
		bitsHash(h, math.Float64bits(m))
		if i < hedgeArm && !math.IsNaN(m) {
			t.Fatalf("minimum armed after %d samples", i)
		}
		if want, ok := spot[i]; ok && (q != want[0] || m != want[1]) {
			t.Errorf("after %d samples: quantile %v, minimum %v; want %v, %v", i, q, m, want[0], want[1])
		}
	}
	if got := h.Sum64(); got != 0x865f98ac207ed5e4 {
		t.Errorf("hedging stream hash %#x, want 0x865f98ac207ed5e4", got)
	}

	rng = xrand.New(7)
	tail := NewWindow(128, 128, 32, 0.995)
	h = fnv.New64a()
	spotTail := map[int]int64{127: 0, 128: 9872315, 159: 9872315, 160: 9845034, 300: 9948110, 400: 9788764}
	for i := 1; i <= 400; i++ {
		v := int64(1e6) + int64(rng.Intn(9e6))
		if i == 300 {
			v = 5e8
		}
		tail.Add(float64(v))
		var p int64 // 0 while unarmed, as the recorder's threshold read
		if q := tail.Quantile(); !math.IsNaN(q) {
			p = int64(q)
		}
		bitsHash(h, uint64(p))
		if want, ok := spotTail[i]; ok && p != want {
			t.Errorf("tail threshold after %d samples = %d, want %d", i, p, want)
		}
	}
	if got := h.Sum64(); got != 0xab51c443c6403a2f {
		t.Errorf("tail stream hash %#x, want 0xab51c443c6403a2f", got)
	}
}

// TestWindowQuantile exercises the sliding-window quantile estimate.
func TestWindowQuantile(t *testing.T) {
	w := newHedgeWindow()
	if !math.IsNaN(w.Quantile()) {
		t.Fatal("estimate before observations")
	}
	// A handful of observations — including a cold-start outlier — must
	// not arm the estimate yet.
	w.Add(5e8)
	for i := 0; i < hedgeArm-2; i++ {
		w.Add(1000)
	}
	if !math.IsNaN(w.Quantile()) {
		t.Fatalf("estimate armed after %d observations", hedgeArm-1)
	}
	w.Add(1000)
	if math.IsNaN(w.Quantile()) {
		t.Fatalf("estimate not armed at %d observations", hedgeArm)
	}
	for i := 0; i < 200; i++ {
		w.Add(float64(i % 100))
	}
	got := w.Quantile()
	if got < 90 || got > 99 {
		t.Fatalf("p95 of 0..99 window = %v", got)
	}
}

// TestWindowMin pins the minimum's own refresh. Read after every
// observation, the minimum is NaN through the warm-up (after 1
// observation, say) and from the arming count on exactly the minimum of
// the samples still in the window — after 8, 128 and 300 observations
// alike, an old minimum leaving with its slot — and reading it never
// runs the quantile selection, whose mark stays unset. A refreshing read
// allocates nothing.
func TestWindowMin(t *testing.T) {
	w := newHedgeWindow()
	var seen []float64
	for n := 1; n <= 300; n++ {
		v := float64(1000 + (n*37)%101)
		switch n {
		case 5:
			v = 1 // the minimum until its slot is overwritten at n = 133
		case 200:
			v = 7
		}
		w.Add(v)
		seen = append(seen, v)
		got := w.Min()
		if n < hedgeArm {
			if !math.IsNaN(got) {
				t.Fatalf("minimum after %d observations = %v, want NaN until %d", n, got, hedgeArm)
			}
			continue
		}
		want := math.Inf(1)
		for _, s := range seen[max(0, n-hedgeSize):] {
			want = math.Min(want, s)
		}
		if got != want {
			t.Fatalf("minimum after %d observations = %v, want window minimum %v", n, got, want)
		}
	}
	if w.refreshAt.Load() != hedgeArm {
		t.Fatal("reading the minimum refreshed the quantile cache")
	}

	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc budget measured without -race")
	}
	if avg := testing.AllocsPerRun(100, func() {
		w.Add(1500)
		w.Min()
	}); avg != 0 {
		t.Fatalf("%v allocs per refreshing minimum read, want 0", avg)
	}
}

// TestWindowConcurrent races Add against Quantile, Min and a quantile
// boost: every armed read is a sample some writer added, and once the
// writers are done the window reads exactly the order statistic and
// minimum of its last hedgeSize samples. Run it under -race.
func TestWindowConcurrent(t *testing.T) {
	w := newHedgeWindow()
	const writers, perWriter = 4, 4000
	var wg sync.WaitGroup
	for g := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				w.Add(float64(1000 + (g*perWriter+i)%997))
			}
		}()
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if r == 0 && i%64 == 0 {
					w.SetQuantile(0.99 * float64(i/64%2)) // boost, restore
				}
				for _, v := range [2]float64{w.Quantile(), w.Min()} {
					if !math.IsNaN(v) && (v < 1000 || v >= 1997) {
						t.Errorf("read %v, never added", v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	w.SetQuantile(0)
	held := make([]float64, hedgeSize)
	for i := range held {
		held[i] = math.Float64frombits(w.slots[i].Load())
	}
	sort.Float64s(held)
	if got, want := w.Quantile(), held[120]; got != want { // int(0.95·127)
		t.Errorf("settled quantile %v, want %v", got, want)
	}
	if got := w.Min(); got != held[0] {
		t.Errorf("settled minimum %v, want %v", got, held[0])
	}
}
