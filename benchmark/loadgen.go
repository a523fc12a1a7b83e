package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The closed loop runs as many senders as it takes to keep the cores
// busy; a loop that leaves them half idle measures the scheduler's
// idle/wake behaviour, which does not repeat (REPEATABILITY.md). nproc
// senders on nproc keep-alive connections do that on direct_batch and
// fleet_single. On direct_single they do not: a sender whose call is not
// alone in the coalescer sits out the window timer, 0.76 of 2 cores are
// busy, and throughput, p50 and CPU per request move 14 to 34 % between
// runs of the same code. 16 connections per core keep the node
// CPU-bound. embedded_contended runs 64 goroutines and no socket.
const (
	directSingleSendersPerCore = 16
	embeddedSenders            = 64
)

// issuer performs one call for a sender and classifies the answer.
type issuer func(s *sender, c *call) verdict

// sender is one generator goroutine's state. Each owns its connection,
// its position in the shared stream, its ledger and its latency samples.
type sender struct {
	id   int
	conn *wireConn
	pos  int

	led     ledger
	okItems atomic.Int64 // read by the sampler while the phase runs
	svcLat  float64
	svcCost float64
	svcErr  float64
	// lat[k] holds the durations (ns) of the calls that ended in slice k:
	// every latStride-th call, so that a fast workload's samples do not
	// become the process's memory footprint.
	lat       [][]uint32
	latStride int64
	lateness  []uint32 // paced phase: actual minus intended send time (ns)
	// spans, on the traced closed phase, takes a span for every
	// spanStride-th call.
	spans      *spanBuf
	spanStride int64
	firstBad   string // diagnostic for the first call that was not vOK
}

// latSamples is how many latency samples a sender aims to keep per phase.
const latSamples = 1 << 15

// spanned reports whether the call about to be issued carries a span.
func (s *sender) spanned() bool { return s.spans != nil && s.led.sent%s.spanStride == 0 }

// sample is one reading of the process at a slice boundary.
type sample struct {
	at         time.Time
	cpu        time.Duration
	allocBytes uint64
	okItems    int64
}

// procReader reads process CPU and heap allocation without stopping the
// world.
type procReader struct{ ms []metrics.Sample }

func newProcReader() *procReader {
	return &procReader{ms: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (p *procReader) allocs() (bytes, objects uint64) {
	metrics.Read(p.ms)
	return p.ms[0].Value.Uint64(), p.ms[1].Value.Uint64()
}

// phase is the result of one timed phase.
type phase struct {
	wall           time.Duration
	led            ledger
	samples        []sample
	lat            [][]uint32 // per slice, all senders merged
	lateness       []uint32
	svcLat         float64
	svcCost        float64
	svcErr         float64
	goroutinesPeak int
	firstBad       string
	behind         float64 // paced phase: share of its length the generator overran
}

// rps is verified corpus requests per second over the whole phase.
func (p *phase) rps() float64 { return float64(p.led.okItems) / p.wall.Seconds() }

// allLat merges every slice's samples.
func (p *phase) allLat() []uint32 {
	var out []uint32
	for _, l := range p.lat {
		out = append(out, l...)
	}
	return out
}

// slices derives the per-slice values between consecutive samples.
func (p *phase) slices() (rps, cpuUS, allocB, p50MS []float64) {
	for k := 1; k < len(p.samples); k++ {
		a, b := p.samples[k-1], p.samples[k]
		n := float64(b.okItems - a.okItems)
		if n <= 0 {
			continue
		}
		rps = append(rps, n/b.at.Sub(a.at).Seconds())
		cpuUS = append(cpuUS, float64(b.cpu-a.cpu)/1e3/n)
		allocB = append(allocB, float64(b.allocBytes-a.allocBytes)/n)
	}
	for _, l := range p.lat {
		if len(l) > 0 {
			p50MS = append(p50MS, durationsQuantile(l, 0.5)/1e6)
		}
	}
	return
}

// closedLoop runs every sender for dur: each sends its next call as soon
// as the previous one is answered. expectRate (calls/s, all senders; 0 =
// unknown) sets how many calls share one latency sample.
func closedLoop(st *stream, senders []*sender, issue issuer, dur time.Duration, nslices int, expectRate float64) *phase {
	sliceLen := dur / time.Duration(nslices)
	expect := expectRate * dur.Seconds() / float64(len(senders)) // calls per sender
	stride := int64(math.Ceil(expect / latSamples))
	for _, s := range senders {
		s.beginPhase(nslices, stride)
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for {
				c := &st.calls[s.pos%len(st.calls)]
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				s.pos++
				v := issue(s, c)
				t1 := time.Now()
				s.finish(c, v, start, t0, t1, sliceLen)
			}
		}(s)
	}
	p := watch(senders, start, dur, nslices, &wg)
	p.collect(senders)
	return p
}

// pacedLoop is the open loop: each sender follows its own seeded Poisson
// schedule at rate/len(senders) calls per second, and every call is
// timed from the moment it was due, so a stall shows in the calls queued
// behind it.
func pacedLoop(st *stream, senders []*sender, issue issuer, dur time.Duration, rate float64, seed uint64) *phase {
	perSender := int(rate*dur.Seconds()/float64(len(senders))*1.5) + 1024
	for _, s := range senders {
		s.beginPhase(1, 1)
		s.lat[0] = make([]uint32, 0, perSender)
		s.lateness = make([]uint32, 0, perSender)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(s.id)+1))
			due := time.Duration(0)
			for {
				due += time.Duration(rng.ExpFloat64() / (rate / float64(len(senders))) * float64(time.Second))
				if due >= dur {
					return
				}
				intended := start.Add(due)
				if wait := time.Until(intended); wait > 0 {
					time.Sleep(wait)
				}
				c := &st.calls[s.pos%len(st.calls)]
				s.pos++
				sent := time.Now()
				v := issue(s, c)
				done := time.Now()
				s.lateness = append(s.lateness, clampNS(sent.Sub(intended)))
				s.finish(c, v, start, intended, done, dur+time.Hour)
			}
		}(s)
	}
	p := watch(senders, start, dur, 1, &wg)
	p.collect(senders)
	p.behind = math.Max(0, (p.wall-dur).Seconds()/dur.Seconds())
	return p
}

func clampNS(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// traceID numbers the sender's calls of a phase, disjoint from every
// other sender's and from the replay's.
func (s *sender) traceID() uint32 { return uint32(s.id+1)<<24 | uint32(s.led.sent)&0xffffff }

func (s *sender) beginPhase(nslices int, latStride int64) {
	s.led = ledger{}
	s.latStride = max(1, latStride)
	s.okItems.Store(0)
	s.svcLat, s.svcCost, s.svcErr = 0, 0, 0
	s.firstBad = ""
	s.lateness = nil
	s.lat = make([][]uint32, nslices)
	for k := range s.lat {
		s.lat[k] = make([]uint32, 0, 2*latSamples/nslices)
	}
}

// finish books one answered call: ledger, service-level sums, latency
// sample in the slice it ended in.
func (s *sender) finish(c *call, v verdict, start, from, to time.Time, sliceLen time.Duration) {
	if s.conn != nil && s.spanned() {
		s.spans.add(s.traceID(), 0, spanLoadgenCall, from, to)
	}
	sampled := s.led.sent%s.latStride == 0
	s.led.sent++
	s.led.count(v, int64(c.n))
	if v == vOK {
		s.okItems.Add(int64(c.n))
		s.svcLat += c.svcLat
		s.svcCost += c.svcCost
		s.svcErr += c.svcErr
	}
	if !sampled {
		return
	}
	k := int(to.Sub(start) / sliceLen)
	if k >= len(s.lat) {
		k = len(s.lat) - 1
	}
	s.lat[k] = append(s.lat[k], clampNS(to.Sub(from)))
}

// watch samples the process at every slice boundary until the senders
// are done, and tracks the goroutine peak in between.
func watch(senders []*sender, start time.Time, dur time.Duration, nslices int, wg *sync.WaitGroup) *phase {
	const ticksPerSlice = 5
	pr := newProcReader()
	read := func() sample {
		var ok int64
		for _, s := range senders {
			ok += s.okItems.Load()
		}
		b, _ := pr.allocs()
		return sample{at: time.Now(), cpu: processCPU(), allocBytes: b, okItems: ok}
	}
	p := &phase{samples: []sample{read()}}
	tick := dur / time.Duration(nslices*ticksPerSlice)
	for k := 1; k <= nslices*ticksPerSlice; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * tick)))
		if g := runtime.NumGoroutine(); g > p.goroutinesPeak {
			p.goroutinesPeak = g
		}
		if k%ticksPerSlice == 0 {
			p.samples = append(p.samples, read())
		}
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

func (p *phase) collect(senders []*sender) {
	p.lat = make([][]uint32, len(senders[0].lat))
	for _, s := range senders {
		p.led.add(s.led)
		p.svcLat += s.svcLat
		p.svcCost += s.svcCost
		p.svcErr += s.svcErr
		for k := range s.lat {
			p.lat[k] = append(p.lat[k], s.lat[k]...)
		}
		p.lateness = append(p.lateness, s.lateness...)
		if p.firstBad == "" {
			p.firstBad = s.firstBad
		}
	}
}
