package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"time"
)

// The request stream. The seed decides the order of the calls, which
// tenant each carries and how ids group into batches; it does not
// decide the multiset: every cycle sends each corpus request under each
// consumer class in proportion to the class weight. The service-level
// answers (latency, error, cost) therefore average to the same value for
// every seed, and a move in them means the program answered differently.

const (
	tenants = 8
	// embeddedTenants: the ticket is the coalescing key and carries the
	// tenant, so 8 tenants x 3 classes spread 64 goroutines over 24
	// windows that time out (measured: mean window 4.2, 14 % size
	// flushes, cores half idle); 2 tenants keep the windows filling
	// (mean 7.9, 95 % size flushes), which is the contention the workload
	// is here for. README.md has the measurement.
	embeddedTenants = 2
	batchSize       = 64
	passesPerMix    = 20 // corpus passes per cycle, split over the classes by weight
	deadlineMS      = 2000
)

// deadlineClass is the class that sends deadline_ms (response-time/0.05):
// never binding, but budget parsing, the admission floor check and the
// proxy's deadline probe run.
const deadlineClass = 1

var tenantNames = [tenants]string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}

// call is one request the generator issues: one corpus id on the single
// workloads, batchSize ids of one class on direct_batch.
type call struct {
	class  uint8
	tenant uint8
	first  int32 // items[first:first+n] are the corpus indices
	n      int32
	body   []byte // JSON body
	wire   []byte // whole HTTP/1.1 request, prebuilt (socket workloads)
	// Sums of the oracle's service-level values over the call's items.
	svcLat, svcCost, svcErr float64
}

type stream struct {
	mix   []mixClass
	batch bool // calls are POST /dispatch/batch bodies
	calls []call
	items []int32
}

func (s *stream) idsOf(c *call) []int32 { return s.items[c.first : c.first+c.n] }

// classPasses splits passesPerMix corpus passes over the classes by
// weight (30/45/25 % -> 6/9/5).
func classPasses(mix []mixClass) []int {
	total := 0.0
	for _, c := range mix {
		total += c.weight
	}
	out := make([]int, len(mix))
	for i, c := range mix {
		out[i] = int(math.Round(c.weight / total * passesPerMix))
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

// newStream builds one cycle of calls. perCall is 1 or batchSize; path
// is "" for the embedded workload (no wire form).
func newStream(seed uint64, reqs []*Request, mix []mixClass, perCall, ntenants int, path string) *stream {
	rng := rand.New(rand.NewPCG(seed, 0x746f6c7469657273))
	st := &stream{mix: mix, batch: perCall > 1}
	corpus := len(reqs)
	perm := func() []int32 {
		p := make([]int32, corpus)
		for i := range p {
			p[i] = int32(i)
		}
		rng.Shuffle(corpus, func(i, j int) { p[i], p[j] = p[j], p[i] })
		return p
	}
	for class, passes := range classPasses(mix) {
		var ids []int32
		for p := 0; p < passes; p++ {
			ids = append(ids, perm()...)
		}
		// A last short batch is topped up from a fresh permutation, so
		// every call carries exactly perCall ids.
		if rem := len(ids) % perCall; rem != 0 {
			ids = append(ids, perm()[:perCall-rem]...)
		}
		for off := 0; off < len(ids); off += perCall {
			st.calls = append(st.calls, call{
				class: uint8(class),
				first: int32(len(st.items) + off),
				n:     int32(perCall),
			})
		}
		st.items = append(st.items, ids...)
	}
	rng.Shuffle(len(st.calls), func(i, j int) { st.calls[i], st.calls[j] = st.calls[j], st.calls[i] })
	for i := range st.calls {
		c := &st.calls[i]
		c.tenant = uint8(i % ntenants) // balanced; the shuffle above decides which call gets which
		c.body = encodeBody(reqs, st.idsOf(c), c.class == deadlineClass, perCall > 1)
		if path != "" {
			c.wire = wireRequest(path, mix[c.class], tenantNames[c.tenant], c.body)
		}
	}
	return st
}

func encodeBody(reqs []*Request, ids []int32, deadline, batch bool) []byte {
	var (
		body []byte
		err  error
	)
	dl := 0.0
	if deadline {
		dl = deadlineMS
	}
	if batch {
		b := WireBatch{DeadlineMS: dl}
		for _, i := range ids {
			b.RequestIDs = append(b.RequestIDs, reqs[i].ID)
		}
		body, err = json.Marshal(b)
	} else {
		body, err = json.Marshal(WireRequest{RequestID: reqs[ids[0]].ID, DeadlineMS: dl})
	}
	if err != nil {
		panic(err) // wire request types always marshal
	}
	return body
}

func formatTolerance(t float64) string { return strconv.FormatFloat(t, 'g', -1, 64) }

// wireRequest is the whole HTTP/1.1 request as bytes: the generator
// writes it to a keep-alive connection as is.
func wireRequest(path string, class mixClass, tenant string, body []byte) []byte {
	return []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: toltiers-bench\r\nContent-Type: application/json\r\n"+
		"Tolerance: %s\r\nObjective: %s\r\nTenant: %s\r\nContent-Length: %d\r\n\r\n%s",
		path, formatTolerance(class.tolerance), class.objective, tenant, len(body), body))
}

// budgetOf is the deadline a call's class carries, as the handlers parse it.
func budgetOf(class uint8) time.Duration {
	if class == deadlineClass {
		return deadlineMS * time.Millisecond
	}
	return 0
}
