// Package profile measures every service version against every request
// of a corpus and stores the results as a matrix. The matrix is the
// paper's `toltiers.simulator` substrate: once built, ensemble-policy
// simulation and the Fig.-7 bootstrap evaluate configurations in
// microseconds per trial without re-running the engines. It also hosts
// the per-request accuracy-latency category analysis of Fig. 2/3.
//
// Storage is columnar (struct-of-arrays): one flat float64 slice per
// metric, indexed Index(request, version). The Fig.-7 bootstrap touches
// a single metric of thousands of (request, version) pairs per trial,
// so per-metric columns keep that loop inside contiguous cache lines
// instead of striding over 40-byte Cell structs. Cell and the Row/At
// accessors remain as a row-major compatibility view.
package profile

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/toltiers/toltiers/internal/service"
)

// Cell holds one (request, version) measurement — the row-major view of
// one matrix entry.
type Cell struct {
	// Err is the result's error (WER or 0/1 top-1).
	Err float64
	// Latency is the version's simulated processing time.
	Latency time.Duration
	// Confidence is the version's self-assessment.
	Confidence float64
	// InvCost is the consumer-side API price of the invocation.
	InvCost float64
	// IaaSCost is the provider-side node-time cost of the invocation.
	IaaSCost float64
}

// Matrix is the request x version measurement table. The five metric
// columns are flat slices of length NumRequests()*NumVersions(), laid
// out row-major: entry (i, v) lives at Index(i, v) = i*NumVersions()+v.
// Latencies are stored as nanoseconds in float64; they remain exact as
// long as a single latency stays below 2^53 ns (~104 days), far beyond
// any simulated processing time.
type Matrix struct {
	// Domain records which service was profiled.
	Domain service.Domain
	// VersionNames are the column labels, fastest first (service
	// order).
	VersionNames []string
	// RequestIDs are the row labels.
	RequestIDs []int

	// Err is the per-entry error column (WER or 0/1 top-1).
	Err []float64
	// LatencyNs is the per-entry processing time in nanoseconds.
	LatencyNs []float64
	// Confidence is the per-entry self-assessment column.
	Confidence []float64
	// InvCost is the per-entry consumer-side invocation price column.
	InvCost []float64
	// IaaSCost is the per-entry provider-side node-time cost column.
	IaaSCost []float64
}

// New allocates an empty matrix with the given labels; every metric of
// every entry starts at zero.
func New(domain service.Domain, versionNames []string, requestIDs []int) *Matrix {
	n := len(requestIDs) * len(versionNames)
	return &Matrix{
		Domain:       domain,
		VersionNames: versionNames,
		RequestIDs:   requestIDs,
		Err:          make([]float64, n),
		LatencyNs:    make([]float64, n),
		Confidence:   make([]float64, n),
		InvCost:      make([]float64, n),
		IaaSCost:     make([]float64, n),
	}
}

// NumRequests returns the number of rows.
func (m *Matrix) NumRequests() int { return len(m.RequestIDs) }

// NumVersions returns the number of columns.
func (m *Matrix) NumVersions() int { return len(m.VersionNames) }

// Index returns the flat column offset of entry (request i, version v).
func (m *Matrix) Index(i, v int) int { return i*len(m.VersionNames) + v }

// At returns entry (i, v) as a Cell (the row-major compatibility view).
func (m *Matrix) At(i, v int) Cell {
	k := m.Index(i, v)
	return Cell{
		Err:        m.Err[k],
		Latency:    time.Duration(m.LatencyNs[k]),
		Confidence: m.Confidence[k],
		InvCost:    m.InvCost[k],
		IaaSCost:   m.IaaSCost[k],
	}
}

// SetAt stores c at entry (i, v).
func (m *Matrix) SetAt(i, v int, c Cell) {
	k := m.Index(i, v)
	m.Err[k] = c.Err
	m.LatencyNs[k] = float64(c.Latency)
	m.Confidence[k] = c.Confidence
	m.InvCost[k] = c.InvCost
	m.IaaSCost[k] = c.IaaSCost
}

// Row materializes row i as a fresh []Cell.
func (m *Matrix) Row(i int) []Cell {
	return m.ReadRow(i, make([]Cell, m.NumVersions()))
}

// ReadRow fills buf with row i and returns it, growing buf if needed.
// It lets row-oriented callers (the legacy simulation path) reuse one
// buffer across rows.
func (m *Matrix) ReadRow(i int, buf []Cell) []Cell {
	nv := m.NumVersions()
	if cap(buf) < nv {
		buf = make([]Cell, nv)
	}
	buf = buf[:nv]
	for v := 0; v < nv; v++ {
		buf[v] = m.At(i, v)
	}
	return buf
}

// Build profiles every version of svc against every request, in
// parallel. The result is deterministic: engines are deterministic and
// rows are assigned by index.
func Build(svc *service.Service, reqs []*service.Request) *Matrix {
	ids := make([]int, len(reqs))
	for i, r := range reqs {
		ids[i] = r.ID
	}
	m := New(svc.Domain, svc.VersionNames(), ids)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				req := reqs[i]
				for v, ver := range svc.Versions {
					res := ver.Process(req)
					plan := ver.Plan()
					k := m.Index(i, v)
					m.Err[k] = svc.Evaluator.Error(req, res)
					m.LatencyNs[k] = float64(res.Latency)
					m.Confidence[k] = res.Confidence
					m.InvCost[k] = plan.InvocationCost()
					m.IaaSCost[k] = plan.IaaSCost(res.Latency)
				}
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return m
}

// VersionSummary aggregates one column.
type VersionSummary struct {
	Name        string
	MeanErr     float64
	MeanLatency time.Duration
	MeanInvCost float64
	MeanIaaS    float64
}

type summaryAcc struct {
	err, lat, inv, iaas float64
}

// Summaries returns per-version aggregates over all rows (or the subset
// of row indices if rows is non-nil).
func (m *Matrix) Summaries(rows []int) []VersionSummary {
	nv := m.NumVersions()
	acc := make([]summaryAcc, nv)
	n := 0
	accumulate := func(i int) {
		n++
		base := i * nv
		for v := 0; v < nv; v++ {
			acc[v].err += m.Err[base+v]
			acc[v].lat += m.LatencyNs[base+v]
			acc[v].inv += m.InvCost[base+v]
			acc[v].iaas += m.IaaSCost[base+v]
		}
	}
	if rows == nil {
		for i := 0; i < m.NumRequests(); i++ {
			accumulate(i)
		}
	} else {
		for _, i := range rows {
			accumulate(i)
		}
	}
	out := make([]VersionSummary, nv)
	for v := range out {
		out[v].Name = m.VersionNames[v]
		if n > 0 {
			out[v].MeanErr = acc[v].err / float64(n)
			out[v].MeanLatency = time.Duration(acc[v].lat) / time.Duration(n)
			out[v].MeanInvCost = acc[v].inv / float64(n)
			out[v].MeanIaaS = acc[v].iaas / float64(n)
		}
	}
	return out
}

// BestVersion returns the index of the most accurate version over the
// given rows (nil = all): the column with minimal mean error, ties
// broken toward the later (wider) version as the paper's "most accurate
// known" configuration.
func (m *Matrix) BestVersion(rows []int) int {
	sums := m.Summaries(rows)
	best := 0
	for v := 1; v < len(sums); v++ {
		if sums[v].MeanErr <= sums[best].MeanErr {
			best = v
		}
	}
	return best
}

// MeanErrOf returns the mean error of version v over rows (nil = all).
func (m *Matrix) MeanErrOf(v int, rows []int) float64 {
	nv := m.NumVersions()
	sum, n := 0.0, 0
	if rows == nil {
		for i := 0; i < m.NumRequests(); i++ {
			sum += m.Err[i*nv+v]
			n++
		}
	} else {
		for _, i := range rows {
			sum += m.Err[i*nv+v]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Validate checks structural invariants (column lengths, value ranges).
func (m *Matrix) Validate() error {
	want := m.NumRequests() * m.NumVersions()
	for name, col := range map[string][]float64{
		"err": m.Err, "lat_ns": m.LatencyNs, "conf": m.Confidence,
		"inv": m.InvCost, "iaas": m.IaaSCost,
	} {
		if len(col) != want {
			return fmt.Errorf("profile: column %s has %d entries, want %d", name, len(col), want)
		}
	}
	nv := m.NumVersions()
	for k := 0; k < want; k++ {
		i, v := k/nv, k%nv
		if m.Err[k] < 0 {
			return fmt.Errorf("profile: negative error at (%d,%d)", i, v)
		}
		if m.LatencyNs[k] < 0 {
			return fmt.Errorf("profile: negative latency at (%d,%d)", i, v)
		}
		if m.Confidence[k] < 0 || m.Confidence[k] > 1 {
			return fmt.Errorf("profile: confidence %v out of range at (%d,%d)", m.Confidence[k], i, v)
		}
	}
	return nil
}
