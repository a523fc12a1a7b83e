package profile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"github.com/toltiers/toltiers/internal/service"
)

// Profiling a large corpus is the most expensive offline step, so
// matrices can be saved and reloaded. The format is a self-describing
// JSON-lines stream: a header line followed by one row per request —
// diffable, append-friendly, and safe to mmap-tail. The on-disk row
// layout (one array per metric) matches the in-memory columnar layout,
// so serialization is slicing, not transposition.

// fileHeader is the first line of a serialized matrix.
type fileHeader struct {
	Format   string   `json:"format"`
	Domain   string   `json:"domain"`
	Versions []string `json:"versions"`
	Requests int      `json:"requests"`
}

// fileRow is one serialized request row.
type fileRow struct {
	ID    int       `json:"id"`
	Err   []float64 `json:"err"`
	LatNS []int64   `json:"lat_ns"`
	Conf  []float64 `json:"conf"`
	Inv   []float64 `json:"inv"`
	IaaS  []float64 `json:"iaas"`
}

const formatName = "toltiers-profile-v1"

// Write serializes the matrix.
func (m *Matrix) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(fileHeader{
		Format:   formatName,
		Domain:   string(m.Domain),
		Versions: m.VersionNames,
		Requests: m.NumRequests(),
	}); err != nil {
		return fmt.Errorf("profile: write header: %w", err)
	}
	nv := m.NumVersions()
	row := fileRow{LatNS: make([]int64, nv)}
	for i := 0; i < m.NumRequests(); i++ {
		lo, hi := i*nv, (i+1)*nv
		row.ID = m.RequestIDs[i]
		row.Err = m.Err[lo:hi]
		row.Conf = m.Confidence[lo:hi]
		row.Inv = m.InvCost[lo:hi]
		row.IaaS = m.IaaSCost[lo:hi]
		for v, ns := range m.LatencyNs[lo:hi] {
			row.LatNS[v] = int64(ns)
		}
		if err := enc.Encode(&row); err != nil {
			return fmt.Errorf("profile: write row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read deserializes a matrix written by Write.
func Read(r io.Reader) (*Matrix, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var h fileHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("profile: read header: %w", err)
	}
	if h.Format != formatName {
		return nil, fmt.Errorf("profile: unknown format %q", h.Format)
	}
	m := New(service.Domain(h.Domain), h.Versions, make([]int, h.Requests))
	nv := len(h.Versions)
	for i := 0; i < h.Requests; i++ {
		var row fileRow
		if err := dec.Decode(&row); err != nil {
			return nil, fmt.Errorf("profile: read row %d: %w", i, err)
		}
		if len(row.Err) != nv || len(row.LatNS) != nv || len(row.Conf) != nv ||
			len(row.Inv) != nv || len(row.IaaS) != nv {
			return nil, fmt.Errorf("profile: row %d arity mismatch", i)
		}
		m.RequestIDs[i] = row.ID
		lo := i * nv
		copy(m.Err[lo:lo+nv], row.Err)
		copy(m.Confidence[lo:lo+nv], row.Conf)
		copy(m.InvCost[lo:lo+nv], row.Inv)
		copy(m.IaaSCost[lo:lo+nv], row.IaaS)
		for v, ns := range row.LatNS {
			m.LatencyNs[lo+v] = float64(ns)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
