package ensemble

import "github.com/toltiers/toltiers/internal/profile"

// ColumnSet holds the per-version metric columns of a profile matrix
// gathered over a fixed training-row subset, indexed [version][local
// row]. The gather is O(rows x versions) and was previously paid by
// every Evaluator (one per bootstrap worker, all gathering identical
// columns); a ColumnSet is built once per (matrix, rows) pair and shared
// by any number of evaluators.
//
// A ColumnSet is immutable after GatherColumns returns and therefore
// safe for concurrent use by evaluators on different goroutines — the
// bootstrap workers of the rule generator all read the same set.
type ColumnSet struct {
	rows     int
	versions int
	// err/latNs/conf/inv/iaas are the gathered metric columns. They are
	// package-private so nothing can mutate a shared set; Evaluator reads
	// them directly.
	err, latNs, conf, inv, iaas [][]float64
}

// GatherColumns gathers the metric columns of m over the given training
// rows (nil = all rows). Local row r of the set corresponds to matrix
// row rows[r].
func GatherColumns(m *profile.Matrix, rows []int) *ColumnSet {
	nv := m.NumVersions()
	var n int
	if rows == nil {
		n = m.NumRequests()
	} else {
		n = len(rows)
	}
	c := &ColumnSet{
		rows:     n,
		versions: nv,
		err:      make([][]float64, nv),
		latNs:    make([][]float64, nv),
		conf:     make([][]float64, nv),
		inv:      make([][]float64, nv),
		iaas:     make([][]float64, nv),
	}
	for v := 0; v < nv; v++ {
		c.err[v] = make([]float64, n)
		c.latNs[v] = make([]float64, n)
		c.conf[v] = make([]float64, n)
		c.inv[v] = make([]float64, n)
		c.iaas[v] = make([]float64, n)
		for r := 0; r < n; r++ {
			i := r
			if rows != nil {
				i = rows[r]
			}
			k := m.Index(i, v)
			c.err[v][r] = m.Err[k]
			c.latNs[v][r] = m.LatencyNs[k]
			c.conf[v][r] = m.Confidence[k]
			c.inv[v][r] = m.InvCost[k]
			c.iaas[v][r] = m.IaaSCost[k]
		}
	}
	return c
}

// NumRows returns the number of gathered training rows.
func (c *ColumnSet) NumRows() int { return c.rows }

// NumVersions returns the number of service versions covered.
func (c *ColumnSet) NumVersions() int { return c.versions }
