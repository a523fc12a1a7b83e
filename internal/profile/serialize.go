package profile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/service"
)

// Profiling a large corpus is the most expensive offline step, so
// matrices can be saved and reloaded. The format is a self-describing
// JSON-lines stream: a header line followed by one row per request —
// diffable, append-friendly, and safe to mmap-tail. The on-disk row
// layout (one array per metric) matches the in-memory columnar layout,
// so serialization is slicing, not transposition.
//
// A row is the fixed text encoding/json writes for it, nv values to an
// array, floats as api.AppendFloat renders them:
//
//	{"id":I,"err":[F,…],"lat_ns":[I,…],"conf":[F,…],"inv":[F,…],"iaas":[F,…]}
//
// AppendTo renders exactly that, Read accepts exactly that (numbers in the
// api scanner's grammar) and nothing else, with no encoding/json
// fallback: every stored or shipped matrix is a CRC-checked state
// section, so any other row comes from a damaged file, an error anyway.
// Both split the rows across GOMAXPROCS goroutines.

// fileHeader is the first line of a serialized matrix.
type fileHeader struct {
	Format   string   `json:"format"`
	Domain   string   `json:"domain"`
	Versions []string `json:"versions"`
	Requests int      `json:"requests"`
}

const formatName = "toltiers-profile-v1"

// minChunkRows is the fewest rows one codec goroutine takes, so a small
// matrix stays on the caller's goroutine: a row renders or parses in a
// few microseconds, a goroutine start costs about one.
const minChunkRows = 64

// rowChunks splits n rows into at most GOMAXPROCS contiguous ranges of
// at least minChunkRows each (one range below that), returned as their
// boundaries: range c is rows [b[c], b[c+1]).
func rowChunks(n int) []int {
	k := min(runtime.GOMAXPROCS(0), max(n/minChunkRows, 1))
	b := make([]int, k+1)
	for c := range b {
		b[c] = c * n / k
	}
	return b
}

// eachChunk runs f(c) for every range c of bounds, on one goroutine a
// range, the caller's among them, and returns the lowest range's error.
// The goroutines share one closure and take ranges from a counter, so
// what the codec allocates does not grow with GOMAXPROCS.
func eachChunk(bounds []int, f func(c int) error) error {
	errs := make([]error, len(bounds)-1)
	n := int64(len(errs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(int(n))
	work := func() {
		defer wg.Done()
		for c := next.Add(1) - 1; c < n; c = next.Add(1) - 1 {
			errs[c] = f(int(c))
		}
	}
	for range n - 1 {
		go work()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// AppendTo appends the serialized matrix to dst. A NaN or infinity is
// encoding/json's error for the lowest row that holds one, and then dst
// comes back as it was.
func (m *Matrix) AppendTo(dst []byte) ([]byte, error) {
	hdr, err := json.Marshal(fileHeader{
		Format:   formatName,
		Domain:   string(m.Domain),
		Versions: m.VersionNames,
		Requests: m.NumRequests(),
	})
	if err != nil {
		return dst, fmt.Errorf("profile: write header: %w", err)
	}
	// Each range renders into its own part of one buffer: a rendered
	// value averages about 13 bytes, so 16 a value rarely outgrows it.
	bounds, per := rowChunks(m.NumRequests()), 64+80*m.NumVersions()
	all, parts := make([]byte, m.NumRequests()*per), make([][]byte, len(bounds)-1)
	if err := eachChunk(bounds, func(c int) (err error) {
		b := all[bounds[c]*per : bounds[c]*per : bounds[c+1]*per]
		for i := bounds[c]; i < bounds[c+1] && err == nil; i++ {
			b, err = m.appendRow(b, i)
		}
		parts[c] = b
		return err
	}); err != nil {
		return dst, err
	}
	n := len(hdr) + 1
	for _, b := range parts {
		n += len(b)
	}
	dst = append(append(slices.Grow(dst, n), hdr...), '\n')
	for _, b := range parts {
		dst = append(dst, b...)
	}
	return dst, nil
}

// appendRow appends row i and its newline to dst.
func (m *Matrix) appendRow(dst []byte, i int) ([]byte, error) {
	lo, hi := m.Index(i, 0), m.Index(i+1, 0)
	var err error
	dst = strconv.AppendInt(append(dst, `{"id":`...), int64(m.RequestIDs[i]), 10)
	dst = appendArray(dst, `,"err":[`, m.Err[lo:hi], false, &err)
	dst = appendArray(dst, `],"lat_ns":[`, m.LatencyNs[lo:hi], true, &err)
	dst = appendArray(dst, `],"conf":[`, m.Confidence[lo:hi], false, &err)
	dst = appendArray(dst, `],"inv":[`, m.InvCost[lo:hi], false, &err)
	dst = appendArray(dst, `],"iaas":[`, m.IaaSCost[lo:hi], false, &err)
	if err != nil {
		return dst, fmt.Errorf("profile: write row %d: %w", i, err)
	}
	return append(dst, "]}\n"...), nil
}

// appendArray appends key and fs comma-separated, as int64s when ints
// is set. The first NaN or infinity of a row, in field order, leaves
// encoding/json's error for it in *err.
func appendArray(dst []byte, key string, fs []float64, ints bool, err *error) []byte {
	dst = append(dst, key...)
	for v, f := range fs {
		if v > 0 {
			dst = append(dst, ',')
		}
		switch {
		case ints:
			dst = strconv.AppendInt(dst, int64(f), 10)
		case f-f != 0: // 0 for every finite f, NaN for NaN and ±Inf
			if *err == nil {
				*err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
			}
		default:
			dst = api.AppendFloat(dst, f)
		}
	}
	return dst
}

// Read parses a matrix AppendTo rendered, in place: the columns are the
// only allocation that grows with it. One pass over the newlines finds
// where each goroutine's rows start, and the columns are sized by the
// rows found, so a header claiming more rows than there are costs
// nothing. Errors name the lowest failing row.
func Read(data []byte) (*Matrix, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("profile: read header: no header line")
	}
	var h fileHeader
	if err := json.Unmarshal(data[:nl], &h); err != nil {
		return nil, fmt.Errorf("profile: read header: %w", err)
	}
	// Every row takes at least a byte, so a claim past the body's length
	// is refused before it sizes the row ranges.
	body := data[nl+1:]
	if h.Format != formatName || h.Requests < 0 || h.Requests > len(body) {
		return nil, fmt.Errorf("profile: bad header: format %q, %d requests in %d bytes", h.Format, h.Requests, len(body))
	}
	bounds := rowChunks(h.Requests)
	starts := make([]int, len(bounds)-1)
	rows, off := 0, 0
	for c := 0; rows < h.Requests; rows++ {
		if rows == bounds[c] {
			starts[c] = off
			c++
		}
		j := bytes.IndexByte(body[off:], '\n')
		if j < 0 {
			break
		}
		off += j + 1
	}
	nv := len(h.Versions)
	if rows > 0 && nv > len(body)/rows { // a row holds more than nv bytes
		return nil, fmt.Errorf("profile: %d rows of %d versions in %d bytes", rows, nv, len(body))
	}
	m := New(service.Domain(h.Domain), h.Versions, make([]int, rows))
	if err := eachChunk(bounds, func(c int) error {
		r := rowReader{b: body, i: starts[c]}
		for i := bounds[c]; i < min(bounds[c+1], rows); i++ {
			if !r.row(m, i) {
				return fmt.Errorf("profile: read row %d: not a row AppendTo renders (byte %d after the header)", i, r.i)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if rows != h.Requests || off != len(body) {
		return nil, fmt.Errorf("profile: read row %d: %d of %d rows, then %d bytes", rows, rows, h.Requests, len(body)-off)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// rowReader is a cursor over the rows; ok turns false at the first byte
// that is not where the row grammar puts it, and stays false.
type rowReader struct {
	b  []byte
	i  int
	ok bool
}

// row parses row i into m at the cursor, leaving it after the newline.
func (r *rowReader) row(m *Matrix, i int) bool {
	lo, hi := m.Index(i, 0), m.Index(i+1, 0)
	r.ok = true
	r.lit(`{"id":`)
	id := r.integer()
	m.RequestIDs[i] = int(id)
	r.ok = r.ok && int64(int(id)) == id
	r.array(`,"err":[`, m.Err[lo:hi], false)
	r.array(`],"lat_ns":[`, m.LatencyNs[lo:hi], true)
	r.array(`],"conf":[`, m.Confidence[lo:hi], false)
	r.array(`],"inv":[`, m.InvCost[lo:hi], false)
	r.array(`],"iaas":[`, m.IaaSCost[lo:hi], false)
	r.lit("]}\n")
	return r.ok
}

// lit consumes s if it comes next.
func (r *rowReader) lit(s string) {
	r.ok = r.ok && len(r.b)-r.i >= len(s) && string(r.b[r.i:r.i+len(s)]) == s
	if r.ok {
		r.i += len(s)
	}
}

func (r *rowReader) integer() (v int64) {
	if r.ok {
		v, r.i, r.ok = api.ScanInt64(r.b, r.i)
	}
	return v
}

// array consumes key, then len(dst) comma-separated values into dst:
// integers when ints is set, floats otherwise.
func (r *rowReader) array(key string, dst []float64, ints bool) {
	r.lit(key)
	for v := range dst {
		if v > 0 {
			r.lit(",")
		}
		if ints {
			dst[v] = float64(r.integer())
		} else if r.ok {
			dst[v], r.i, r.ok = api.ScanFloat(r.b, r.i)
		}
	}
}
