package profile

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/vision"
)

// refRow is one row as the reference codec reflects it.
type refRow struct {
	ID    int       `json:"id"`
	Err   []float64 `json:"err"`
	LatNS []int64   `json:"lat_ns"`
	Conf  []float64 `json:"conf"`
	Inv   []float64 `json:"inv"`
	IaaS  []float64 `json:"iaas"`
}

// referenceWrite is the encoding/json row writer the hand-written codec
// replaced: AppendTo must produce its bytes and its errors.
func referenceWrite(m *Matrix, w io.Writer) error {
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
	row := refRow{LatNS: make([]int64, nv)}
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

// referenceRead is the encoding/json row reader the hand-written codec
// replaced: whatever Read accepts, it accepts with the same columns.
func referenceRead(r io.Reader) (*Matrix, error) {
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
		var row refRow
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

// sameMatrix describes the first difference between a and b, comparing
// floats by their bits; "" when there is none.
func sameMatrix(a, b *Matrix) string {
	if a.Domain != b.Domain || fmt.Sprint(a.VersionNames) != fmt.Sprint(b.VersionNames) {
		return fmt.Sprintf("labels %q %v vs %q %v", a.Domain, a.VersionNames, b.Domain, b.VersionNames)
	}
	if fmt.Sprint(a.RequestIDs) != fmt.Sprint(b.RequestIDs) {
		return "request ids differ"
	}
	cols := []string{"err", "lat_ns", "conf", "inv", "iaas"}
	for c, pair := range [][2][]float64{{a.Err, b.Err}, {a.LatencyNs, b.LatencyNs},
		{a.Confidence, b.Confidence}, {a.InvCost, b.InvCost}, {a.IaaSCost, b.IaaSCost}} {
		if len(pair[0]) != len(pair[1]) {
			return fmt.Sprintf("column %s length %d vs %d", cols[c], len(pair[0]), len(pair[1]))
		}
		for k := range pair[0] {
			if math.Float64bits(pair[0][k]) != math.Float64bits(pair[1][k]) {
				return fmt.Sprintf("column %s cell %d: %v vs %v", cols[c], k, pair[0][k], pair[1][k])
			}
		}
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkCodec holds AppendTo and Read to the reference codec on m: the same
// bytes or the same error (with nothing written), and on those bytes
// the same columns or the same error.
func checkCodec(t *testing.T, m *Matrix) []byte {
	t.Helper()
	var want bytes.Buffer
	wantErr := referenceWrite(m, &want)
	got, gotErr := m.AppendTo(nil)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("AppendTo error %q, reference %q", errText(gotErr), errText(wantErr))
	}
	if gotErr != nil {
		if len(got) != 0 {
			t.Fatalf("failed AppendTo left %d bytes", len(got))
		}
		return nil
	}
	if !bytes.Equal(got, want.Bytes()) {
		g, w := got, want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("AppendTo differs from the reference at byte %d: %.60q vs %.60q", i, g[i:], w[i:])
	}
	refM, refErr := referenceRead(bytes.NewReader(want.Bytes()))
	newM, newErr := Read(want.Bytes())
	if errText(newErr) != errText(refErr) {
		t.Fatalf("Read error %q, reference %q", errText(newErr), errText(refErr))
	}
	if newErr == nil {
		if d := sameMatrix(newM, refM); d != "" {
			t.Fatalf("Read differs from the reference: %s", d)
		}
	}
	return want.Bytes()
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := visionMatrix(t, 80)
	data, err := m.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameMatrix(got, m); d != "" {
		t.Fatal(d)
	}
}

// TestCodecMatchesReferenceParallel runs both directions split seven
// ways (uneven ranges) over the 2 000-row GPU matrix with values on
// each of encoding/json's number-format edges planted in it.
func TestCodecMatchesReferenceParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(7))
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 2000, Device: vision.GPU})
	m := Build(c.Service, c.Requests)
	for k, f := range []float64{1e-7, 5e-300, 1e22, math.Copysign(0, -1), 1e21, math.Nextafter(1e21, 0),
		1e-6, math.Nextafter(1e-6, 0), 5e-324, math.MaxFloat64} {
		m.InvCost[k*1399%len(m.InvCost)] = f
		m.IaaSCost[k*1733%len(m.IaaSCost)] = -f
		m.Err[k*997%len(m.Err)] = math.Abs(f)
	}
	checkCodec(t, m)
}

func TestWriteNonFiniteNamesLowestRow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m := visionMatrix(t, 600)
	nv := m.NumVersions()
	m.IaaSCost[550*nv+2] = math.NaN()
	m.Confidence[310*nv+1] = math.Inf(-1)
	m.InvCost[310*nv] = math.Inf(1) // later in the row than conf: conf's -Inf is reported
	checkCodec(t, m)
	if _, err := m.AppendTo(nil); err == nil || !strings.Contains(err.Error(), "row 310: json: unsupported value: -Inf") {
		t.Fatalf("error %v, want row 310's -Inf", err)
	}
}

func TestReadNamesLowestFailingRow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m := visionMatrix(t, 600)
	data, err := m.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	good := data
	lines := bytes.SplitAfter(good, []byte("\n")) // header, 600 rows, ""
	damage := func(rows ...int) []byte {
		var out []byte
		for i, l := range lines {
			for _, r := range rows {
				if i == r+1 {
					l = bytes.Replace(l, []byte(`"conf":[`), []byte(`"conf": [`), 1)
				}
			}
			out = append(out, l...)
		}
		return out
	}
	for _, tc := range []struct {
		in   []byte
		want string
	}{
		{damage(500, 170), "read row 170:"},
		{damage(599), "read row 599:"},
		{good[:len(good)-1], "read row 599:"},
		{bytes.Join(lines[:400], nil), "read row 399: 399 of 600 rows, then 0 bytes"},
		{append(append([]byte(nil), good...), '\n'), "read row 600: 600 of 600 rows, then 1 bytes"},
	} {
		if _, err := Read(tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("error %v, want %q", err, tc.want)
		}
	}
}

// TestReadRejectsNonCanonicalRows: Read takes exactly what AppendTo
// renders. The first rows are ones encoding/json reads; the last are
// numbers outside the grammar, which it refuses too.
func TestReadRejectsNonCanonicalRows(t *testing.T) {
	const hdr = `{"format":"toltiers-profile-v1","domain":"vision","versions":["a"],"requests":1}` + "\n"
	const row = `{"id":0,"err":[0],"lat_ns":[1],"conf":[0.5],"inv":[1],"iaas":[1]}`
	if _, err := Read([]byte(hdr + row + "\n")); err != nil {
		t.Fatalf("canonical row refused: %v", err)
	}
	jsonReads := []string{
		`{"id": 0,"err":[0],"lat_ns":[1],"conf":[0.5],"inv":[1],"iaas":[1]}`,
		`{"err":[0],"id":0,"lat_ns":[1],"conf":[0.5],"inv":[1],"iaas":[1]}`,
		`{"ID":0,"err":[0],"lat_ns":[1],"conf":[0.5],"inv":[1],"iaas":[1]}`,
		`{"id":0,"err":[0],"lat_ns":[1],"conf":[0.5],"inv":[1],"iaas":[1],"x":1}`,
		row + " ",
	}
	for i, bad := range append(jsonReads,
		`{"id":0,"err":[00],"lat_ns":[1],"conf":[0.5],"inv":[1],"iaas":[1]}`,
		`{"id":0,"err":[0],"lat_ns":[1.0],"conf":[0.5],"inv":[1],"iaas":[1]}`,
		`{"id":0,"err":[0],"lat_ns":[1],"conf":[.5],"inv":[1],"iaas":[1]}`,
		`{"id":0,"err":[0],"lat_ns":[1],"conf":[0.5],"inv":[1],"iaas":[1e999]}`,
		`{"id":99999999999999999999,"err":[0],"lat_ns":[1],"conf":[0.5],"inv":[1],"iaas":[1]}`,
	) {
		_, refErr := referenceRead(strings.NewReader(hdr + bad + "\n"))
		if (refErr == nil) != (i < len(jsonReads)) {
			t.Fatalf("reference on %s: %v", bad, refErr)
		}
		if _, err := Read([]byte(hdr + bad + "\n")); err == nil || !strings.Contains(err.Error(), "read row 0:") {
			t.Fatalf("row %s: error %v", bad, err)
		}
	}
}

func TestReadRejectsBadFormat(t *testing.T) {
	if _, err := Read([]byte(`{"format":"nope","versions":[],"requests":0}` + "\n")); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := Read([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read([]byte(`{"format":"toltiers-profile-v1","versions":["a"],"requests":-1}` + "\n")); err == nil {
		t.Fatal("negative request count accepted")
	}
}

func TestReadRejectsArityMismatch(t *testing.T) {
	in := `{"format":"toltiers-profile-v1","domain":"vision","versions":["a","b"],"requests":1}
{"id":0,"err":[0],"lat_ns":[1],"conf":[0.5],"inv":[1],"iaas":[1]}
`
	if _, err := Read([]byte(in)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	m := speechMatrix(t, 10)
	data, err := m.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(data[:len(data)/2]); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// FuzzMatrixCodec holds AppendTo and Read to the encoding/json reference
// codec: matrices of 0-199 rows by 1-8 versions whose cells walk up
// from three fuzzed float bit patterns one ulp at a time (±0,
// subnormals, the 1e-6 and 1e21 format switches, NaN and ±Inf are all
// seeds), with fuzzed ids and latencies. AppendTo's bytes and errors must
// be the reference's; Read must return the reference's columns bit for
// bit on them; and on the bytes with one byte overwritten or cut short,
// Read must not panic, and what it accepts the reference accepts with
// the same columns.
func FuzzMatrixCodec(f *testing.F) {
	bits := math.Float64bits
	f.Add(uint16(130<<4|6), bits(1e-7), bits(5e-300), bits(1e22), int64(0), uint64(12_345_678), uint32(777), byte('7'))
	f.Add(uint16(20<<4|2), bits(math.Nextafter(1e-6, 0)), bits(math.Nextafter(1e21, 0)), bits(math.Copysign(0, -1)), int64(-5), uint64(1), uint32(90), byte(' '))
	f.Add(uint16(3<<4|0), bits(1e-6), bits(1e21), uint64(1), int64(1)<<62, uint64(1)<<63, uint32(3), byte('\n'))
	f.Add(uint16(5<<4|3), bits(0.25), bits(math.NaN()), bits(0.5), int64(9), uint64(40e6), uint32(0), byte('e'))
	f.Add(uint16(9<<4|1), bits(math.Inf(1)), bits(math.Inf(-1)), bits(123.456), int64(-1)<<63, uint64(0), uint32(1), byte('-'))
	f.Add(uint16(0), bits(1), bits(1), bits(1), int64(0), uint64(0), uint32(0), byte(0))
	f.Fuzz(func(t *testing.T, shape uint16, a, b, c uint64, id int64, lat uint64, at uint32, mut byte) {
		rows, nv := int(shape>>4)%200, int(shape&7)+1
		names := make([]string, nv)
		for v := range names {
			names[v] = fmt.Sprintf("v%d", v)
		}
		ids := make([]int, rows)
		for i := range ids {
			ids[i] = int(id) + i
		}
		m := New(service.VisionDomain, names, ids)
		seeds := [3]uint64{a, b, c}
		for k := range m.Err {
			x := math.Float64frombits(seeds[k%3] + uint64(k/3))
			ax := math.Abs(x)
			m.Err[k] = ax
			m.Confidence[k] = min(ax, 1/ax) // in [0, 1] but for NaN
			m.InvCost[k] = x
			m.IaaSCost[k] = -x
			m.LatencyNs[k] = float64(lat >> (k % 13))
		}
		data := checkCodec(t, m)
		if len(data) == 0 {
			return
		}
		at %= uint32(len(data))
		mutated := append([]byte(nil), data...)
		mutated[at] = mut
		for _, in := range [][]byte{mutated, data[:at]} {
			got, err := Read(in)
			if err != nil {
				continue
			}
			ref, refErr := referenceRead(bytes.NewReader(in))
			if refErr != nil {
				t.Fatalf("Read accepted what the reference refuses (%v): %q", refErr, in)
			}
			if d := sameMatrix(got, ref); d != "" {
				t.Fatalf("Read differs from the reference on accepted input: %s", d)
			}
		}
	})
}
