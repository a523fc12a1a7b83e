package profile

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	m := visionMatrix(t, 80)
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Domain != m.Domain {
		t.Fatalf("domain %q != %q", got.Domain, m.Domain)
	}
	if got.NumRequests() != m.NumRequests() || got.NumVersions() != m.NumVersions() {
		t.Fatalf("shape %dx%d != %dx%d", got.NumRequests(), got.NumVersions(), m.NumRequests(), m.NumVersions())
	}
	for i := 0; i < m.NumRequests(); i++ {
		if got.RequestIDs[i] != m.RequestIDs[i] {
			t.Fatalf("row %d id mismatch", i)
		}
		for v := 0; v < m.NumVersions(); v++ {
			if got.At(i, v) != m.At(i, v) {
				t.Fatalf("cell (%d,%d) differs: %+v != %+v", i, v, got.At(i, v), m.At(i, v))
			}
		}
	}
}

func TestReadRejectsBadFormat(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"format":"nope","versions":[],"requests":0}` + "\n")); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadRejectsArityMismatch(t *testing.T) {
	in := `{"format":"toltiers-profile-v1","domain":"vision","versions":["a","b"],"requests":1}
{"id":0,"err":[0],"lat_ns":[1],"conf":[0.5],"inv":[1],"iaas":[1]}
`
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	m := speechMatrix(t, 10)
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}
