package rulegen

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTableRoundTrip(t *testing.T) {
	m := fixtureMatrix(t)
	g := New(m, nil, smallConfig())
	table := g.Generate([]float64{0.01, 0.05, 0.10}, MinimizeLatency)
	var buf bytes.Buffer
	if err := WriteTable(&buf, table); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf, m.NumVersions())
	if err != nil {
		t.Fatal(err)
	}
	if got.Objective != table.Objective || got.Best != table.Best {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Rules) != len(table.Rules) {
		t.Fatalf("rules %d != %d", len(got.Rules), len(table.Rules))
	}
	for i := range got.Rules {
		a, b := got.Rules[i], table.Rules[i]
		if a.Tolerance != b.Tolerance || a.Candidate.Policy != b.Candidate.Policy {
			t.Fatalf("rule %d mismatch: %+v vs %+v", i, a, b)
		}
		if a.Candidate.WorstErrDeg != b.Candidate.WorstErrDeg || a.Candidate.MeanLatency != b.Candidate.MeanLatency {
			t.Fatalf("rule %d stats mismatch", i)
		}
	}
	// Lookup must behave identically after the round trip.
	ra, oka := got.Lookup(0.07)
	rb, okb := table.Lookup(0.07)
	if oka != okb || ra.Tolerance != rb.Tolerance {
		t.Fatal("lookup diverged after round trip")
	}
}

func TestReadTableRejectsGarbage(t *testing.T) {
	cases := []string{
		`not json`,
		`{"format":"nope","objective":"cost","rules":[]}`,
		`{"format":"toltiers-rules-v1","objective":"warp","rules":[]}`,
		`{"format":"toltiers-rules-v1","objective":"cost","rules":[{"tolerance":0.1,"policy":{"kind":"quantum","primary":0}}]}`,
	}
	for _, c := range cases {
		if _, err := ReadTable(strings.NewReader(c), 7); err == nil {
			t.Fatalf("accepted %q", c)
		}
	}
}

func TestReadTableValidatesVersions(t *testing.T) {
	in := `{"format":"toltiers-rules-v1","objective":"cost","best_version":6,
	 "rules":[{"tolerance":0.1,"policy":{"kind":"single","primary":99}}]}`
	if _, err := ReadTable(strings.NewReader(in), 7); err == nil {
		t.Fatal("out-of-range primary accepted")
	}
	// Skipping validation with nVersions 0 accepts it.
	if _, err := ReadTable(strings.NewReader(in), 0); err != nil {
		t.Fatalf("unvalidated read failed: %v", err)
	}
}

func TestReadTableRejectsUnsortedTolerances(t *testing.T) {
	in := `{"format":"toltiers-rules-v1","objective":"cost","best_version":1,
	 "rules":[{"tolerance":0.1,"policy":{"kind":"single","primary":0}},
	          {"tolerance":0.05,"policy":{"kind":"single","primary":0}}]}`
	if _, err := ReadTable(strings.NewReader(in), 2); err == nil {
		t.Fatal("unsorted tolerances accepted")
	}
}

func TestSaveLoadTableFile(t *testing.T) {
	m := fixtureMatrix(t)
	g := New(m, nil, smallConfig())
	table := g.Generate([]float64{0.05}, MinimizeCost)
	path := filepath.Join(t.TempDir(), "rules.json")
	if err := SaveTableFile(path, table); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadTable(f, m.NumVersions())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rules) != 1 || got.Objective != MinimizeCost {
		t.Fatalf("loaded %+v", got)
	}
}
