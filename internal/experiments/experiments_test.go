package experiments

import (
	"strconv"
	"strings"
	"testing"

	"github.com/toltiers/toltiers/internal/tablewriter"
)

func quickEnv(t testing.TB) *Env {
	t.Helper()
	s := QuickScale()
	s.SpeechN = 500
	s.VisionN = 1200
	s.KFolds = 3
	return NewEnv(s)
}

func renderAll(t *testing.T, tables []*tablewriter.Table) string {
	t.Helper()
	var sb strings.Builder
	for _, tb := range tables {
		if err := tb.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("e7"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("zz"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if len(All()) < 14 {
		t.Fatalf("only %d experiments registered", len(All()))
	}
}

func TestE1Shape(t *testing.T) {
	e := quickEnv(t)
	tables := e.E1()
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	if got := len(tables[0].Rows); got != 7 {
		t.Fatalf("E1 rows = %d, want 7 versions", got)
	}
	out := renderAll(t, tables)
	if !strings.Contains(out, "asr-v7") {
		t.Fatalf("missing version row:\n%s", out)
	}
}

func TestE2IncludesOffFrontier(t *testing.T) {
	e := quickEnv(t)
	out := renderAll(t, e.E2())
	if !strings.Contains(out, "vgg16") || !strings.Contains(out, "sota") {
		t.Fatalf("zoo rows missing:\n%s", out)
	}
	if !strings.Contains(out, "no") {
		t.Fatal("expected at least one off-frontier marker")
	}
}

func TestE3FrontierTables(t *testing.T) {
	e := quickEnv(t)
	tables := e.E3()
	if len(tables) != 3 {
		t.Fatalf("tables = %d, want ASR + IC cpu + IC gpu", len(tables))
	}
}

func TestE4CategoriesSumTo100(t *testing.T) {
	e := quickEnv(t)
	tables := e.E4()
	out := renderAll(t, tables)
	if !strings.Contains(out, "unchanged") {
		t.Fatalf("breakdown missing:\n%s", out)
	}
	// Breakdown rows: parse the ASR row fractions.
	var asrRow []string
	for _, tb := range tables {
		for _, row := range tb.Rows {
			if row[0] == "ASR" {
				asrRow = row
			}
		}
	}
	if asrRow == nil {
		t.Fatal("no ASR breakdown row")
	}
	sum := 0.0
	for _, cell := range asrRow[1:] {
		var v float64
		if _, err := fmtSscanfPct(cell, &v); err != nil {
			t.Fatalf("unparsable cell %q", cell)
		}
		sum += v
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("category fractions sum to %v", sum)
	}
}

func fmtSscanfPct(s string, v *float64) (int, error) {
	f, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	*v = f
	return 1, err
}

func TestE5AllSeriesPresent(t *testing.T) {
	e := quickEnv(t)
	out := renderAll(t, e.E5())
	for _, want := range []string{"all", "improves", "varies"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing series %q:\n%s", want, out)
		}
	}
}

func TestE6PolicyAnatomy(t *testing.T) {
	e := quickEnv(t)
	out := renderAll(t, e.E6())
	if !strings.Contains(out, "OSFA") || !strings.Contains(out, "failover") {
		t.Fatalf("policy rows missing:\n%s", out)
	}
}

func TestE7E8TierSweeps(t *testing.T) {
	e := quickEnv(t)
	t7 := e.E7()
	t8 := e.E8()
	if len(t7) != 3 || len(t8) != 3 {
		t.Fatalf("sweep tables %d/%d", len(t7), len(t8))
	}
	// Grid rows: QuickScale tolerance step 0.01 over 0.10 = 11 rows.
	if got := len(t7[0].Rows); got != 11 {
		t.Fatalf("E7 rows = %d", got)
	}
}

func TestE10HeadlineMentionsPaper(t *testing.T) {
	e := quickEnv(t)
	out := renderAll(t, e.E10())
	for _, want := range []string{"19%", "45%", "60%", "21%", "70%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("paper reference %q missing:\n%s", want, out)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are expensive")
	}
	e := quickEnv(t)
	for _, id := range []string{"a1", "a2", "a4", "a5"} {
		d, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		tables := d.Run(e)
		if len(tables) == 0 {
			t.Fatalf("%s returned no tables", id)
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Fatalf("%s produced an empty table %q", id, tb.Title)
			}
		}
	}
}
