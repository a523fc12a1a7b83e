package tablewriter

import (
	"strings"
	"testing"
)

func TestWriteTextAligned(t *testing.T) {
	tb := New("demo", "name", "value")
	tb.AddStrings("short", "1.5000")
	tb.AddStrings("a-much-longer-name", "x")
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	// Header and separator must align.
	if len(lines) < 4 {
		t.Fatalf("too few lines:\n%s", out)
	}
}

func TestWriteCSVQuoting(t *testing.T) {
	tb := New("", "a", "b")
	tb.AddStrings(`plain`, `with,comma`)
	tb.AddStrings(`with"quote`, "with\nnewline")
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"with,comma"`) {
		t.Fatalf("comma not quoted: %s", out)
	}
	if !strings.Contains(out, `"with""quote"`) {
		t.Fatalf("quote not escaped: %s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("header wrong: %s", out)
	}
}

func TestCaption(t *testing.T) {
	tb := New("t", "c")
	tb.Caption = "note"
	var sb strings.Builder
	_ = tb.WriteText(&sb)
	if !strings.Contains(sb.String(), "note") {
		t.Fatal("caption missing")
	}
}

func TestWriteMarkdown(t *testing.T) {
	tb := New("md", "a", "b")
	tb.AddStrings("x|y", "2")
	tb.Caption = "cap"
	var sb strings.Builder
	if err := tb.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"### md", "| a | b |", "| --- | --- |", `x\|y`, "*cap*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
