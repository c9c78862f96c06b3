package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("name", "count", "pct")
	tb.AddRow("alpha", 10, 33.333)
	tb.AddRow("beta-longer", 2, 0.5)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "count") {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Errorf("separator: %q", lines[1])
	}
	if !strings.Contains(out, "33.33") {
		t.Errorf("float formatting missing: %s", out)
	}
	// Columns aligned: "count" column starts at the same offset in all rows.
	idx := strings.Index(lines[0], "count")
	if !strings.HasPrefix(lines[2][idx:], "10") && !strings.Contains(lines[2][idx:idx+3], "10") {
		t.Errorf("alignment: %q", lines[2])
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("plain", "with,comma")
	tb.AddRow("quote\"inside", "multi\nline")
	var sb strings.Builder
	tb.CSV(&sb)
	out := sb.String()
	if !strings.Contains(out, `"with,comma"`) {
		t.Errorf("comma not quoted: %s", out)
	}
	if !strings.Contains(out, `"quote""inside"`) {
		t.Errorf("quote not escaped: %s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("header: %s", out)
	}
}

func TestCDFChart(t *testing.T) {
	var sb strings.Builder
	CDFChart(&sb, "demo", func(p float64) int { return int(p * 100) })
	out := sb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "p50") || !strings.Contains(out, "50 days") {
		t.Errorf("CDF chart:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]int{0, 1, 2, 4, 8})
	if len([]rune(s)) != 5 {
		t.Fatalf("sparkline runes = %q", s)
	}
	if Sparkline(nil) != "" {
		t.Error("empty sparkline should be empty string")
	}
	runes := []rune(s)
	if runes[0] >= runes[4] {
		t.Errorf("sparkline not increasing: %q", s)
	}
}
