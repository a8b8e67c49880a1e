package tabulate

import (
	"strings"
	"testing"
)

func TestStringAlignment(t *testing.T) {
	tb := New("Title", "name", "queries")
	tb.AddRow("rank-shrink", 549)
	tb.AddRow("binary-shrink", 815)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two data rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "Title" {
		t.Errorf("title line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") || !strings.Contains(lines[1], "queries") {
		t.Errorf("header line %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "----") {
		t.Errorf("separator line %q", lines[2])
	}
	// All data rows align: both cost cells start at the same offset.
	off := strings.Index(lines[4], "815")
	if off < 0 || strings.Index(lines[3], "549") != off {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := New("", "x", "y")
	tb.AddRow(1.0, 2.345678)
	row := tb.rows[0]
	if row[0] != "1" {
		t.Errorf("whole float rendered as %q, want 1", row[0])
	}
	if row[1] != "2.346" {
		t.Errorf("fraction rendered as %q, want 2.346", row[1])
	}
}

func TestCSV(t *testing.T) {
	tb := New("ignored", "a", "b")
	tb.AddRow("plain", `has "quotes", and commas`)
	csv := tb.CSV()
	want := "a,b\nplain,\"has \"\"quotes\"\", and commas\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestNumRows(t *testing.T) {
	tb := New("", "a")
	if len(tb.rows) != 0 {
		t.Error("fresh table has rows")
	}
	tb.AddRow(1)
	tb.AddRow(2)
	if len(tb.rows) != 2 {
		t.Errorf("rows = %d", len(tb.rows))
	}
}

func TestNoTitle(t *testing.T) {
	tb := New("", "a")
	tb.AddRow("x")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("empty title produced a leading blank line")
	}
}
