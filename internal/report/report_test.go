package report

import (
	"strings"
	"testing"
)

func TestTableRenderAlignment(t *testing.T) {
	tb := NewTable("Demo", "Case", "Value")
	tb.Add("(a)", "149 kW")
	tb.Add("(bb)", "0")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "Case") || !strings.Contains(lines[1], "Value") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "----") {
		t.Errorf("separator = %q", lines[2])
	}
	// All rows align: the Value column starts at the same offset.
	off := strings.Index(lines[1], "Value")
	if !strings.HasPrefix(lines[3][off:], "149 kW") || !strings.HasPrefix(lines[4][off:], "0") {
		t.Errorf("misaligned rows:\n%s", out)
	}
}

func TestTableAddPadsShortRows(t *testing.T) {
	tb := NewTable("", "A", "B", "C")
	tb.Add("x")
	if len(tb.Rows[0]) != 3 {
		t.Errorf("row not padded: %v", tb.Rows[0])
	}
}

func TestTableAddPanicsOnLongRow(t *testing.T) {
	tb := NewTable("", "A")
	defer func() {
		if recover() == nil {
			t.Error("no panic for over-long row")
		}
	}()
	tb.Add("x", "y")
}

func TestTableAddf(t *testing.T) {
	tb := NewTable("", "N", "F")
	tb.Addf(42, 1.5)
	if tb.Rows[0][0] != "42" || tb.Rows[0][1] != "1.5" {
		t.Errorf("Addf row = %v", tb.Rows[0])
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("T", "a,x", "b")
	tb.Add("1,5", "2")
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a;x,b\n1;5,2\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestChartASCIIBasics(t *testing.T) {
	c := NewChart("Fig X", "time", "power")
	s := c.AddSeries("original")
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i*i))
	}
	var sb strings.Builder
	if err := c.RenderASCII(&sb, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "[*] original") {
		t.Errorf("missing title/legend:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Error("no data glyphs plotted")
	}
	if !strings.Contains(out, "81") {
		t.Errorf("max Y label missing:\n%s", out)
	}
}

func TestChartASCIIEmpty(t *testing.T) {
	c := NewChart("Empty", "x", "y")
	var sb strings.Builder
	if err := c.RenderASCII(&sb, 40, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(no data)") {
		t.Errorf("empty chart output = %q", sb.String())
	}
}

func TestChartASCIIConstantSeries(t *testing.T) {
	// Degenerate ranges (all same x or y) must not divide by zero.
	c := NewChart("Const", "x", "y")
	s := c.AddSeries("flat")
	s.Append(1, 5)
	s.Append(1, 5)
	var sb strings.Builder
	if err := c.RenderASCII(&sb, 30, 6); err != nil {
		t.Fatal(err)
	}
}

func TestChartMultiSeriesGlyphs(t *testing.T) {
	c := NewChart("Multi", "x", "y")
	a := c.AddSeries("a")
	b := c.AddSeries("b")
	a.Append(0, 0)
	a.Append(10, 0)
	b.Append(0, 10)
	b.Append(10, 10)
	var sb strings.Builder
	if err := c.RenderASCII(&sb, 30, 8); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Errorf("expected two glyph kinds:\n%s", out)
	}
}

func TestChartCSV(t *testing.T) {
	c := NewChart("F", "t,s", "P")
	s := c.AddSeries("se,r")
	s.Append(1, 2.5)
	var sb strings.Builder
	if err := c.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "series,t;s,P\nse;r,1,2.5\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestChartMinimumDimensions(t *testing.T) {
	c := NewChart("Tiny", "x", "y")
	s := c.AddSeries("s")
	s.Append(0, 0)
	s.Append(1, 1)
	var sb strings.Builder
	if err := c.RenderASCII(&sb, 1, 1); err != nil {
		t.Fatal(err)
	}
	if len(sb.String()) == 0 {
		t.Error("no output for minimum dimensions")
	}
}
