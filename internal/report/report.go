// Package report renders experiment outputs: aligned text tables, CSV, and
// ASCII line charts for time series and parameter sweeps. Every table and
// figure reproduced from the paper is ultimately emitted through this
// package, so cmd/ binaries and benchmarks share one look.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a titled grid of cells with a header row.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends a row. Short rows are padded with empty cells; long rows are
// an error surfaced at render time, so Add panics instead to fail fast.
func (t *Table) Add(cells ...string) {
	if len(cells) > len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table %q has %d columns", len(cells), t.Title, len(t.Columns)))
	}
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Addf appends a row of formatted cells: each argument is rendered with %v.
func (t *Table) Addf(cells ...any) {
	s := make([]string, len(cells))
	for i, c := range cells {
		s[i] = fmt.Sprintf("%v", c)
	}
	t.Add(s...)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if n := len([]rune(cell)); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len([]rune(cell))))
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (no quoting: cells are numeric or plain
// identifiers by construction; commas in cells are replaced).
func (t *Table) RenderCSV(w io.Writer) error {
	san := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	var b strings.Builder
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(san(c))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(san(cell))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Point is one (x, y) sample.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points.
type Series struct {
	Name   string
	Points []Point
}

// Append adds a point to the series.
func (s *Series) Append(x, y float64) {
	s.Points = append(s.Points, Point{x, y})
}

// Chart is a titled collection of series sharing axes — one paper figure.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewChart creates a chart.
func NewChart(title, xlabel, ylabel string) *Chart {
	return &Chart{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries appends a named series and returns it for appending points.
func (c *Chart) AddSeries(name string) *Series {
	s := &Series{Name: name}
	c.Series = append(c.Series, s)
	return s
}

// seriesGlyphs mark points of successive series in ASCII renderings.
var seriesGlyphs = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// RenderASCII draws the chart as an ASCII plot of the given interior width
// and height (minimums are enforced). Series overlap resolution: the
// later-added series wins the cell.
func (c *Chart) RenderASCII(w io.Writer, width, height int) error {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	var any bool
	for _, s := range c.Series {
		for _, p := range s.Points {
			any = true
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	if !any {
		_, err := fmt.Fprintf(w, "%s\n(no data)\n", c.Title)
		return err
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.Series {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		for _, p := range s.Points {
			x := int(math.Round((p.X - minX) / (maxX - minX) * float64(width-1)))
			y := int(math.Round((p.Y - minY) / (maxY - minY) * float64(height-1)))
			grid[height-1-y][x] = glyph
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", c.Title)
	for i, s := range c.Series {
		fmt.Fprintf(&b, "  [%c] %s\n", seriesGlyphs[i%len(seriesGlyphs)], s.Name)
	}
	fmt.Fprintf(&b, "%10.4g +%s\n", maxY, strings.Repeat("-", width))
	for _, row := range grid {
		fmt.Fprintf(&b, "%10s |%s\n", "", string(row))
	}
	fmt.Fprintf(&b, "%10.4g +%s\n", minY, strings.Repeat("-", width))
	fmt.Fprintf(&b, "%10s  %-10.4g%s%10.4g\n", c.YLabel, minX, centerPad(c.XLabel, width-20), maxX)
	_, err := io.WriteString(w, b.String())
	return err
}

func centerPad(s string, width int) string {
	if width < len(s) {
		return s
	}
	left := (width - len(s)) / 2
	return strings.Repeat(" ", left) + s + strings.Repeat(" ", width-len(s)-left)
}

// RenderCSV writes the chart as long-form CSV: series,x,y.
func (c *Chart) RenderCSV(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "series,%s,%s\n", strings.ReplaceAll(c.XLabel, ",", ";"), strings.ReplaceAll(c.YLabel, ",", ";"))
	for _, s := range c.Series {
		name := strings.ReplaceAll(s.Name, ",", ";")
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%g,%g\n", name, p.X, p.Y)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
