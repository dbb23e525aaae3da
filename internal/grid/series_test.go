package grid

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSeriesAtPiecewise(t *testing.T) {
	s, err := NewSeries([]Point{{0, 100}, {time.Hour, 80}, {2 * time.Hour, 120}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 100},
		{30 * time.Minute, 100},
		{time.Hour, 80},
		{90 * time.Minute, 80},
		{2 * time.Hour, 120},
		{48 * time.Hour, 120},
	}
	for _, c := range cases {
		if got := s.At(c.at); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestSeriesHoldsFirstValueBeforeStart(t *testing.T) {
	s, err := NewSeries([]Point{{10 * time.Minute, 42}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(0); got != 42 {
		t.Fatalf("At(0) before first point = %v, want 42", got)
	}
}

func TestNewSeriesRejects(t *testing.T) {
	cases := []struct {
		name string
		pts  []Point
	}{
		{"empty", nil},
		{"negative-offset", []Point{{-time.Second, 1}}},
		{"nan", []Point{{0, math.NaN()}}},
		{"posinf", []Point{{0, math.Inf(1)}}},
		{"neginf", []Point{{0, math.Inf(-1)}}},
		{"unsorted", []Point{{time.Hour, 1}, {time.Minute, 2}}},
		{"duplicate-offset", []Point{{time.Minute, 1}, {time.Minute, 2}}},
	}
	for _, c := range cases {
		if _, err := NewSeries(c.pts); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestParseSeriesCSV(t *testing.T) {
	in := "t_s,value\n# day-ahead\n0, 40.5\n3600,95\n\n7200,-12\n"
	s, err := ParseSeriesCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if got := s.At(30 * time.Minute); got != 40.5 {
		t.Fatalf("At(30m) = %v, want 40.5", got)
	}
	if got := s.At(2 * time.Hour); got != -12 {
		t.Fatalf("At(2h) = %v, want -12 (negative prices are legal)", got)
	}
}

func TestParseSeriesCSVRejects(t *testing.T) {
	cases := map[string]string{
		"nan-value":       "0,nan\n",
		"inf-value":       "0,+Inf\n",
		"negative-offset": "-5,10\n",
		"nan-offset":      "nan,10\n",
		"unsorted":        "100,1\n50,2\n",
		"three-fields":    "0,1,2\n",
		"garbage":         "hello\n",
		"huge-offset":     "1e300,1\n",
		"empty":           "# only comments\n",
	}
	for name, in := range cases {
		if _, err := ParseSeriesCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestSynthDeterministic(t *testing.T) {
	a, err := SynthPrice(7, 15*time.Minute, 24*time.Hour, 60, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SynthPrice(7, 15*time.Minute, 24*time.Hour, 60, 40)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same seed produced different synthetic price series")
	}
	c, err := SynthPrice(8, 15*time.Minute, 24*time.Hour, 60, 40)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds produced identical series")
	}
	carbon, err := SynthCarbon(7, 15*time.Minute, 24*time.Hour, 400, 300)
	if err != nil {
		t.Fatal(err)
	}
	if carbon.Min() < 0 {
		t.Fatalf("synthetic carbon intensity went negative: %v", carbon.Min())
	}
}
