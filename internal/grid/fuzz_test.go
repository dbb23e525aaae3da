package grid

import (
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzGridSeries hardens the grid series parser against arbitrary feeds:
// it may not panic, and any accepted series must satisfy the NewSeries
// contract — non-empty, offsets non-negative and strictly increasing, every
// value finite. NaN/Inf values, negative offsets, and unsorted rows must all
// be rejected.
func FuzzGridSeries(f *testing.F) {
	// Valid seeds.
	f.Add("0,40.5\n3600,95\n7200,-12\n")
	f.Add("t_s,value\n0,205000\n600,143500\n")
	f.Add("# comment\n\n0,1\n")
	// Malformed seeds.
	f.Add("0,nan\n")
	f.Add("0,+Inf\n")
	f.Add("-5,10\n")
	f.Add("100,1\n50,2\n")
	f.Add("10,1\n10,2\n")
	f.Add("0,1,2\n")
	f.Add("1e300,1\n")
	f.Add("0;1\n")
	// Edge cases of the CSV reader itself.
	f.Add("")
	f.Add("t_s,value\n")
	f.Add("0,1\r\n60,2\r\n")
	f.Add("0,1\nt_s,value\n")
	f.Add("0,1e309\n")
	f.Add("31536001,1\n")
	f.Add("0.5,1\n0.5000000001,2\n")

	check := func(t *testing.T, in string, s *Series) {
		if s == nil || s.Len() == 0 {
			t.Fatalf("accepted %q but returned an empty series", in)
		}
		prev := time.Duration(-1)
		for _, p := range s.Points() {
			if p.T < 0 {
				t.Fatalf("accepted %q with negative offset %v", in, p.T)
			}
			if p.T <= prev {
				t.Fatalf("accepted %q with non-increasing offsets", in)
			}
			prev = p.T
			if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
				t.Fatalf("accepted %q with non-finite value %v", in, p.V)
			}
		}
		// Lookup must be total and finite over the whole span.
		for _, at := range []time.Duration{0, prev / 2, prev, prev + time.Hour} {
			v := s.At(at)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("At(%v) on accepted %q is non-finite", at, in)
			}
		}
	}

	f.Fuzz(func(t *testing.T, in string) {
		if s, err := ParseSeriesCSV(strings.NewReader(in)); err == nil {
			check(t, in, s)
		}
	})
}
