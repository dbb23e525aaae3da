package scenario

import (
	"strings"
	"testing"

	"coordcharge/internal/units"
)

// Case II (§II-D): every MSB jumps by more than 20 % and, building-wide,
// thousands of servers are capped (the paper reports more than ten thousand
// across the full building).
func TestCaseIIShape(t *testing.T) {
	res, err := RunCaseII(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxIncrease < 0.20 {
		t.Errorf("max per-MSB increase = %v, want >20%%", res.MaxIncrease)
	}
	if res.MaxIncrease > 0.40 {
		t.Errorf("max per-MSB increase = %v, implausibly high", res.MaxIncrease)
	}
	// ~900+ servers per MSB at the observed ~180 kW capping.
	if res.ServersCapped < 3*500 {
		t.Errorf("servers capped = %d, want ≥1500 for 3 MSBs", res.ServersCapped)
	}
	if len(res.Table.Rows) != 4 { // 3 MSBs + TOTAL
		t.Errorf("table rows = %d, want 4", len(res.Table.Rows))
	}
	var sb strings.Builder
	if err := res.Table.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "TOTAL") {
		t.Error("table missing TOTAL row")
	}
}

func TestCaseIIDefaultBuildingSize(t *testing.T) {
	// numMSB ≤ 0 selects the full 12-MSB building. Just validate the
	// default is applied through a tiny run (1 MSB requested explicitly
	// elsewhere; here check argument handling via the row count).
	res, err := RunCaseII(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Table.Rows))
	}
}

// cappedServers counts the equal half-draw cuts that cover a capping, and a
// server counts only when its cut lowers its draw in float arithmetic.
func TestCappedServers(t *testing.T) {
	for _, tc := range []struct {
		name          string
		n             int
		load, capping units.Power
		want          int
	}{
		// 100 servers of 200 W: each cut takes at most 100 W.
		{"zero capping", 100, 20 * units.Kilowatt, 0, 0},
		{"exact cuts", 100, 20 * units.Kilowatt, 300, 3},
		{"partial last cut", 100, 20 * units.Kilowatt, 350, 4},
		{"beyond every floor", 100, 20 * units.Kilowatt, 20 * units.Kilowatt, 100},
		// 1 kW servers: half an ulp of 1000 is about 5.7e-14 W, so
		// 1000-1e-14 rounds back to 1000 and the server is not capped.
		{"cut below half an ulp", 100, 100 * units.Kilowatt, 1e-14, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := cappedServers(tc.n, tc.load, tc.capping); got != tc.want {
				t.Errorf("cappedServers(%d, %v, %v) = %d, want %d", tc.n, tc.load, tc.capping, got, tc.want)
			}
		})
	}
}
