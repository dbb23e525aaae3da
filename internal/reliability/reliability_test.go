package reliability

import (
	"math"
	"sort"
	"testing"
	"time"
)

func TestFailureTypeString(t *testing.T) {
	want := map[FailureType]string{
		UtilityFailure:        "utility failure",
		CorrectiveMaintenance: "corrective maintenance",
		AnnualMaintenance:     "annual maintenance",
		PowerOutage:           "power outage",
		FailureType(9):        "FailureType(9)",
	}
	for f, w := range want {
		if got := f.String(); got != w {
			t.Errorf("%d.String() = %q, want %q", int(f), got, w)
		}
	}
}

func TestTableIShape(t *testing.T) {
	rows := TableI()
	if len(rows) != 11 {
		t.Fatalf("Table I has %d rows, want 11", len(rows))
	}
	counts := map[FailureType]int{}
	for _, r := range rows {
		counts[r.Type]++
		if r.MTBFHours <= 0 || r.MTTRHours <= 0 {
			t.Errorf("row %s has non-positive times", r.Name)
		}
	}
	if counts[UtilityFailure] != 1 || counts[CorrectiveMaintenance] != 4 ||
		counts[AnnualMaintenance] != 3 || counts[PowerOutage] != 3 {
		t.Errorf("row distribution = %v", counts)
	}
	// Spot values from the paper.
	if rows[0].MTBFHours != 6.39e3 || rows[0].MTTRHours != 0.6 {
		t.Errorf("utility row = %+v", rows[0])
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	if _, err := NewSimulator(nil, 1); err == nil {
		t.Error("empty component list accepted")
	}
	bad := []Component{{"x", UtilityFailure, 0, 1}}
	if _, err := NewSimulator(bad, 1); err == nil {
		t.Error("zero MTBF accepted")
	}
}

func TestDisruptionsSortedAndBounded(t *testing.T) {
	s, err := NewSimulator(TableI(), 42)
	if err != nil {
		t.Fatal(err)
	}
	const years = 500
	ds := s.Disruptions(years)
	if !sort.SliceIsSorted(ds, func(i, j int) bool { return ds[i].Start < ds[j].Start }) {
		t.Error("disruptions not sorted by start")
	}
	for _, d := range ds {
		if d.End < d.Start {
			t.Fatalf("inverted disruption %+v", d)
		}
		if d.Start < 0 {
			t.Fatalf("negative start %+v", d)
		}
	}
	// Expected event rate: ~4.8 failures/yr, most producing two transitions
	// → ~9.6 disruptions/yr.
	perYear := float64(len(ds)) / years
	if perYear < 7 || perYear < 0 || perYear > 13 {
		t.Errorf("disruptions per year = %.1f, want ~9.6", perYear)
	}
}

func TestDisruptionDeterminism(t *testing.T) {
	a, _ := NewSimulator(TableI(), 7)
	b, _ := NewSimulator(TableI(), 7)
	da, db := a.Disruptions(100), b.Disruptions(100)
	if len(da) != len(db) {
		t.Fatalf("same seed different lengths: %d vs %d", len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}

func TestAORNoDisruptionsIsOne(t *testing.T) {
	if got := AOR(nil, time.Hour, 10); got != 1 {
		t.Errorf("AOR with no disruptions = %v, want 1", got)
	}
}

func TestAORSingleOutageArithmetic(t *testing.T) {
	// One 2-hour outage plus a 1-hour charge in a 1-year horizon.
	ds := []Disruption{{100, 102}}
	aor := AOR(ds, time.Hour, 1)
	want := 1 - 3.0/8760
	if math.Abs(float64(aor)-want) > 1e-12 {
		t.Errorf("AOR = %v, want %v", aor, want)
	}
}

func TestAORMergesOverlappingRecharges(t *testing.T) {
	// Two disruptions 30 minutes apart with a 1-hour charge: the second
	// arrives mid-recharge, so the union is [100, 100.51+1], not 2×(1+ε).
	ds := []Disruption{{100, 100.01}, {100.5, 100.51}}
	aor := AOR(ds, time.Hour, 1)
	want := 1 - (100.51+1-100)/8760
	if math.Abs(float64(aor)-want) > 1e-9 {
		t.Errorf("AOR = %v, want %v", aor, want)
	}
}

func TestAORClipsAtHorizon(t *testing.T) {
	// Disruption near the end of the horizon: the recharge tail beyond the
	// horizon must not count.
	horizonYears := 1.0
	ds := []Disruption{{8759.5, 8759.6}}
	aor := AOR(ds, 10*time.Hour, horizonYears)
	want := 1 - 0.5/8760
	if math.Abs(float64(aor)-want) > 1e-9 {
		t.Errorf("AOR = %v, want %v", aor, want)
	}
}

// Fig 9a: AOR decreases (roughly linearly) as charging time increases, in
// the 99.8–99.97% band the paper reports.
func TestFig9aShape(t *testing.T) {
	s, _ := NewSimulator(TableI(), 1)
	var cts []time.Duration
	for m := 15; m <= 120; m += 15 {
		cts = append(cts, time.Duration(m)*time.Minute)
	}
	pts := s.Sweep(20000, cts)
	for i, p := range pts {
		if p.AOR < 0.997 || p.AOR > 0.9999 {
			t.Errorf("AOR(%v) = %v, outside the paper's band", p.ChargeTime, p.AOR)
		}
		if i > 0 && p.AOR >= pts[i-1].AOR {
			t.Errorf("AOR not decreasing at %v: %v then %v", p.ChargeTime, pts[i-1].AOR, p.AOR)
		}
	}
	// Linearity check: the marginal AOR loss per 15 min is roughly constant
	// (each extra minute of charging converts 1:1 into unavailability).
	d1 := float64(pts[1].AOR - pts[0].AOR)
	dn := float64(pts[len(pts)-1].AOR - pts[len(pts)-2].AOR)
	if math.Abs(d1-dn) > 0.35*math.Abs(d1) {
		t.Errorf("AOR slope varies too much: first step %v, last step %v", d1, dn)
	}
}

// Table II: the 30/60/90-minute SLAs land near 99.94%/99.90%/99.85% AOR
// (5.26/8.76/13.14 h/yr loss of redundancy).
func TestTableIIAnchors(t *testing.T) {
	s, _ := NewSimulator(TableI(), 3)
	rows := s.TableII(20000)
	if len(rows) != 3 {
		t.Fatalf("Table II rows = %d", len(rows))
	}
	wantLoss := []float64{5.26, 8.76, 13.14}
	for i, row := range rows {
		if math.Abs(row.LossHoursPerYear-wantLoss[i])/wantLoss[i] > 0.30 {
			t.Errorf("%s loss = %.2f h/yr, want within 30%% of %.2f", row.Priority, row.LossHoursPerYear, wantLoss[i])
		}
		if row.AOR < 0.9975 || row.AOR > 0.9997 {
			t.Errorf("%s AOR = %v, implausible", row.Priority, row.AOR)
		}
	}
	if rows[0].AOR <= rows[1].AOR || rows[1].AOR <= rows[2].AOR {
		t.Error("AOR not ordered P1 > P2 > P3")
	}
}

func TestSweepSharedStreamMonotoneProperty(t *testing.T) {
	// Within one sweep (shared disruption stream) AOR is strictly
	// nonincreasing in charge time, for any seed.
	for seed := int64(0); seed < 5; seed++ {
		s, _ := NewSimulator(TableI(), seed)
		cts := []time.Duration{10 * time.Minute, 30 * time.Minute, time.Hour, 2 * time.Hour}
		pts := s.Sweep(1000, cts)
		for i := 1; i < len(pts); i++ {
			if pts[i].AOR > pts[i-1].AOR {
				t.Fatalf("seed %d: AOR increased with charge time", seed)
			}
		}
		for _, p := range pts {
			if p.AOR < 0 || p.AOR > 1 {
				t.Fatalf("seed %d: AOR out of [0,1]: %v", seed, p.AOR)
			}
		}
	}
}

func TestOutageDominatedByRepairTime(t *testing.T) {
	// A component that only produces outages: unavailability ≈ (MTTR +
	// charge)/(MTBF) for MTTR ≫ charge.
	comp := []Component{{"X", PowerOutage, 1000, 10}}
	s, _ := NewSimulator(comp, 5)
	pts := s.Sweep(20000, []time.Duration{time.Hour})
	wantLoss := (10.0 + 1) / 1000 * hoursPerYear
	if math.Abs(pts[0].LossHoursPerYear-wantLoss)/wantLoss > 0.15 {
		t.Errorf("outage loss = %.1f h/yr, want ~%.1f", pts[0].LossHoursPerYear, wantLoss)
	}
}

func TestBreakdownAttribution(t *testing.T) {
	s, _ := NewSimulator(TableI(), 9)
	const years = 5000
	rows := s.Breakdown(years, 30*time.Minute)
	if len(rows) != 11 {
		t.Fatalf("breakdown rows = %d, want 11", len(rows))
	}
	var sum float64
	byName := map[string]ComponentLoss{}
	for _, r := range rows {
		if r.LossHoursPerYear < 0 {
			t.Errorf("%s negative loss", r.Component.Name)
		}
		sum += r.LossHoursPerYear
		if r.Component.Type == UtilityFailure {
			byName["utility"] = r
		}
	}
	// The sum of per-component losses approximates the joint loss (overlaps
	// are rare), which at 30 min charge time is ~5 hr/yr.
	s2, _ := NewSimulator(TableI(), 9)
	joint := s2.TableII(years)[0].LossHoursPerYear
	if sum < joint*0.95 || sum > joint*1.10 {
		t.Errorf("breakdown sum %.2f vs joint %.2f hr/yr", sum, joint)
	}
	// Utility failures are the most frequent event class (~1.4/yr).
	u := byName["utility"]
	if u.EventsPerYear < 1.1 || u.EventsPerYear > 1.7 {
		t.Errorf("utility events/yr = %.2f, want ~1.37", u.EventsPerYear)
	}
	// Annual maintenance happens ~1/yr per component.
	for _, r := range rows {
		if r.Component.Type == AnnualMaintenance {
			if r.EventsPerYear < 0.9 || r.EventsPerYear > 1.1 {
				t.Errorf("%s annual events/yr = %.2f", r.Component.Name, r.EventsPerYear)
			}
		}
	}
}

func TestAnnualMaintenanceRate(t *testing.T) {
	// An annual component produces ~1 failure → 2 disruptions per year.
	comp := []Component{{"MSB", AnnualMaintenance, 8760, 5}}
	s, _ := NewSimulator(comp, 5)
	ds := s.Disruptions(2000)
	perYear := float64(len(ds)) / 2000
	if math.Abs(perYear-2) > 0.15 {
		t.Errorf("annual maintenance disruptions/yr = %.2f, want ~2", perYear)
	}
}
