package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"coordcharge/internal/units"
)

func defaultGen(t *testing.T) *Generator {
	t.Helper()
	g, err := NewGenerator(Spec{NumRacks: 316, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSpecDefaults(t *testing.T) {
	g := defaultGen(t)
	sp := g.Spec()
	if sp.Duration != 7*24*time.Hour {
		t.Errorf("default duration = %v", sp.Duration)
	}
	if sp.TroughPower != 1.9*units.Megawatt || sp.PeakPower != 2.1*units.Megawatt {
		t.Errorf("default envelope = [%v, %v]", sp.TroughPower, sp.PeakPower)
	}
	if sp.DiurnalPeriod != 24*time.Hour {
		t.Errorf("default period = %v", sp.DiurnalPeriod)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{NumRacks: 0},
		{NumRacks: 10, Duration: -time.Hour},
		{NumRacks: 10, TroughPower: 2 * units.Megawatt, PeakPower: 1 * units.Megawatt},
		{NumRacks: 10, NoiseFrac: 0.9},
	}
	for i, s := range bad {
		if _, err := NewGenerator(s); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
}

// Fig 12: the aggregate oscillates diurnally between ~1.9 and ~2.1 MW.
func TestFig12AggregateEnvelope(t *testing.T) {
	g := defaultGen(t)
	st := AggregateStats(g, 0, 7*24*time.Hour, 10*time.Minute)
	if st.Min < 1.85*units.Megawatt || st.Min > 1.95*units.Megawatt {
		t.Errorf("aggregate min = %v, want ~1.9 MW", st.Min)
	}
	if st.Max < 2.05*units.Megawatt || st.Max > 2.15*units.Megawatt {
		t.Errorf("aggregate max = %v, want ~2.1 MW", st.Max)
	}
	if st.Mean < st.Min || st.Mean > st.Max {
		t.Errorf("mean %v outside [min, max]", st.Mean)
	}
}

func TestDiurnalPeriodicity(t *testing.T) {
	g := defaultGen(t)
	// Aggregate at peak time each day stays near the peak; troughs 12 h
	// later stay near the trough.
	for day := 0; day < 7; day++ {
		peakT := 14*time.Hour + time.Duration(day)*24*time.Hour
		troughT := peakT + 12*time.Hour
		if troughT > 7*24*time.Hour {
			break
		}
		peak := Aggregate(g, peakT)
		trough := Aggregate(g, troughT)
		if peak < 2.0*units.Megawatt {
			t.Errorf("day %d peak = %v, want ≥2.0 MW", day, peak)
		}
		if trough > 2.0*units.Megawatt {
			t.Errorf("day %d trough = %v, want <2.0 MW", day, trough)
		}
	}
}

func TestFirstPeakNearPeakTime(t *testing.T) {
	g := defaultGen(t)
	p := FirstPeak(g, 24*time.Hour, time.Minute)
	if p < 12*time.Hour || p > 16*time.Hour {
		t.Errorf("first peak at %v, want ~14 h", p)
	}
}

func TestPerRackBounds(t *testing.T) {
	g := defaultGen(t)
	for _, tm := range []time.Duration{0, 6 * time.Hour, 14 * time.Hour, 50 * time.Hour} {
		for i := 0; i < g.NumRacks(); i++ {
			p := g.Rack(i, tm)
			if p < 0 || p > 12600*units.Watt {
				t.Fatalf("rack %d at %v draws %v, outside [0, 12.6 kW]", i, tm, p)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := NewGenerator(Spec{NumRacks: 20, Seed: 7})
	b, _ := NewGenerator(Spec{NumRacks: 20, Seed: 7})
	c, _ := NewGenerator(Spec{NumRacks: 20, Seed: 8})
	var diff bool
	for i := 0; i < 20; i++ {
		for _, tm := range []time.Duration{0, time.Hour, 30 * time.Hour} {
			if a.Rack(i, tm) != b.Rack(i, tm) {
				t.Fatalf("same seed diverged at rack %d t=%v", i, tm)
			}
			if a.Rack(i, tm) != c.Rack(i, tm) {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical traces")
	}
}

func TestSmoothnessAt3s(t *testing.T) {
	// Between adjacent 3-second ticks a rack's power moves by well under 5%
	// of its level: the trace is smooth at simulation granularity.
	g := defaultGen(t)
	for i := 0; i < 50; i++ {
		prev := g.Rack(i, 13*time.Hour)
		for k := 1; k < 200; k++ {
			cur := g.Rack(i, 13*time.Hour+time.Duration(k)*3*time.Second)
			if delta := math.Abs(float64(cur - prev)); delta > 0.05*float64(prev)+50 {
				t.Fatalf("rack %d jumped %v W between ticks", i, delta)
			}
			prev = cur
		}
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	g, _ := NewGenerator(Spec{NumRacks: 5, Seed: 3})
	m, err := Materialize(g, time.Hour, time.Hour+time.Minute, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRacks() != 5 || m.Samples() != 21 || m.Step() != 3*time.Second {
		t.Fatalf("materialized shape: racks=%d samples=%d step=%v", m.NumRacks(), m.Samples(), m.Step())
	}
	// Values agree with the generator at sample instants.
	for i := 0; i < 5; i++ {
		for k := 0; k < 21; k++ {
			tm := time.Hour + time.Duration(k)*3*time.Second
			if m.Rack(i, tm) != g.Rack(i, tm) {
				t.Fatalf("materialized value differs at rack %d tick %d", i, k)
			}
		}
	}
	// Clamping outside the window.
	if m.Rack(0, 0) != m.Rack(0, time.Hour) {
		t.Error("pre-window access did not clamp to first sample")
	}
	if m.Rack(0, 10*time.Hour) != m.Rack(0, time.Hour+time.Minute) {
		t.Error("post-window access did not clamp to last sample")
	}
}

func TestMaterializeErrors(t *testing.T) {
	g, _ := NewGenerator(Spec{NumRacks: 2, Seed: 3})
	if _, err := Materialize(g, 0, time.Hour, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := Materialize(g, time.Hour, 0, time.Second); err == nil {
		t.Error("inverted window accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	g, _ := NewGenerator(Spec{NumRacks: 4, Seed: 9})
	m, err := Materialize(g, 0, 30*time.Second, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRacks() != 4 || back.Samples() != m.Samples() || back.Step() != 3*time.Second {
		t.Fatalf("round-trip shape: racks=%d samples=%d step=%v", back.NumRacks(), back.Samples(), back.Step())
	}
	for i := 0; i < 4; i++ {
		for k := 0; k < m.Samples(); k++ {
			tm := time.Duration(k) * 3 * time.Second
			a, b := float64(m.Rack(i, tm)), float64(back.Rack(i, tm))
			if math.Abs(a-b) > 0.1 { // CSV rounds to 0.1 W
				t.Fatalf("round-trip value differs at rack %d tick %d: %v vs %v", i, k, a, b)
			}
		}
	}
}

func TestReadCSVRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"too short":       "seconds,rack0\n0,5\n",
		"no racks":        "seconds\n0\n3\n6\n",
		"bad value":       "seconds,rack0\n0,x\n3,5\n",
		"negative":        "seconds,rack0\n0,-5\n3,5\n",
		"non-uniform":     "seconds,rack0\n0,5\n3,5\n7,5\n",
		"bad timestamp":   "seconds,rack0\nx,5\n3,5\n",
		"zero step":       "seconds,rack0\n0,5\n0,5\n",
		"ragged (csvlib)": "seconds,rack0\n0,5\n3,5,9\n",
	}
	for name, data := range cases {
		if _, err := ReadCSV(strings.NewReader(data)); err == nil {
			t.Errorf("%s: ReadCSV accepted malformed input", name)
		}
	}
}

func TestWeekendLevelDampsPeaks(t *testing.T) {
	damped, err := NewGenerator(Spec{NumRacks: 100, Seed: 4, WeekendLevel: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	flat, _ := NewGenerator(Spec{NumRacks: 100, Seed: 4})
	// Weekday peaks (day 0, hour 14) are identical; weekend peaks (day 5)
	// are shallower.
	weekday := 14 * time.Hour
	weekend := 5*24*time.Hour + 14*time.Hour
	if a, b := Aggregate(damped, weekday), Aggregate(flat, weekday); a != b {
		t.Errorf("weekday aggregate differs: %v vs %v", a, b)
	}
	a, b := Aggregate(damped, weekend), Aggregate(flat, weekend)
	if a >= b {
		t.Errorf("weekend peak not damped: %v vs %v", a, b)
	}
	// Troughs are unaffected by the swing scale.
	trough := 5*24*time.Hour + 2*time.Hour
	at, bt := Aggregate(damped, trough), Aggregate(flat, trough)
	if math.Abs(float64(at-bt)) > float64(bt)*0.02 {
		t.Errorf("weekend trough moved: %v vs %v", at, bt)
	}
}

func TestWeekendLevelValidation(t *testing.T) {
	if _, err := NewGenerator(Spec{NumRacks: 5, WeekendLevel: -0.5}); err == nil {
		t.Error("negative WeekendLevel accepted")
	}
	if _, err := NewGenerator(Spec{NumRacks: 5, WeekendLevel: 1.5}); err == nil {
		t.Error("WeekendLevel > 1 accepted")
	}
}

func TestSwingScaleHeterogeneousProfiles(t *testing.T) {
	const n = 100
	scale := make([]float64, n)
	for i := range scale {
		if i < n/2 {
			scale[i] = 0.2 // stateful: flat
		} else {
			scale[i] = 1.8 // stateless web: strongly diurnal
		}
	}
	// An envelope the 100-rack population can actually carry (~6 kW/rack).
	g, err := NewGenerator(Spec{
		NumRacks: n, Seed: 6, SwingScale: scale, NoiseFrac: 0.001,
		TroughPower: 600 * units.Kilowatt, PeakPower: 663 * units.Kilowatt,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The aggregate envelope is preserved despite heterogeneous weights.
	st := AggregateStats(g, 0, 48*time.Hour, 10*time.Minute)
	if st.Min < 585*units.Kilowatt || st.Max > 680*units.Kilowatt || st.Max < 645*units.Kilowatt {
		t.Errorf("envelope with SwingScale = [%v, %v]", st.Min, st.Max)
	}
	// Flat racks vary much less between trough and peak than web racks.
	ratio := func(i int) float64 {
		peak := float64(g.Rack(i, 14*time.Hour))
		trough := float64(g.Rack(i, 2*time.Hour))
		return peak / trough
	}
	flat, web := ratio(0), ratio(n-1)
	if flat > 1.06 {
		t.Errorf("flat rack peak/trough = %v, want ≈1", flat)
	}
	if web < 1.12 {
		t.Errorf("web rack peak/trough = %v, want strongly diurnal", web)
	}
}

func TestSwingScaleValidation(t *testing.T) {
	if _, err := NewGenerator(Spec{NumRacks: 3, SwingScale: []float64{1, 1}}); err == nil {
		t.Error("wrong-length SwingScale accepted")
	}
	if _, err := NewGenerator(Spec{NumRacks: 2, SwingScale: []float64{1, -1}}); err == nil {
		t.Error("negative SwingScale accepted")
	}
	if _, err := NewGenerator(Spec{NumRacks: 2, SwingScale: []float64{0, 0}}); err == nil {
		t.Error("all-zero SwingScale accepted")
	}
}

func TestSwingScaleUniformMatchesDefault(t *testing.T) {
	uniform := []float64{1, 1, 1, 1}
	a, _ := NewGenerator(Spec{NumRacks: 4, Seed: 2, SwingScale: uniform})
	b, _ := NewGenerator(Spec{NumRacks: 4, Seed: 2})
	for i := 0; i < 4; i++ {
		for _, tm := range []time.Duration{0, 7 * time.Hour, 30 * time.Hour} {
			if av, bv := a.Rack(i, tm), b.Rack(i, tm); math.Abs(float64(av-bv)) > 1e-6 {
				t.Fatalf("uniform SwingScale diverged from default at rack %d t=%v: %v vs %v", i, tm, av, bv)
			}
		}
	}
}

func TestAggregateStatsEmptyWindow(t *testing.T) {
	g, _ := NewGenerator(Spec{NumRacks: 2, Seed: 1})
	st := AggregateStats(g, time.Hour, time.Hour, time.Minute)
	if st.Samples != 1 {
		t.Errorf("single-instant stats samples = %d, want 1", st.Samples)
	}
	if st.Min != st.Max || st.Min != st.Mean {
		t.Errorf("single-sample stats inconsistent: %+v", st)
	}
}
