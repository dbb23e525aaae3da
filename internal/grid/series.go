package grid

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"coordcharge/internal/rng"
	"coordcharge/internal/units"
)

// Point is one step of a piecewise-constant grid signal: the signal holds
// value V from offset T (relative to run start) until the next point.
type Point struct {
	// T is the offset from run start at which V takes effect.
	T time.Duration
	// V is the signal value (watts for caps, $/MWh for price, gCO2/kWh for
	// carbon intensity).
	V float64
}

// Series is a validated piecewise-constant time series. The zero value is
// not usable; build one with NewSeries or a parser. A nil *Series means "no
// signal" everywhere it is accepted.
//
// Lookup is by binary search, so a Series carries no cursor state of its
// own — that is what keeps checkpoint/resume trivial: the effective value at
// a virtual time is a pure function of the spec, never of lookup history.
type Series struct {
	pts []Point
}

// NewSeries validates and builds a series. The rules are strict in the
// svc-ingestion style: at least one point, first offset >= 0, offsets
// strictly increasing, every value finite. Anything else is rejected rather
// than repaired — a grid feed with NaN holes or unsorted rows is a broken
// feed, and repairing it silently would make runs depend on repair policy.
func NewSeries(pts []Point) (*Series, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("grid: empty series")
	}
	if pts[0].T < 0 {
		return nil, fmt.Errorf("grid: series starts at negative offset %v", pts[0].T)
	}
	for i, p := range pts {
		if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
			return nil, fmt.Errorf("grid: non-finite value %v at point %d (t=%v)", p.V, i, p.T)
		}
		if i > 0 && p.T <= pts[i-1].T {
			return nil, fmt.Errorf("grid: series offsets not strictly increasing at point %d (%v after %v)",
				i, p.T, pts[i-1].T)
		}
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	return &Series{pts: cp}, nil
}

// At returns the signal value at offset t. Before the first point the first
// value holds (the signal is assumed already in effect at run start).
func (s *Series) At(t time.Duration) float64 {
	if s == nil || len(s.pts) == 0 {
		return 0
	}
	// First point whose offset is > t; the value in effect is the one before.
	i := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T > t })
	if i == 0 {
		return s.pts[0].V
	}
	return s.pts[i-1].V
}

// nextAfter returns the first breakpoint strictly after t, the offset at
// which At next changes value, or false when At holds from t on.
func (s *Series) nextAfter(t time.Duration) (time.Duration, bool) {
	if s == nil {
		return 0, false
	}
	i := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T > t })
	if i == len(s.pts) {
		return 0, false
	}
	return s.pts[i].T, true
}

// Len returns the number of steps in the series.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.pts)
}

// Points returns a copy of the series steps.
func (s *Series) Points() []Point {
	if s == nil {
		return nil
	}
	cp := make([]Point, len(s.pts))
	copy(cp, s.pts)
	return cp
}

// Max returns the largest value in the series (0 for a nil series).
func (s *Series) Max() float64 {
	if s == nil || len(s.pts) == 0 {
		return 0
	}
	m := s.pts[0].V
	for _, p := range s.pts[1:] {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Min returns the smallest value in the series (0 for a nil series).
func (s *Series) Min() float64 {
	if s == nil || len(s.pts) == 0 {
		return 0
	}
	m := s.pts[0].V
	for _, p := range s.pts[1:] {
		if p.V < m {
			m = p.V
		}
	}
	return m
}

// hash folds the series into a fingerprint hash. Bit-exact: values hash by
// their IEEE-754 bits, so two specs fingerprint equal iff lookups agree
// everywhere.
func (s *Series) hash(h io.Writer) {
	if s == nil {
		fmt.Fprint(h, "nil")
		return
	}
	for _, p := range s.pts {
		fmt.Fprintf(h, "%d:%016x;", int64(p.T), math.Float64bits(p.V))
	}
}

// Fingerprint returns a 64-bit FNV fingerprint of the series.
func (s *Series) Fingerprint() uint64 {
	h := fnv.New64a()
	s.hash(h)
	return h.Sum64()
}

// seriesHeader is the optional first line a CSV series file may carry.
const seriesHeader = "t_s,value"

// ParseSeriesCSV parses a two-column CSV series: `t_seconds,value` per
// line, offsets in seconds. Blank lines and `#` comments are skipped; an
// optional `t_s,value` header line is accepted. Validation is NewSeries'
// strict contract — NaN/Inf values, negative offsets, and unsorted rows are
// all rejected with the offending line number.
func ParseSeriesCSV(r io.Reader) (*Series, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var pts []Point
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if line == 1 && strings.EqualFold(strings.ReplaceAll(text, " ", ""), seriesHeader) {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("grid: line %d: want 2 fields `t_s,value`, got %d", line, len(parts))
		}
		secs, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("grid: line %d: bad offset %q: %v", line, parts[0], err)
		}
		if math.IsNaN(secs) || math.IsInf(secs, 0) {
			return nil, fmt.Errorf("grid: line %d: non-finite offset %q", line, parts[0])
		}
		if secs < 0 {
			return nil, fmt.Errorf("grid: line %d: negative offset %q", line, parts[0])
		}
		if secs > maxSeriesOffsetSeconds {
			return nil, fmt.Errorf("grid: line %d: offset %q beyond the %v bound", line, parts[0], maxSeriesOffset)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("grid: line %d: bad value %q: %v", line, parts[1], err)
		}
		pts = append(pts, Point{T: time.Duration(secs * float64(time.Second)), V: v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("grid: read series: %v", err)
	}
	return NewSeries(pts)
}

// maxSeriesOffset bounds series offsets to a year of virtual time: far
// enough for any endurance run, small enough that seconds-to-Duration
// conversion cannot overflow int64 nanoseconds.
const maxSeriesOffset = 365 * 24 * time.Hour

const maxSeriesOffsetSeconds = float64(maxSeriesOffset / time.Second)

// StepSeries builds a series from (offset, value) pairs laid out flat:
// StepSeries(0, 100, 3600*time.Second, 80) holds 100 on [0, 1h) and 80
// after. It panics on invalid input — it exists for tests and synthetic
// schedules whose shape is static.
func StepSeries(pairs ...interface{}) *Series {
	if len(pairs)%2 != 0 {
		panic("grid: StepSeries wants (time.Duration, float64) pairs")
	}
	pts := make([]Point, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		t, ok := pairs[i].(time.Duration)
		if !ok {
			panic(fmt.Sprintf("grid: StepSeries pair %d: offset is %T, want time.Duration", i/2, pairs[i]))
		}
		var v float64
		switch x := pairs[i+1].(type) {
		case float64:
			v = x
		case int:
			v = float64(x)
		case units.Power:
			v = float64(x)
		default:
			panic(fmt.Sprintf("grid: StepSeries pair %d: value is %T", i/2, pairs[i+1]))
		}
		pts = append(pts, Point{T: t, V: v})
	}
	s, err := NewSeries(pts)
	if err != nil {
		panic(err)
	}
	return s
}

// SynthPrice generates a seed-reproducible day-ahead-style energy price
// series: a diurnal double hump (morning and evening peaks) around base
// $/MWh with amplitude swing, plus bounded seeded noise, stepped at `step`
// over `horizon`. Deterministic: the same (seed, step, horizon, base,
// swing) always yields the identical series.
func SynthPrice(seed int64, step, horizon time.Duration, base, swing float64) (*Series, error) {
	return synthDiurnal(seed, step, horizon, base, swing, 0)
}

// SynthCarbon generates a seed-reproducible grid carbon-intensity series in
// gCO2/kWh: an inverted solar bowl (dirty overnight, clean midday) around
// base with amplitude swing, plus bounded seeded noise. Values clamp at 0 —
// negative carbon intensity is meaningless even where negative prices are
// not.
func SynthCarbon(seed int64, step, horizon time.Duration, base, swing float64) (*Series, error) {
	return synthDiurnal(seed, step, horizon, base, -swing, 0)
}

// synthDiurnal is the shared diurnal generator. A positive swing peaks in
// the morning/evening (price shape); a negative swing peaks overnight
// (carbon shape). floor clamps generated values from below.
func synthDiurnal(seed int64, step, horizon time.Duration, base, swing, floor float64) (*Series, error) {
	if step <= 0 {
		return nil, fmt.Errorf("grid: synth step %v not positive", step)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("grid: synth horizon %v not positive", horizon)
	}
	if horizon > maxSeriesOffset {
		return nil, fmt.Errorf("grid: synth horizon %v beyond the %v bound", horizon, maxSeriesOffset)
	}
	if math.IsNaN(base) || math.IsInf(base, 0) || math.IsNaN(swing) || math.IsInf(swing, 0) {
		return nil, fmt.Errorf("grid: non-finite synth base/swing")
	}
	if horizon/step > 1<<20 {
		return nil, fmt.Errorf("grid: synth series too long (%d steps)", horizon/step)
	}
	src := rng.New(seed)
	var pts []Point
	for t := time.Duration(0); t <= horizon; t += step {
		day := math.Mod(t.Hours(), 24) / 24 // [0,1) position in the day
		// Double hump at ~08:00 and ~19:00 when swing > 0; its negation is
		// the overnight-dirty carbon shape.
		shape := math.Sin(2*math.Pi*day-math.Pi/2) + 0.5*math.Sin(4*math.Pi*day)
		v := base + swing*0.5*shape + swing*0.15*src.Uniform(-1, 1)
		if v < floor {
			v = floor
		}
		pts = append(pts, Point{T: t, V: v})
	}
	return NewSeries(pts)
}
