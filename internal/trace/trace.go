// Package trace synthesizes and replays per-rack power traces.
//
// The paper's coordinated-charging evaluation replays a production rack
// power trace collected at 3-second granularity for 316 racks under one MSB,
// whose weekly aggregate oscillates diurnally between 1.9 MW and 2.1 MW
// (Fig 12). Production traces are proprietary, so this package generates a
// seeded synthetic equivalent shaped to the same envelope: per-rack base
// loads, a coherent diurnal swing, and incoherent per-rack noise that
// averages out in the aggregate. Real traces can be substituted through the
// CSV reader; everything downstream consumes the Source interface.
package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"coordcharge/internal/rng"
	"coordcharge/internal/units"
)

// Source is a replayable per-rack power trace.
type Source interface {
	// NumRacks returns the number of racks in the trace.
	NumRacks() int
	// Rack returns rack i's power draw at virtual time t.
	Rack(i int, t time.Duration) units.Power
}

// FrameSource is a Source that can materialise whole blocks of frames at
// once, amortising per-tick work (time decomposition, coherent diurnal
// terms) across the rack population. Implementations must produce exactly
// the same values as per-call Rack — frame precomputation is a performance
// path, never a semantic one.
type FrameSource interface {
	Source
	// Frames fills dst with NumFrames(from, to, step)·NumRacks() samples in
	// frame-major order: frame k's rack i lands at dst[k·NumRacks()+i],
	// where frame k is virtual time from+k·step. dst is reused when its
	// capacity suffices; the filled slice is returned.
	Frames(dst []units.Power, from, to, step time.Duration) []units.Power
}

// NumFrames returns the number of ticks a [from, to] window holds at the
// given step (both endpoints inclusive, matching `for t := from; t <= to`
// loops). Zero when the window is empty or the step non-positive.
func NumFrames(from, to, step time.Duration) int {
	if step <= 0 || to < from {
		return 0
	}
	return int((to-from)/step) + 1
}

// Frames materialises a block of frames from any Source, using the native
// block implementation when the source provides one and falling back to
// per-call Rack otherwise. Layout and reuse semantics match FrameSource.
func Frames(s Source, dst []units.Power, from, to, step time.Duration) []units.Power {
	if fs, ok := s.(FrameSource); ok {
		return fs.Frames(dst, from, to, step)
	}
	n := s.NumRacks()
	dst = growFrames(dst, NumFrames(from, to, step)*n)
	for k := 0; k*n < len(dst); k++ {
		t := from + time.Duration(k)*step
		row := dst[k*n : (k+1)*n]
		for i := range row {
			row[i] = s.Rack(i, t)
		}
	}
	return dst
}

// growFrames returns dst resized to n samples, reallocating only when the
// existing capacity is too small.
func growFrames(dst []units.Power, n int) []units.Power {
	if cap(dst) < n {
		return make([]units.Power, n)
	}
	return dst[:n]
}

// Aggregate sums all racks of a source at time t.
func Aggregate(s Source, t time.Duration) units.Power {
	var total units.Power
	for i := 0; i < s.NumRacks(); i++ {
		total += s.Rack(i, t)
	}
	return total
}

// Spec parameterises the synthetic generator.
type Spec struct {
	// NumRacks is the rack population (the paper's MSB: 316).
	NumRacks int
	// Duration is the trace length (default one week).
	Duration time.Duration
	// TroughPower and PeakPower bound the aggregate diurnal envelope
	// (defaults 1.9 MW and 2.1 MW, the Fig 12 range).
	TroughPower units.Power
	PeakPower   units.Power
	// DiurnalPeriod is the cycle length (default 24 h).
	DiurnalPeriod time.Duration
	// PeakTime is the virtual time of the first aggregate peak (default 14 h).
	PeakTime time.Duration
	// NoiseFrac is the per-rack noise amplitude as a fraction of base load
	// (default 0.05). Noise is incoherent across racks.
	NoiseFrac float64
	// WeekendLevel scales the diurnal swing on days 6 and 7 of each week
	// (weekend traffic dips). 1 (the default) disables the effect; 0.7
	// makes weekend peaks 30 % shallower.
	WeekendLevel float64
	// SwingScale optionally weights each rack's diurnal swing (stateful
	// database racks are flatter than stateless web tiers). Length must be
	// zero (uniform) or NumRacks; weights must be non-negative and not all
	// zero. The global swing renormalises so the aggregate envelope still
	// spans [TroughPower, PeakPower].
	SwingScale []float64
	// Seed makes the generator deterministic.
	Seed int64
}

func (s *Spec) fillDefaults() error {
	if s.NumRacks <= 0 {
		return fmt.Errorf("trace: NumRacks must be positive, got %d", s.NumRacks)
	}
	if s.Duration == 0 {
		s.Duration = 7 * 24 * time.Hour
	}
	if s.Duration < 0 {
		return fmt.Errorf("trace: negative duration %v", s.Duration)
	}
	if s.TroughPower == 0 {
		s.TroughPower = 1.9 * units.Megawatt
	}
	if s.PeakPower == 0 {
		s.PeakPower = 2.1 * units.Megawatt
	}
	if s.PeakPower < s.TroughPower {
		return fmt.Errorf("trace: peak %v below trough %v", s.PeakPower, s.TroughPower)
	}
	if s.DiurnalPeriod == 0 {
		s.DiurnalPeriod = 24 * time.Hour
	}
	if s.PeakTime == 0 {
		s.PeakTime = 14 * time.Hour
	}
	if s.NoiseFrac == 0 {
		s.NoiseFrac = 0.05
	}
	if s.NoiseFrac < 0 || s.NoiseFrac > 0.5 {
		return fmt.Errorf("trace: NoiseFrac %v out of [0, 0.5]", s.NoiseFrac)
	}
	if s.WeekendLevel == 0 {
		s.WeekendLevel = 1
	}
	if s.WeekendLevel < 0 || s.WeekendLevel > 1 {
		return fmt.Errorf("trace: WeekendLevel %v out of (0, 1]", s.WeekendLevel)
	}
	if len(s.SwingScale) != 0 {
		if len(s.SwingScale) != s.NumRacks {
			return fmt.Errorf("trace: SwingScale has %d entries, want %d", len(s.SwingScale), s.NumRacks)
		}
		var sum float64
		for i, w := range s.SwingScale {
			if w < 0 {
				return fmt.Errorf("trace: negative SwingScale[%d]", i)
			}
			sum += w
		}
		if sum == 0 {
			return fmt.Errorf("trace: SwingScale is all zeros")
		}
	}
	return nil
}

// rackShape holds one rack's deterministic noise parameters: two
// incommensurate slow sinusoids with random phases, giving random access in
// time (no AR state) while remaining smooth at 3-second granularity.
type rackShape struct {
	base           float64 // watts at the diurnal trough
	swingWeight    float64 // per-rack diurnal swing multiplier
	n1Period       float64 // seconds
	n2Period       float64
	n1Phase        float64
	n2Phase        float64
	noiseAmplitude float64 // watts
}

// Generator produces synthetic rack power analytically: load_i(t) =
// base_i·(1 + swing·diurnal(t)) + noise_i(t), clipped to [0, 12.6 kW].
type Generator struct {
	spec   Spec
	swing  float64 // (peak − trough)/trough
	shapes []rackShape
}

// NewGenerator builds a deterministic generator for the spec.
func NewGenerator(spec Spec) (*Generator, error) {
	if err := spec.fillDefaults(); err != nil {
		return nil, err
	}
	src := rng.New(spec.Seed)
	shapes := make([]rackShape, spec.NumRacks)
	// Draw raw per-rack bases from a clipped lognormal-ish spread, then
	// normalise so they sum exactly to the trough target.
	raw := make([]float64, spec.NumRacks)
	var sum float64
	for i := range raw {
		v := math.Exp(src.Normal(0, 0.35))
		raw[i] = v
		sum += v
	}
	target := float64(spec.TroughPower)
	for i := range shapes {
		base := raw[i] / sum * target
		// Keep each rack within its physical budget even at peak+noise.
		maxBase := 12600.0 / (1 + (float64(spec.PeakPower)/float64(spec.TroughPower) - 1) + spec.NoiseFrac)
		if base > maxBase {
			base = maxBase
		}
		weight := 1.0
		if len(spec.SwingScale) != 0 {
			weight = spec.SwingScale[i]
		}
		shapes[i] = rackShape{
			base:           base,
			swingWeight:    weight,
			n1Period:       src.Uniform(15*60, 45*60),
			n2Period:       src.Uniform(2*3600, 5*3600),
			n1Phase:        src.Uniform(0, 2*math.Pi),
			n2Phase:        src.Uniform(0, 2*math.Pi),
			noiseAmplitude: base * spec.NoiseFrac,
		}
	}
	// The aggregate peak is Σ base_i·(1 + swing·weight_i) + trough terms;
	// renormalise the global swing so heterogeneous weights still hit the
	// configured envelope exactly.
	var baseSum, weightedSum float64
	for _, sh := range shapes {
		baseSum += sh.base
		weightedSum += sh.base * sh.swingWeight
	}
	swing := float64(spec.PeakPower)/float64(spec.TroughPower) - 1
	if weightedSum > 0 {
		swing = (float64(spec.PeakPower) - float64(spec.TroughPower)) * (baseSum / float64(spec.TroughPower)) / weightedSum
	}
	return &Generator{
		spec:   spec,
		swing:  swing,
		shapes: shapes,
	}, nil
}

// Spec returns the generator's (default-filled) spec.
func (g *Generator) Spec() Spec { return g.spec }

// NumRacks implements Source.
func (g *Generator) NumRacks() int { return len(g.shapes) }

// diurnal returns the coherent daily shape in [0, 1], peaking at PeakTime.
func (g *Generator) diurnal(t time.Duration) float64 {
	phase := 2 * math.Pi * float64(t-g.spec.PeakTime) / float64(g.spec.DiurnalPeriod)
	return 0.5 * (1 + math.Cos(phase))
}

// swingAt returns the diurnal swing amplitude in effect at t, damped on
// weekend days.
func (g *Generator) swingAt(t time.Duration) float64 {
	day := int(t/(24*time.Hour)) % 7
	if day == 5 || day == 6 {
		return g.swing * g.spec.WeekendLevel
	}
	return g.swing
}

// Rack implements Source.
func (g *Generator) Rack(i int, t time.Duration) units.Power {
	sh := &g.shapes[i]
	sec := t.Seconds()
	noise := sh.noiseAmplitude * 0.5 *
		(math.Sin(2*math.Pi*sec/sh.n1Period+sh.n1Phase) +
			math.Sin(2*math.Pi*sec/sh.n2Period+sh.n2Phase))
	w := sh.base*(1+g.swingAt(t)*sh.swingWeight*g.diurnal(t)) + noise
	if w < 0 {
		w = 0
	}
	if w > 12600 {
		w = 12600
	}
	return units.Power(w)
}

// Frames implements FrameSource. The coherent per-tick terms — the second
// count, the 2π·sec sinusoid argument, the weekend-damped swing, and the
// diurnal shape — are computed once per frame and shared by every rack,
// instead of once per rack per call. The per-rack arithmetic keeps the exact
// expression shape of Rack (same operation order, same two Sin calls), so
// the produced samples are bit-identical to the per-call path; the golden
// tests in trace_test.go hold this invariant.
func (g *Generator) Frames(dst []units.Power, from, to, step time.Duration) []units.Power {
	n := len(g.shapes)
	dst = growFrames(dst, NumFrames(from, to, step)*n)
	for k := 0; k*n < len(dst); k++ {
		t := from + time.Duration(k)*step
		sec := t.Seconds()
		omega := 2 * math.Pi * sec // (2π)·sec, the shared sinusoid numerator
		sw := g.swingAt(t)
		di := g.diurnal(t)
		row := dst[k*n : (k+1)*n]
		for i := range row {
			sh := &g.shapes[i]
			noise := sh.noiseAmplitude * 0.5 *
				(math.Sin(omega/sh.n1Period+sh.n1Phase) +
					math.Sin(omega/sh.n2Period+sh.n2Phase))
			w := sh.base*(1+sw*sh.swingWeight*di) + noise
			if w < 0 {
				w = 0
			}
			if w > 12600 {
				w = 12600
			}
			row[i] = units.Power(w)
		}
	}
	return dst
}

// FrameAggregates reduces a frame-major block (as produced by Frames) to one
// clamped aggregate per frame: dst[k] = Σ_i clamp(frames[k·numRacks+i]),
// where clamp limits every sample to [0, max]. The clamp and the rack-index
// summation order mirror exactly what a simulation applying the block through
// rack.SetDemand and summing ITLoad would compute, bit for bit — which is
// what lets an event-driven kernel derive demand-crossing wakeups (and even
// synthesized IT samples) from the block without touching any rack. dst is
// reused when its capacity suffices; the filled slice is returned.
func FrameAggregates(frames []units.Power, numRacks int, max units.Power, dst []units.Power) []units.Power {
	if numRacks <= 0 {
		return dst[:0]
	}
	nf := len(frames) / numRacks
	dst = growFrames(dst, nf)
	for k := 0; k < nf; k++ {
		var total units.Power
		for _, p := range frames[k*numRacks : (k+1)*numRacks] {
			if p < 0 {
				p = 0
			}
			if p > max {
				p = max
			}
			total += p
		}
		dst[k] = total
	}
	return dst
}

// FirstPeak returns the virtual time of the maximum aggregate draw of any
// source within [0, horizon], scanned at the given resolution (the paper
// injects its open transitions "at the first peak in the trace" where
// available power is most constrained). Non-positive arguments default to
// 24 hours and one minute.
//
// For the synthetic Generator the scan is a pure function of the (seeded)
// spec, and figure suites, sweeps, and benchmark harnesses rebuild the same
// generator dozens of times per process — so Generator results are memoised.
func FirstPeak(s Source, horizon, resolution time.Duration) time.Duration {
	if horizon <= 0 {
		horizon = 24 * time.Hour
	}
	if resolution <= 0 {
		resolution = time.Minute
	}
	g, ok := s.(*Generator)
	if !ok {
		return firstPeakScan(s, horizon, resolution)
	}
	key := firstPeakKeyOf(g, horizon, resolution)
	if v, ok := firstPeakMemo.Load(key); ok {
		return v.(time.Duration)
	}
	t := firstPeakScan(s, horizon, resolution)
	// Bound the cache: a process cycling through unboundedly many distinct
	// trace specs (a fuzzing loop, a parameter search) must not leak; past the
	// cap new specs simply pay the scan.
	if n := firstPeakMemoLen.Add(1); n <= 1024 {
		firstPeakMemo.Store(key, t)
	} else {
		firstPeakMemoLen.Add(-1)
	}
	return t
}

// firstPeakKey identifies one memoised FirstPeak scan: every scalar field of
// the generator spec (the SwingScale slice, unhashable, is folded to a
// bit-exact hash) plus the scan window.
type firstPeakKey struct {
	numRacks            int
	duration            time.Duration
	trough, peak        units.Power
	diurnal, peakTime   time.Duration
	noiseFrac, weekend  float64
	seed                int64
	swingFP             uint64
	horizon, resolution time.Duration
}

var (
	firstPeakMemo    sync.Map // firstPeakKey → time.Duration
	firstPeakMemoLen atomic.Int64
)

func firstPeakKeyOf(g *Generator, horizon, resolution time.Duration) firstPeakKey {
	key := firstPeakKey{
		numRacks:   g.spec.NumRacks,
		duration:   g.spec.Duration,
		trough:     g.spec.TroughPower,
		peak:       g.spec.PeakPower,
		diurnal:    g.spec.DiurnalPeriod,
		peakTime:   g.spec.PeakTime,
		noiseFrac:  g.spec.NoiseFrac,
		weekend:    g.spec.WeekendLevel,
		seed:       g.spec.Seed,
		horizon:    horizon,
		resolution: resolution,
	}
	if len(g.spec.SwingScale) != 0 {
		h := fnv.New64a()
		var b [8]byte
		for _, w := range g.spec.SwingScale {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
			h.Write(b[:])
		}
		key.swingFP = h.Sum64()
	}
	return key
}

func firstPeakScan(s Source, horizon, resolution time.Duration) time.Duration {
	// Scan in frame blocks: same samples, same summation order, same
	// first-maximum tie-breaking as the per-call Aggregate loop — but the
	// per-tick trace terms are computed once per frame.
	n := s.NumRacks()
	best, bestT := units.Power(-1), time.Duration(0)
	const block = 256
	var buf []units.Power
	for t0 := time.Duration(0); t0 <= horizon; t0 += block * resolution {
		t1 := t0 + (block-1)*resolution
		if t1 > horizon {
			t1 = horizon
		}
		buf = Frames(s, buf, t0, t1, resolution)
		for k := 0; k*n < len(buf); k++ {
			var total units.Power
			for _, p := range buf[k*n : (k+1)*n] {
				total += p
			}
			if total > best {
				best, bestT = total, t0+time.Duration(k)*resolution
			}
		}
	}
	return bestT
}

// AggregateRate returns an upper bound, in watts per virtual second, on how
// fast the generator's aggregate demand can move — clamped or not, since
// clipping and clamping are 1-Lipschitz. Per rack the bound is the triangle
// sum of the diurnal term's derivative (|d/dt base·swing·w·diurnal| ≤
// base·swing·w·π/Period, as |diurnal'| = |0.5·sin·2π/P| ≤ π/P) and the two
// noise sinusoids' (amp·0.5·(ω₁+ω₂)). It lets an event-driven kernel hold a
// demand envelope between exact evaluations: |agg(t) − agg(t₀)| ≤
// AggregateRate()·(t−t₀) whenever SwingRegime is constant over [t₀, t].
func (g *Generator) AggregateRate() float64 {
	p := g.spec.DiurnalPeriod.Seconds()
	var rate float64
	for i := range g.shapes {
		sh := &g.shapes[i]
		rate += sh.base*g.swing*sh.swingWeight*math.Pi/p +
			sh.noiseAmplitude*math.Pi*(1/sh.n1Period+1/sh.n2Period)
	}
	return rate
}

// SwingRegime identifies the diurnal swing amplitude in effect at t. The
// weekend damping switches it discontinuously at day boundaries, which
// invalidates the AggregateRate Lipschitz bound across the switch; callers
// holding a rate-bounded envelope must re-anchor it whenever the regime of
// the anchor and the query differ.
func (g *Generator) SwingRegime(t time.Duration) float64 { return g.swingAt(t) }

// Stats summarises the aggregate draw over [from, to] at the given step.
type Stats struct {
	Min, Max, Mean units.Power
	Samples        int
}

// AggregateStats scans the aggregate power of a source.
func AggregateStats(s Source, from, to, step time.Duration) Stats {
	if step <= 0 {
		step = time.Minute
	}
	st := Stats{Min: units.Power(math.Inf(1)), Max: units.Power(math.Inf(-1))}
	var sum float64
	for t := from; t <= to; t += step {
		p := Aggregate(s, t)
		if p < st.Min {
			st.Min = p
		}
		if p > st.Max {
			st.Max = p
		}
		sum += float64(p)
		st.Samples++
	}
	if st.Samples > 0 {
		st.Mean = units.Power(sum / float64(st.Samples))
	}
	return st
}
