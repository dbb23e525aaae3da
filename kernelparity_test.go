package coordcharge

import (
	"fmt"
	"maps"
	"sync/atomic"
	"testing"
	"time"

	"coordcharge/internal/charger"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/faults"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/rng"
	"coordcharge/internal/scenario"
	"coordcharge/internal/storm"
	"coordcharge/internal/units"
)

// Kernel parity: the event-driven kernel's one correctness bar. For every
// scenario arm and seed, a run on the event kernel (the default) must
// produce a flight digest and result summary byte-identical to the dense
// reference — including runs hard-killed and resumed from checkpoints, and
// checkpoints written by one kernel and resumed by the other. Arms the
// kernel cannot prove bounds for (faults, the grid plane) run dense, count
// no kernel ticks, and must name the feature that forced the dense loop in
// CoordResult.KernelFallback.

// kernelArm is one scenario family under parity test.
type kernelArm struct {
	name string
	spec func(seed int64) scenario.CoordSpec
	// fallback is the KernelFallback an event run of the arm must report:
	// empty when the kernel engages (and must skip ticks), otherwise the
	// feature that sends the arm to the dense loop.
	fallback string
}

func kernelArms() []kernelArm {
	p1, p2, p3 := scenario.ProductionDistribution()
	// The Fig 14/15 sweeps run 2.6 MW down to 2.2 MW; the seeds walk up
	// from the tightest limit, so the -short seed is the hardest.
	sweepLimit := func(seed int64) units.Power {
		return units.Power(2.2+0.1*float64(seed-1)) * units.Megawatt
	}
	return []kernelArm{
		{"baseline", func(seed int64) scenario.CoordSpec {
			return scenario.CoordSpec{
				NumP1: 10, NumP2: 10, NumP3: 10, Seed: seed,
				MSBLimit: 230 * units.Kilowatt, Mode: dynamo.ModePriorityAware,
				AvgDOD: 0.5, MaxChargeDuration: 6 * time.Hour,
			}
		}, ""},
		{"storm", func(seed int64) scenario.CoordSpec {
			spec := stormSpec(seed)
			armStorm(&spec)
			return spec
		}, ""},
		{"outage", func(seed int64) scenario.CoordSpec {
			// stormSpec without admission: the hair-trigger curve trips
			// breakers, exercising the kernel's tripped/overdrawn density.
			return stormSpec(seed)
		}, ""},
		// Table III case (f) without coordination, at production scale:
		// capped racks keep a large share of the ticks dense.
		{"table3-original", func(seed int64) scenario.CoordSpec {
			return scenario.CoordSpec{
				NumP1: p1, NumP2: p2, NumP3: p3, Seed: seed,
				MSBLimit: 2.3 * units.Megawatt, Mode: dynamo.ModeNone,
				LocalPolicy: charger.Original{}, AvgDOD: 0.7,
			}
		}, ""},
		{"table3-variable", func(seed int64) scenario.CoordSpec {
			return scenario.CoordSpec{
				NumP1: p1, NumP2: p2, NumP3: p3, Seed: seed,
				MSBLimit: 2.3 * units.Megawatt, Mode: dynamo.ModeNone,
				LocalPolicy: charger.Variable{}, AvgDOD: 0.7,
			}
		}, ""},
		// Fig 14(d): the global baseline on the production mix.
		{"fig14-global", func(seed int64) scenario.CoordSpec {
			return scenario.CoordSpec{
				NumP1: p1, NumP2: p2, NumP3: p3, Seed: seed,
				MSBLimit: sweepLimit(seed), Mode: dynamo.ModeGlobal, AvgDOD: 0.7,
			}
		}, ""},
		// Fig 15(c) and (d): every rack P1.
		{"fig15-allp1", func(seed int64) scenario.CoordSpec {
			return scenario.CoordSpec{
				NumP1: 316, Seed: seed,
				MSBLimit: sweepLimit(seed), Mode: dynamo.ModePriorityAware, AvgDOD: 0.5,
			}
		}, ""},
		{"fig15-allp1-global", func(seed int64) scenario.CoordSpec {
			return scenario.CoordSpec{
				NumP1: 316, Seed: seed,
				MSBLimit: sweepLimit(seed), Mode: dynamo.ModeGlobal, AvgDOD: 0.5,
			}
		}, ""},
		{"grid-shrink", func(seed int64) scenario.CoordSpec {
			spec, err := scenario.GridStormSpec(seed, 0.35)
			if err != nil {
				panic(err)
			}
			return spec
		}, "grid plane"},
		{"grid-shave", func(seed int64) scenario.CoordSpec {
			spec, err := scenario.GridShaveSpec(seed)
			if err != nil {
				panic(err)
			}
			return spec
		}, "grid plane"},
		{"faults", func(seed int64) scenario.CoordSpec {
			spec := stormSpec(seed)
			armStorm(&spec)
			spec.Faults = faults.Default()
			spec.Faults.Seed = seed
			spec.StaleAfter = 10 * time.Second
			spec.Retry = dynamo.DefaultRetryPolicy()
			return spec
		}, "fault injection"},
	}
}

// runKernel executes one spec on the requested kernel with a fresh obs sink
// and returns the result and the sink.
func runKernel(t *testing.T, spec scenario.CoordSpec, kernel string) (*scenario.CoordResult, *obs.Sink) {
	t.Helper()
	spec.Kernel = kernel
	spec.Obs = obs.NewSink(0)
	res, err := scenario.RunCoordinated(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res, spec.Obs
}

// checkKernelParity runs spec on both kernels and requires identical
// output: summary, flight digest and event total, and the final counters
// and gauges apart from the kernel's own. fallback is the KernelFallback the
// event run must report; an empty one means the event kernel must run. It
// returns the event run.
func checkKernelParity(t *testing.T, spec scenario.CoordSpec, fallback string) *scenario.CoordResult {
	t.Helper()
	dense, denseSink := runKernel(t, spec, scenario.KernelDense)
	event, eventSink := runKernel(t, spec, scenario.KernelEvent)

	if got, want := eventSink.Flight.Digest(), denseSink.Flight.Digest(); got != want {
		t.Errorf("flight digest diverged:\n  event %s\n  dense %s", got, want)
	}
	if got, want := eventSink.Flight.Total(), denseSink.Flight.Total(); got != want {
		t.Errorf("flight total diverged: event %d, dense %d", got, want)
	}
	if got, want := event.Summary(), dense.Summary(); got != want {
		t.Errorf("summary diverged:\n--- event ---\n%s--- dense ---\n%s", got, want)
	}
	got, want := eventSink.Reg.Snapshot(), denseSink.Reg.Snapshot()
	delete(got.Gauges, "sim.events_executed")
	delete(got.Gauges, "sim.ticks_skipped")
	if !maps.Equal(got.Counters, want.Counters) || !maps.Equal(got.Gauges, want.Gauges) {
		t.Errorf("final metrics diverged:\n  event %v %v\n  dense %v %v",
			got.Counters, got.Gauges, want.Counters, want.Gauges)
	}
	if dense.KernelTicksSkipped != 0 || dense.KernelTicksExecuted != 0 || dense.KernelFallback != "" {
		t.Errorf("requested-dense run reported kernel state: executed=%d skipped=%d fallback=%q",
			dense.KernelTicksExecuted, dense.KernelTicksSkipped, dense.KernelFallback)
	}
	if event.KernelFallback != fallback {
		t.Errorf("KernelFallback = %q, want %q", event.KernelFallback, fallback)
	}
	if fallback == "" {
		if event.KernelTicksExecuted == 0 {
			t.Error("eligible spec ran no kernel ticks; the event kernel never ran")
		}
	} else if event.KernelTicksSkipped != 0 || event.KernelTicksExecuted != 0 {
		t.Errorf("%s must send the run to the dense loop, got executed=%d skipped=%d",
			fallback, event.KernelTicksExecuted, event.KernelTicksSkipped)
	}
	return event
}

// TestKernelParity: 4 seeds across every arm, uninterrupted.
func TestKernelParity(t *testing.T) {
	for _, arm := range kernelArms() {
		t.Run(arm.name, func(t *testing.T) {
			seeds := int64(4)
			if testing.Short() && arm.name != "storm" {
				seeds = 1
			}
			for seed := int64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					event := checkKernelParity(t, arm.spec(seed), arm.fallback)
					if arm.fallback == "" && event.KernelTicksSkipped == 0 {
						t.Errorf("eligible arm skipped no ticks (executed=%d); the kernel never engaged",
							event.KernelTicksExecuted)
					}
				})
			}
		})
	}
}

// TestKernelParityGenerated crosses the spec dimensions the kernel's bounds
// read — mode, charger, tick, pre-roll, sampling, discharge depth or outage
// length, storm admission, guards and trip curves — over small fleets, one
// seeded draw per case, so parity is not only checked on hand-picked arms.
// Every generated spec is eligible, so every case runs the event kernel. A
// case may legitimately skip nothing (a rack capped until the horizon keeps
// every tick dense), so skipping is required of most cases, not each.
func TestKernelParityGenerated(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 40
	}
	r := rng.New(20201017)
	var ran, skipping atomic.Int64
	t.Run("cases", func(t *testing.T) {
		for i := 0; i < n; i++ {
			spec := genKernelSpec(r)
			t.Run(fmt.Sprintf("case%03d", i), func(t *testing.T) {
				t.Parallel()
				ran.Add(1)
				if checkKernelParity(t, spec, "").KernelTicksSkipped > 0 {
					skipping.Add(1)
				}
			})
		}
	})
	// In the full draw all but a handful of cases skip; fewer than three in
	// four means the generator has drifted into specs that never go quiet.
	// A -run filter that picks out single cases is not judged.
	got, of := skipping.Load(), ran.Load()
	t.Logf("%d of %d cases skipped ticks", got, of)
	if of == int64(n) && got*4 < of*3 {
		t.Errorf("only %d of %d cases skipped ticks", got, of)
	}
}

// genKernelSpec draws one eligible coordinated spec from r.
func genKernelSpec(r *rng.Source) scenario.CoordSpec {
	pick := r.Intn
	spec := scenario.CoordSpec{
		NumP1: pick(7), NumP2: pick(7), NumP3: pick(7),
		Seed:              int64(1 + pick(1000)),
		Mode:              []dynamo.Mode{dynamo.ModeNone, dynamo.ModeGlobal, dynamo.ModePriorityAware, dynamo.ModePostpone}[pick(4)],
		LocalPolicy:       []charger.Policy{charger.Original{}, charger.Variable{}}[pick(2)],
		Step:              []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 5 * time.Second}[pick(4)],
		PreRoll:           []time.Duration{0, 47 * time.Second, 100 * time.Second, 4 * time.Minute}[pick(4)],
		SampleEvery:       []time.Duration{0, 7 * time.Second, 10 * time.Second, 45 * time.Second}[pick(4)],
		MaxChargeDuration: []time.Duration{2 * time.Hour, 4 * time.Hour}[pick(2)],
	}
	if spec.NumP1+spec.NumP2+spec.NumP3 == 0 {
		spec.NumP2 = 1
	}
	racks := spec.NumP1 + spec.NumP2 + spec.NumP3
	// From just above the pre-outage draw (about 6.3 kW a rack) to enough
	// headroom for a full recharge: constrained runs cap and postpone,
	// loose ones coast.
	spec.MSBLimit = units.Power(float64(racks)*r.Uniform(6.6, 8.4)) * units.Kilowatt
	if pick(2) == 0 {
		spec.AvgDOD = units.Fraction([]float64{0.3, 0.5, 0.7, 1}[pick(4)])
	} else {
		spec.OutageLen = []time.Duration{30 * time.Second, 90 * time.Second, 4 * time.Minute}[pick(3)]
	}
	if pick(2) == 0 {
		sc := storm.Default()
		sc.Reserve = units.Fraction([]float64{0.01, 0.05}[pick(2)])
		spec.Storm = &sc
	}
	if pick(2) == 0 {
		g := storm.DefaultGuardConfig()
		spec.Guard = &g
	}
	if pick(2) == 0 {
		spec.TripRule = &power.TripRule{Fraction: units.Fraction([]float64{0.05, 0.15}[pick(2)]), Sustain: 30 * time.Second}
	}
	return spec
}

// TestKernelCrashResume: the chaos harness on the event kernel. A storm run
// is hard-killed mid-outage and mid-drain, resumed from checkpoints, and must
// land byte-identical to the uninterrupted *dense* run — checkpoint writes on
// the skip path, wake-queue export, and the restore-time schedule rebuild all
// sit on this path.
func TestKernelCrashResume(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := stormSpec(seed)
			armStorm(&spec)
			spec.Kernel = scenario.KernelDense
			wantSummary, wantDigest := runUninterrupted(t, spec)

			spec.Kernel = scenario.KernelEvent
			gotSummary, gotDigest := runWithKills(t, spec, chaosKills(seed))
			if gotDigest != wantDigest {
				t.Errorf("flight digest diverged after kill-and-resume:\n  event resumed %s\n  dense         %s", gotDigest, wantDigest)
			}
			if gotSummary != wantSummary {
				t.Errorf("summary diverged after kill-and-resume:\n--- event resumed ---\n%s--- dense ---\n%s", gotSummary, wantSummary)
			}
		})
	}
}

// TestKernelCrossPlaneResume: checkpoints are portable between kernels in
// both directions. An event-written checkpoint is resumed by the dense loop,
// and a dense-written checkpoint by the event kernel; both runs must match
// the uninterrupted dense reference byte for byte.
func TestKernelCrossPlaneResume(t *testing.T) {
	seed := int64(3)
	spec := stormSpec(seed)
	armStorm(&spec)
	spec.Kernel = scenario.KernelDense
	wantSummary, wantDigest := runUninterrupted(t, spec)

	for _, tc := range []struct {
		name  string
		order []string // kernel per attempt: attempt 0 writes, later attempts resume
	}{
		{"event-writes-dense-resumes", []string{scenario.KernelEvent, scenario.KernelDense, scenario.KernelDense}},
		{"dense-writes-event-resumes", []string{scenario.KernelDense, scenario.KernelEvent, scenario.KernelEvent}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gotSummary, gotDigest := runWithKillsVariant(t, spec, chaosKills(seed), func(attempt int) string {
				if attempt >= len(tc.order) {
					return tc.order[len(tc.order)-1]
				}
				return tc.order[attempt]
			})
			if gotDigest != wantDigest {
				t.Errorf("flight digest diverged:\n  resumed %s\n  dense   %s", gotDigest, wantDigest)
			}
			if gotSummary != wantSummary {
				t.Errorf("summary diverged:\n--- resumed ---\n%s--- dense ---\n%s", gotSummary, wantSummary)
			}
		})
	}
}
