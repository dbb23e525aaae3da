package scenario

import (
	"path/filepath"
	"testing"
	"time"

	"coordcharge/internal/dynamo"
	"coordcharge/internal/faults"
	"coordcharge/internal/grid"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/trace"
	"coordcharge/internal/units"
)

// runAt builds and runs one coordinated run whose transient place puts.
func runAt(t *testing.T, spec CoordSpec, place func(*coordRun) (*power.Node, time.Duration)) *CoordResult {
	t.Helper()
	if err := spec.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	cr, err := newCoordRunAt(spec, place)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cr.run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestKernelParityScopedTransients extends the kernel parity suite to
// transients below the MSB, the ones endurance replays: an SB and an RPP
// open for a full discharge at the trace peak under a tight limit, and the
// event kernel must reproduce the dense run's summary and flight digest
// while skipping ticks.
func TestKernelParityScopedTransients(t *testing.T) {
	for _, level := range []power.Level{power.LevelSB, power.LevelRPP} {
		t.Run(level.String(), func(t *testing.T) {
			// The level's first breaker in walk order opens at the peak.
			place := func(cr *coordRun) (*power.Node, time.Duration) {
				_, at := placeAtPeak(cr)
				for _, nd := range cr.nodes {
					if nd.Level() == level {
						return nd, at
					}
				}
				panic("no breaker at level " + level.String())
			}
			run := func(kernel string) (*CoordResult, string) {
				spec := CoordSpec{
					NumP1: 10, NumP2: 10, NumP3: 10, Seed: 1,
					MSBLimit: 205 * units.Kilowatt, Mode: dynamo.ModePriorityAware,
					OutageLen: 90 * time.Second, MaxChargeDuration: 6 * time.Hour,
					Kernel: kernel, Obs: obs.NewSink(0),
				}
				return runAt(t, spec, place), spec.Obs.Flight.Digest()
			}
			dense, denseDigest := run(KernelDense)
			event, eventDigest := run(KernelEvent)
			if eventDigest != denseDigest {
				t.Errorf("flight digest diverged:\n  event %s\n  dense %s", eventDigest, denseDigest)
			}
			if got, want := event.Summary(), dense.Summary(); got != want {
				t.Errorf("summary diverged:\n--- event ---\n%s--- dense ---\n%s", got, want)
			}
			if event.KernelTicksSkipped == 0 {
				t.Errorf("event kernel skipped no ticks (executed=%d)", event.KernelTicksExecuted)
			}
			if dense.Metrics.PlansComputed == 0 {
				t.Error("the recharge was never planned; the transient exercised no control plane")
			}
		})
	}
}

// TestEndurancePostponedWaitCountsAsLoss: a charge that ModePostpone
// suspends has Charging() false, yet the rack has no redundancy until the
// charge resumes and finishes. One MSB transient under a limit that
// postpones racks must count, for every rack, each tick from the loss of
// input to the end of its charge — the postponed wait included — as a
// dense replay observing every tick does.
func TestEndurancePostponedWaitCountsAsLoss(t *testing.T) {
	es := EnduranceSpec{Years: 1, Seed: 3, Mode: dynamo.ModePostpone, MSBLimit: 200 * units.Kilowatt}
	if err := es.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	base := es.transientSpec()
	gen, err := traceSource(&base, 30)
	if err != nil {
		t.Fatal(err)
	}
	at := trace.FirstPeak(gen, 24*time.Hour, time.Minute)
	const length = 90 * time.Second // a full discharge

	p := &enduranceCheckpoint{Loss: make([]time.Duration, 30)}
	if err := p.transient(base, power.LevelMSB, 0, at, length); err != nil {
		t.Fatal(err)
	}

	dense := base
	dense.OutageLen = length
	dense.Kernel = KernelDense
	// counted includes the postponed wait; charging counts a rack only while
	// its input is down or it is charging, which misses the wait.
	counted := make([]time.Duration, 30)
	charging := make([]time.Duration, 30)
	postponed := make([]bool, 30)
	var racks []*rack.Rack
	dense.StepHook = func(time.Duration) {
		for i, r := range racks {
			if r.InputUp() && r.PendingDOD() > 0 {
				postponed[i] = true
			}
			if !r.InputUp() || r.Charging() || r.PendingDOD() > 0 {
				counted[i] += dense.Step
			}
			if !r.InputUp() || r.Charging() {
				charging[i] += dense.Step
			}
		}
	}
	res := runAt(t, dense, func(cr *coordRun) (*power.Node, time.Duration) {
		racks = cr.racks
		return cr.msb, at
	})
	if res.LastChargeDone == 0 {
		t.Fatal("charges still running at the horizon; pick a transient that drains")
	}
	waited := 0
	for i, c := range counted {
		if postponed[i] {
			waited++
			if p.Loss[i] <= charging[i] {
				t.Errorf("rack %d: loss %v does not exceed its input-down and charging time %v", i, p.Loss[i], charging[i])
			}
		}
		if p.Loss[i] != c {
			t.Errorf("rack %d (postponed %t): loss %v, ticks without redundancy %v", i, postponed[i], p.Loss[i], c)
		}
	}
	if waited == 0 {
		t.Fatal("no rack was postponed; the limit does not exercise the wait")
	}
}

// TestKernelInterruptResume: a graceful interrupt on the event kernel, taken
// mid-skip, writes its checkpoint from the shared run loop after bringing
// the fleet and the controller clocks current. Resuming on the event kernel
// must reproduce the uninterrupted run's summary and flight digest.
func TestKernelInterruptResume(t *testing.T) {
	spec := CoordSpec{
		NumP1: 10, NumP2: 10, NumP3: 10, Seed: 1,
		MSBLimit: 205 * units.Kilowatt, Mode: dynamo.ModePriorityAware,
		OutageLen: 90 * time.Second, MaxChargeDuration: 6 * time.Hour,
		Kernel: KernelEvent,
	}
	run := func(s CoordSpec) (*CoordResult, string) {
		s.Obs = obs.NewSink(0)
		res, err := RunCoordinated(s)
		if err != nil {
			t.Fatal(err)
		}
		return res, s.Obs.Flight.Digest()
	}
	want, wantDigest := run(spec)
	for _, polls := range []int{50, 700, 2000} {
		first := spec
		first.Checkpoint = filepath.Join(t.TempDir(), "run.ckpt")
		n := 0
		first.Interrupt = func() bool { n++; return n > polls }
		if res, _ := run(first); !res.Interrupted {
			t.Fatalf("interrupt after %d polls: run was not interrupted", polls)
		}
		second := spec
		second.Resume = first.Checkpoint
		got, gotDigest := run(second)
		if gotDigest != wantDigest {
			t.Errorf("interrupt after %d polls: flight digest %s, uninterrupted %s", polls, gotDigest, wantDigest)
		}
		if got.Summary() != want.Summary() {
			t.Errorf("interrupt after %d polls: summary diverged:\n--- resumed ---\n%s--- uninterrupted ---\n%s", polls, got.Summary(), want.Summary())
		}
	}
}

// TestKernelFallbackNamesFeature: a run left at the default kernel takes
// the event kernel unless a spec feature forces the dense loop, and then
// KernelFallback names the first such feature. A run that asks for dense
// has no fallback to report.
func TestKernelFallbackNamesFeature(t *testing.T) {
	gen, err := trace.NewGenerator(trace.Spec{NumRacks: 9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	external, err := trace.Materialize(gen, 0, time.Hour, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	gridSpec, err := grid.ParseSpec("capshrink=10m+20m(0.3)")
	if err != nil {
		t.Fatal(err)
	}
	notRelaxed := false
	for _, tc := range []struct {
		name string
		edit func(*CoordSpec)
		want string
	}{
		{"eligible", func(*CoordSpec) {}, ""},
		{"requested dense", func(s *CoordSpec) { s.Kernel = KernelDense }, ""},
		{"faults", func(s *CoordSpec) { s.Faults = faults.Default() }, "fault injection"},
		{"faults before grid", func(s *CoordSpec) { s.Faults = faults.Default(); s.Grid = gridSpec }, "fault injection"},
		{"grid", func(s *CoordSpec) { s.Grid = gridSpec }, "grid plane"},
		{"distributed", func(s *CoordSpec) { s.Distributed = true }, "distributed plane"},
		{"latency", func(s *CoordSpec) { s.CommandLatency = 20 * time.Second }, "command latency"},
		{"watchdog", func(s *CoordSpec) { s.WatchdogTTL = 30 * time.Second }, "watchdog"},
		{"stale", func(s *CoordSpec) { s.StaleAfter = 10 * time.Second }, "stale telemetry"},
		{"hook", func(s *CoordSpec) { s.StepHook = func(time.Duration) {} }, "step hook"},
		{"lower levels", func(s *CoordSpec) { s.RelaxLowerLevels = &notRelaxed }, "lower levels not relaxed"},
		{"external trace", func(s *CoordSpec) { s.Trace = external }, "external trace"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := CoordSpec{
				NumP1: 3, NumP2: 3, NumP3: 3, Seed: 1,
				MSBLimit: 70 * units.Kilowatt, Mode: dynamo.ModePriorityAware,
				AvgDOD: 0.5, MaxChargeDuration: time.Hour,
			}
			tc.edit(&spec)
			res, err := RunCoordinated(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.KernelFallback != tc.want {
				t.Errorf("KernelFallback = %q, want %q", res.KernelFallback, tc.want)
			}
			ran := res.KernelTicksExecuted > 0
			if wantRan := tc.want == "" && spec.Kernel == ""; ran != wantRan {
				t.Errorf("event kernel ran = %t (executed %d), want %t", ran, res.KernelTicksExecuted, wantRan)
			}
		})
	}
}
