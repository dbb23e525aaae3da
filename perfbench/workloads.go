package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"coordcharge/internal/core"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/faults"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/report"
	"coordcharge/internal/scenario"
	"coordcharge/internal/storm"
	"coordcharge/internal/units"
)

// opOut is one op's output as the checks and metrics see it.
type opOut struct {
	summary   string  // canonical text, hashed against the goldens
	rackHours float64 // simulated rack-hours, read from the sample series
	rackTicks float64 // simulated rack-ticks over the same spans
	problems  []string
	runs      []*scenario.CoordResult // per-run results, when the entry point exposes them
	counts    []traceCounts           // traced pass only, index-aligned with runs
	obsEvents uint64                  // flight events journaled by the op's sinks
	ckptSizes []int64                 // final checkpoint file size per run
}

// batchWorkload is a workload of serial ops on one goroutine.
type batchWorkload interface {
	name() string
	// sloMs is the fixed per-op latency limit behind slo_met_frac.
	sloMs() float64
	// run executes op seed through the library's entry points.
	run(e *env, seed int64) (*opOut, error)
	// traced executes op seed through the traced tick loop.
	traced(e *env, seed int64, tr *tracer) (*opOut, error)
	// extras measures the workload's own per-layer figures for op seed, given
	// the untraced op's host time and the traced op's output, and returns the
	// untraced host time the traced op should be compared with.
	extras(e *env, seed int64, untraced time.Duration, traced *opOut, acc samples) (time.Duration, error)
}

// samples collects per-iteration observations; each reports as its median.
type samples map[string][]float64

// setupRounds is how many times a run sets up (inputs plus one warm-up op);
// setup_s is the median.
const setupRounds = 3

// msbTable3 is the paper's Table III job: RunFig13 at library defaults.
type msbTable3 struct{}

func (msbTable3) name() string   { return "msb-table3" }
func (msbTable3) sloMs() float64 { return 4000 }

// fig13Specs are the 18 runs RunFig13 executes, in its order.
func fig13Specs(seed int64) []scenario.CoordSpec {
	p1, p2, p3 := scenario.ProductionDistribution()
	var specs []scenario.CoordSpec
	for _, cs := range scenario.Fig13Cases() {
		for _, alg := range scenario.Fig13Algorithms() {
			specs = append(specs, scenario.CoordSpec{
				NumP1: p1, NumP2: p2, NumP3: p3, Seed: seed,
				MSBLimit: cs.Limit, Mode: alg.Mode, LocalPolicy: alg.Policy, AvgDOD: cs.AvgDOD,
			})
		}
	}
	return specs
}

// assembleFig13 renders runs (in fig13Specs order) the way RunFig13 does.
func assembleFig13(runs []*scenario.CoordResult) *scenario.Fig13Result {
	cases, algs := scenario.Fig13Cases(), scenario.Fig13Algorithms()
	res := &scenario.Fig13Result{
		TableIII: report.NewTable("Table III: maximum server power capping required",
			"Case", "Original charger", "Variable charger", "Priority-aware"),
	}
	for ci, cs := range cases {
		chart := report.NewChart("Fig 13 "+cs.Label+": MSB power use", "minutes from transition", "MW")
		limit := chart.AddSeries("power limit")
		row := []string{cs.Label}
		for ai, alg := range algs {
			run := runs[ci*len(algs)+ai]
			s := chart.AddSeries(alg.Name)
			for _, sm := range run.Samples {
				s.Append(sm.T.Minutes(), (sm.Total + sm.Capped).MW())
			}
			m := run.Metrics
			row = append(row, fmt.Sprintf("%.0f kW (%.0f%%)", m.MaxCapping.KW(), float64(m.MaxCappingFraction)*100))
		}
		if len(chart.Series) > 1 {
			if pts := chart.Series[1].Points; len(pts) > 0 {
				limit.Append(pts[0].X, cs.Limit.MW())
				limit.Append(pts[len(pts)-1].X, cs.Limit.MW())
			}
		}
		res.Charts = append(res.Charts, chart)
		res.TableIII.Add(row...)
	}
	return res
}

// fig13Out summarizes a Fig 13 result and checks its shape.
func fig13Out(res *scenario.Fig13Result) *opOut {
	out := &opOut{}
	var b strings.Builder
	if err := res.TableIII.Render(&b); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(res.Charts); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	fmt.Fprintf(&b, "charts=%016x\n", h.Sum64())
	out.summary = b.String()
	racks := 316.0
	if len(res.Charts) != 6 || len(res.TableIII.Rows) != 6 {
		out.problems = append(out.problems, fmt.Sprintf("want 6 charts and 6 Table III rows, got %d and %d",
			len(res.Charts), len(res.TableIII.Rows)))
	}
	for _, c := range res.Charts {
		if len(c.Series) != 4 {
			out.problems = append(out.problems, fmt.Sprintf("%s: %d series, want 4", c.Title, len(c.Series)))
			continue
		}
		for _, s := range c.Series[1:] {
			if len(s.Points) < 2 {
				out.problems = append(out.problems, fmt.Sprintf("%s/%s: empty series", c.Title, s.Name))
				continue
			}
			hours := (s.Points[len(s.Points)-1].X - s.Points[0].X) / 60
			out.rackHours += hours * racks
			out.rackTicks += hours * 3600 / 3 * racks
		}
	}
	return out
}

func (msbTable3) run(_ *env, seed int64) (*opOut, error) {
	res, err := scenario.RunFig13(seed)
	if err != nil {
		return nil, err
	}
	return fig13Out(res), nil
}

func (msbTable3) traced(_ *env, seed int64, tr *tracer) (*opOut, error) {
	specs := fig13Specs(seed)
	runs := make([]*scenario.CoordResult, len(specs))
	counts := make([]traceCounts, len(specs))
	for i, spec := range specs {
		res, c, err := runTraced(spec, tr)
		if err != nil {
			return nil, err
		}
		runs[i], counts[i] = res, c
	}
	out := fig13Out(assembleFig13(runs))
	out.counts = counts
	return out, nil
}

// extras times the 18 runs serially, for the parallel runner's efficiency
// and as the untraced reference of the (serial) traced op.
func (msbTable3) extras(_ *env, seed int64, untraced time.Duration, _ *opOut, acc samples) (time.Duration, error) {
	t0 := time.Now()
	for _, spec := range fig13Specs(seed) {
		if _, err := scenario.RunCoordinated(spec); err != nil {
			return 0, err
		}
	}
	serial := time.Since(t0)
	acc["scenario.par_efficiency"] = append(acc["scenario.par_efficiency"],
		serial.Seconds()/(float64(runtime.GOMAXPROCS(0))*untraced.Seconds()))
	return serial, nil
}

// siteIncident runs four incident arms on a 30-rack row, each with an obs
// sink, coarse checkpoints, and the event kernel requested.
type siteIncident struct{}

func (siteIncident) name() string   { return "site-incident" }
func (siteIncident) sloMs() float64 { return 1500 }

// stormSpec is BenchmarkStormRecovery's storm+guard spec.
func stormSpec(seed int64) scenario.CoordSpec {
	sc := storm.Default()
	sc.Reserve = 0.01
	g := storm.DefaultGuardConfig()
	return scenario.CoordSpec{
		NumP1: 10, NumP2: 10, NumP3: 10, Seed: seed,
		MSBLimit: 205 * units.Kilowatt, Mode: dynamo.ModePriorityAware,
		OutageLen:         90 * time.Second,
		TripRule:          &power.TripRule{Fraction: 0.05, Sustain: 30 * time.Second},
		MaxChargeDuration: 6 * time.Hour,
		Storm:             &sc, Guard: &g,
	}
}

// faultsSpec is a 30-rack row under default fault rates, with the watchdog,
// stale-telemetry bound, and retries armed as coordsim -faults default arms
// them.
func faultsSpec(seed int64) scenario.CoordSpec {
	f := faults.Default()
	f.Seed = seed
	return scenario.CoordSpec{
		NumP1: 10, NumP2: 10, NumP3: 10, Seed: seed,
		MSBLimit: 225 * units.Kilowatt, Mode: dynamo.ModePriorityAware, AvgDOD: 0.5,
		Faults: f, WatchdogTTL: 30 * time.Second,
		StaleAfter: 10 * time.Second, Retry: dynamo.DefaultRetryPolicy(),
	}
}

var incidentArms = []string{"storm", "shave", "shrink", "faults"}

// incidentSpecs builds op seed's four arms on kernel. withObs attaches a fresh
// sink to each; withCkpt writes checkpoints every two virtual hours under dir
// (a few fsyncs per op, so host disk latency stays a small share of it).
func incidentSpecs(seed int64, dir string, withObs, withCkpt bool, kernel string) ([]scenario.CoordSpec, error) {
	shave, err := scenario.GridShaveSpec(seed)
	if err != nil {
		return nil, err
	}
	shrink, err := scenario.GridStormSpec(seed, 0.35)
	if err != nil {
		return nil, err
	}
	specs := []scenario.CoordSpec{stormSpec(seed), shave, shrink, faultsSpec(seed)}
	for i := range specs {
		specs[i].Kernel = kernel
		if withObs {
			specs[i].Obs = obs.NewSink(obs.DefaultFlightCap)
		}
		if withCkpt {
			specs[i].Checkpoint = filepath.Join(dir, incidentArms[i]+".ckpt")
			specs[i].CheckpointEvery = 2 * time.Hour
		}
	}
	return specs, nil
}

// runSpecs runs specs through RunCoordinated, or through the traced loop
// when tr is non-nil, and summarizes them.
func runSpecs(labels []string, specs []scenario.CoordSpec, tr *tracer) (*opOut, error) {
	runs := make([]*scenario.CoordResult, len(specs))
	var counts []traceCounts
	for i, spec := range specs {
		var err error
		if tr == nil {
			runs[i], err = scenario.RunCoordinated(spec)
		} else {
			var c traceCounts
			runs[i], c, err = runTraced(spec, tr)
			counts = append(counts, c)
		}
		if err != nil {
			return nil, fmt.Errorf("%s arm: %w", labels[i], err)
		}
	}
	out := runsOut(labels, specs, runs)
	out.counts = counts
	return out, nil
}

// runsOut summarizes per-run results: each run's Summary, grid metrics and
// flight digest, plus the simulated span of its sample series.
func runsOut(labels []string, specs []scenario.CoordSpec, runs []*scenario.CoordResult) *opOut {
	out := &opOut{runs: runs}
	var b strings.Builder
	for i, r := range runs {
		fmt.Fprintf(&b, "[%s]\n%sgrid=%+v\n", labels[i], r.Summary(), r.Grid)
		if s := specs[i].Obs; s != nil {
			fmt.Fprintf(&b, "flight=%s total=%d\n", s.Flight.Digest(), s.Flight.Total())
			out.obsEvents += s.Flight.Total()
		}
		n := float64(r.Racks[1] + r.Racks[2] + r.Racks[3])
		if len(r.Samples) > 1 {
			span := r.Samples[len(r.Samples)-1].T - r.Samples[0].T
			out.rackHours += span.Hours() * n
			out.rackTicks += float64(span/r.Spec.Step) * n
		}
	}
	out.summary = b.String()
	return out
}

func checkNoTrip(out *opOut, label string, r *scenario.CoordResult) {
	if len(r.Tripped) > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%s: breakers tripped: %v", label, r.Tripped))
	}
}

func checkDrained(out *opOut, label string, r *scenario.CoordResult) {
	if r.LastChargeDone == 0 {
		out.problems = append(out.problems, label+": recharges still outstanding at the horizon")
	}
}

// checkIncident applies the arms' invariants: no trip where a guard is armed,
// every charge done by the horizon, and a shave that started and held.
func checkIncident(out *opOut) {
	for i, r := range out.runs {
		label := incidentArms[i]
		if r.Spec.Guard != nil {
			checkNoTrip(out, label, r)
		}
		checkDrained(out, label, r)
	}
	if g := out.runs[1].Grid; g.ViolationTicks != 0 || shaveNeeded(out.runs[1]) != (g.ShaveStarts > 0) {
		out.problems = append(out.problems, fmt.Sprintf("shave: starts %d, violation ticks %d", g.ShaveStarts, g.ViolationTicks))
	}
	if g := out.runs[2].Grid; g.ViolationTicks != 0 {
		out.problems = append(out.problems, fmt.Sprintf("shrink: %d cap violation ticks", g.ViolationTicks))
	}
}

// shaveNeeded reports whether the shave arm's fleet drew more than the shave
// target during the demand-response window: IT load the grid served plus IT
// load shaved onto batteries. A shave must start exactly when it did.
func shaveNeeded(r *scenario.CoordResult) bool {
	peak, err := scenario.FirstPeakOf(r.Spec)
	if err != nil {
		return true
	}
	ev := r.Spec.Grid.Events[0]
	from, to := ev.At-peak, ev.At-peak+ev.Dur
	for _, sm := range r.Samples {
		if sm.T >= from && sm.T < to && sm.IT+sm.Shaved > r.Spec.Grid.Policy.ShaveTarget {
			return true
		}
	}
	return false
}

func (w siteIncident) run(e *env, seed int64) (*opOut, error) {
	return w.runVariant(e, seed, true, true, scenario.KernelEvent)
}

func (siteIncident) runVariant(e *env, seed int64, withObs, withCkpt bool, kernel string) (*opOut, error) {
	dir, err := os.MkdirTemp(e.workdir, "incident-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	specs, err := incidentSpecs(seed, dir, withObs, withCkpt, kernel)
	if err != nil {
		return nil, err
	}
	out, err := runSpecs(incidentArms, specs, nil)
	if err != nil {
		return nil, err
	}
	if withCkpt {
		for _, spec := range specs {
			// A run shorter than the cadence writes no checkpoint at all.
			var size int64
			if st, err := os.Stat(spec.Checkpoint); err == nil {
				size = st.Size()
			} else if !errors.Is(err, fs.ErrNotExist) {
				return nil, err
			}
			out.ckptSizes = append(out.ckptSizes, size)
		}
	}
	checkIncident(out)
	return out, nil
}

func (siteIncident) traced(e *env, seed int64, tr *tracer) (*opOut, error) {
	specs, err := incidentSpecs(seed, e.workdir, true, true, scenario.KernelEvent)
	if err != nil {
		return nil, err
	}
	out, err := runSpecs(incidentArms, specs, tr)
	if err != nil {
		return nil, err
	}
	checkIncident(out)
	return out, nil
}

// extras measures the obs and checkpoint costs — the same op without sinks
// and without checkpoints — and times the dense, checkpoint-free op the
// traced loop mirrors, as the reference for the tracing overhead.
func (w siteIncident) extras(e *env, seed int64, untraced time.Duration, traced *opOut, acc samples) (time.Duration, error) {
	timed := func(withObs, withCkpt bool, kernel string) (time.Duration, error) {
		t0 := time.Now()
		_, err := w.runVariant(e, seed, withObs, withCkpt, kernel)
		return time.Since(t0), err
	}
	noObs, err := timed(false, true, scenario.KernelEvent)
	if err != nil {
		return 0, err
	}
	noCkpt, err := timed(true, false, scenario.KernelEvent)
	if err != nil {
		return 0, err
	}
	ref, err := timed(true, false, scenario.KernelDense)
	if err != nil {
		return 0, err
	}
	acc["obs.overhead_frac"] = append(acc["obs.overhead_frac"], untraced.Seconds()/noObs.Seconds()-1)
	var writes int64
	if traced != nil {
		for _, c := range traced.counts {
			writes += c.ckptWrites
		}
	}
	if writes > 0 {
		acc["ckpt.write_ms"] = append(acc["ckpt.write_ms"], ms(untraced-noCkpt)/float64(writes))
	}
	return ref, nil
}

// distPlane is a pair of 30-rack runs on the message-passing control plane,
// one clean and one with default fault rates on the bus.
type distPlane struct{}

func (distPlane) name() string   { return "dist-plane" }
func (distPlane) sloMs() float64 { return 12000 }

var distArms = []string{"clean", "faults"}

func distSpecs(seed int64) []scenario.CoordSpec {
	clean := scenario.CoordSpec{
		NumP1: 10, NumP2: 10, NumP3: 10, Seed: seed,
		MSBLimit: 225 * units.Kilowatt, Mode: dynamo.ModePriorityAware,
		AvgDOD: 0.5, Distributed: true, Step: 3 * time.Second,
	}
	faulty := clean
	faulty.Faults = faults.Default()
	faulty.Faults.Seed = seed
	faulty.StaleAfter = 10 * time.Second
	faulty.Retry = dynamo.DefaultRetryPolicy()
	return []scenario.CoordSpec{clean, faulty}
}

func (w distPlane) run(e *env, seed int64) (*opOut, error) { return w.traced(e, seed, nil) }

// traced runs the pair through the traced loop, or untraced when tr is nil.
func (distPlane) traced(_ *env, seed int64, tr *tracer) (*opOut, error) {
	out, err := runSpecs(distArms, distSpecs(seed), tr)
	if err != nil {
		return nil, err
	}
	for i, r := range out.runs {
		checkNoTrip(out, distArms[i], r)
		checkDrained(out, distArms[i], r)
	}
	return out, nil
}

func (distPlane) extras(_ *env, _ int64, untraced time.Duration, _ *opOut, _ samples) (time.Duration, error) {
	return untraced, nil
}

// benchBatch measures a batch workload's end-to-end metrics, tracing off.
func benchBatch(w batchWorkload) func(*env) (*result, error) {
	return func(e *env) (*result, error) {
		c := newChecker(e, w.name())
		seed := e.seed
		var setups []float64
		for k := 0; k < setupRounds; k++ {
			t0 := time.Now()
			if k == 0 {
				t0 = procStart
			}
			out, err := w.run(e, seed)
			c.op(seed, out, err)
			seed++
			setups = append(setups, time.Since(t0).Seconds())
		}
		runtime.GC()
		a0 := totalAlloc()
		var lat []float64
		var hours, ticks float64
		var busy time.Duration
		sloMet := 0
		start := time.Now()
		for time.Since(start) < e.budget {
			t0 := time.Now()
			out, err := w.run(e, seed)
			d := time.Since(t0)
			if c.op(seed, out, err) {
				hours += out.rackHours
				ticks += out.rackTicks
				if ms(d) <= w.sloMs() {
					sloMet++
				}
			}
			busy += d
			lat = append(lat, ms(d))
			seed++
		}
		alloc := totalAlloc() - a0
		m := map[string]metric{}
		set(m, "setup_s", median(setups))
		set(m, "op_ms_p50", quantile(lat, 0.5))
		set(m, "op_ms_p95", quantile(lat, 0.95))
		set(m, "sim_rack_h_per_s", hours/busy.Seconds())
		set(m, "alloc_b_per_rack_tick", float64(alloc)/ticks)
		set(m, "peak_rss_mb", peakRSSMB())
		set(m, "ok_frac", 1-float64(c.failed)/float64(c.attempted))
		set(m, "slo_met_frac", float64(sloMet)/float64(len(lat)))
		return c.result(m), nil
	}
}

// tracedBatch runs the traced pass of a batch workload: per op, the untraced
// op, the same op through the traced loop, and the workload's extras.
func tracedBatch(w batchWorkload) func(*env) (*result, error) {
	return func(e *env) (*result, error) {
		c := newChecker(e, w.name())
		tr := newTracer()
		if e.spans != "" {
			f, err := tr.openSpanFile(e.spans)
			if err != nil {
				return nil, err
			}
			defer f.Close()
		}
		var lt layerTotals
		acc := samples{}
		var agg layerCounts
		var refMs, tracedMs []float64
		seed := e.seed
		start := time.Now()
		for i := 0; i == 0 || time.Since(start) < e.budget; i++ {
			t0 := time.Now()
			out, err := w.run(e, seed)
			du := time.Since(t0)
			ok := c.op(seed, out, err)
			t0 = time.Now()
			op := tr.begin(spanOp)
			tout, err := w.traced(e, seed, tr)
			tr.end(op)
			dt := time.Since(t0)
			lt.add(tr.fold())
			if c.op(seed, tout, err) && ok {
				if tout.summary != out.summary {
					c.fail(seed, "traced loop output differs from the library's")
				}
				agg.add(out, tout)
			}
			ref, err := w.extras(e, seed, du, tout, acc)
			if err != nil {
				return nil, err
			}
			refMs = append(refMs, ms(ref))
			tracedMs = append(tracedMs, ms(dt))
			seed++
		}
		if tr.out != nil {
			if err := tr.out.Flush(); err != nil {
				return nil, err
			}
		}
		m := map[string]metric{}
		agg.report(m)
		lt.report(m)
		for name, xs := range acc {
			set(m, name, median(xs))
		}
		set(m, "bench.tracing_overhead_frac", median(tracedMs)/median(refMs)-1)
		return c.result(m), nil
	}
}

// layerCounts sums per-run counters over the traced pass's checked ops.
type layerCounts struct {
	ops                                            int
	frames, rackSteps, chargingTicks               int64
	plans, overrides, retries, abandons, throttles int64
	enqueued, admitted, waves, guardFires          int64
	deferTicks, capSheds, violations               int64
	cmdDropped, readsDropped, ctlOutages           uint64
	simEvents, busDelivered, busDropped            uint64
	ticksExec, ticksSkipped, ckptWrites, ckptBytes int64
	obsEvents                                      uint64
	planViews                                      []core.RackInfo
	planAvail                                      units.Power
}

// add folds one op: traced holds the traced loop's runs and counts, out the
// untraced op's (whose event-kernel tick counters it reads when present).
func (lc *layerCounts) add(out, traced *opOut) {
	lc.ops++
	lc.obsEvents += out.obsEvents
	for i, cnt := range traced.counts {
		if i < len(out.ckptSizes) {
			lc.ckptBytes += out.ckptSizes[i] * cnt.ckptWrites
		}
		lc.frames += cnt.frames
		lc.rackSteps += cnt.rackSteps
		lc.chargingTicks += cnt.chargingTicks
		lc.simEvents += cnt.simEvents
		lc.busDelivered += cnt.busDelivered
		lc.busDropped += cnt.busDropped
		lc.ckptWrites += cnt.ckptWrites
		if len(cnt.planViews) > 0 && len(cnt.planViews) >= len(lc.planViews) {
			lc.planViews, lc.planAvail = cnt.planViews, cnt.planAvail
		}
		exec, skip := cnt.ticks, int64(0)
		if i < len(out.runs) {
			if r := out.runs[i]; r.KernelTicksExecuted+r.KernelTicksSkipped > 0 {
				exec, skip = int64(r.KernelTicksExecuted), int64(r.KernelTicksSkipped)
			}
		}
		lc.ticksExec += exec
		lc.ticksSkipped += skip
	}
	for _, r := range traced.runs {
		lc.plans += int64(r.Metrics.PlansComputed)
		lc.overrides += int64(r.Metrics.OverridesIssued)
		lc.retries += int64(r.Metrics.Retries)
		lc.abandons += int64(r.Metrics.AbandonedOverrides)
		lc.throttles += int64(r.Metrics.ThrottleEvents)
		lc.enqueued += int64(r.Storm.Enqueued)
		lc.admitted += int64(r.Storm.Admitted)
		lc.waves += int64(r.Storm.Waves)
		lc.guardFires += int64(r.Guard.Fires)
		lc.deferTicks += int64(r.Grid.DeferTicks)
		lc.capSheds += int64(r.Grid.CapDemotions + r.Grid.CapPauses)
		lc.violations += int64(r.Grid.ViolationTicks)
		lc.cmdDropped += r.FaultCounters.CommandsDropped
		lc.readsDropped += r.FaultCounters.ReadsDropped
		lc.ctlOutages += r.FaultCounters.ControllerOutages
	}
}

func (lc *layerCounts) report(m map[string]metric) {
	if lc.ops == 0 {
		return
	}
	per := func(v float64) float64 { return v / float64(lc.ops) }
	set(m, "trace.frames", per(float64(lc.frames)))
	set(m, "rack.steps", per(float64(lc.rackSteps)))
	set(m, "battery.charging_rack_ticks", per(float64(lc.chargingTicks)))
	set(m, "dynamo.plans", per(float64(lc.plans)))
	set(m, "dynamo.overrides", per(float64(lc.overrides)))
	set(m, "dynamo.override_retries", per(float64(lc.retries)))
	set(m, "dynamo.override_abandons", per(float64(lc.abandons)))
	set(m, "dynamo.throttle_events", per(float64(lc.throttles)))
	set(m, "storm.enqueued", per(float64(lc.enqueued)))
	set(m, "storm.admitted", per(float64(lc.admitted)))
	set(m, "storm.waves", per(float64(lc.waves)))
	set(m, "guard.fires", per(float64(lc.guardFires)))
	set(m, "grid.defer_ticks", per(float64(lc.deferTicks)))
	set(m, "grid.cap_sheds", per(float64(lc.capSheds)))
	set(m, "grid.violation_ticks", per(float64(lc.violations)))
	set(m, "faults.commands_dropped", per(float64(lc.cmdDropped)))
	set(m, "faults.reads_dropped", per(float64(lc.readsDropped)))
	set(m, "faults.controller_outages", per(float64(lc.ctlOutages)))
	set(m, "sim.events", per(float64(lc.simEvents)))
	set(m, "bus.delivered", per(float64(lc.busDelivered)))
	set(m, "bus.dropped", per(float64(lc.busDropped)))
	if lc.rackSteps > 0 {
		set(m, "bus.msgs_per_rack_tick", float64(lc.busDelivered)/float64(lc.rackSteps))
	}
	set(m, "scenario.ticks_executed", per(float64(lc.ticksExec)))
	set(m, "scenario.ticks_skipped", per(float64(lc.ticksSkipped)))
	if t := lc.ticksExec + lc.ticksSkipped; t > 0 {
		set(m, "scenario.skip_frac", float64(lc.ticksSkipped)/float64(t))
	}
	set(m, "obs.events", per(float64(lc.obsEvents)))
	set(m, "ckpt.writes", per(float64(lc.ckptWrites)))
	set(m, "ckpt.bytes", per(float64(lc.ckptBytes)))
	if len(lc.planViews) > 0 {
		set(m, "core.plan_us", timePlan(lc.planAvail, lc.planViews))
	}
}

// timePlan is the median host time of one core.PlanPriorityAware call on the
// captured restore-tick views, in microseconds.
func timePlan(avail units.Power, views []core.RackInfo) float64 {
	cfg := core.DefaultConfig()
	var xs []float64
	for i := 0; i < 101; i++ {
		t0 := time.Now()
		_ = core.PlanPriorityAware(avail, views, cfg)
		xs = append(xs, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(xs)
}

func (lt *layerTotals) report(m map[string]metric) {
	set(m, "trace.frames_ms", lt.selfMsPerOp(spanTrace))
	set(m, "rack.step_ms", lt.selfMsPerOp(spanRack))
	set(m, "power.scan_ms", lt.selfMsPerOp(spanPower))
	set(m, "dynamo.tick_ms", lt.selfMsPerOp(spanDynamo))
	set(m, "storm.guard_ms", lt.selfMsPerOp(spanGuard))
	set(m, "grid.tick_ms", lt.selfMsPerOp(spanGrid))
	set(m, "sim.run_ms", lt.selfMsPerOp(spanSim))
	set(m, "obs.gauges_ms", lt.selfMsPerOp(spanObs))
	set(m, "scenario.self_ms", lt.selfMsPerOp(spanRun)+lt.selfMsPerOp(spanBuild)+
		lt.selfMsPerOp(spanFinish)+lt.selfMsPerOp(spanTick))
	set(m, "scenario.tick_us_p50", durQuantile(lt.tickDur, 0.5, time.Microsecond))
	set(m, "scenario.tick_us_p99", durQuantile(lt.tickDur, 0.99, time.Microsecond))
	set(m, "bench.span_coverage", lt.coverage())
}
