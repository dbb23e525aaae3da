package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"coordcharge/internal/config"
	"coordcharge/internal/grid"
	"coordcharge/internal/rack"
	"coordcharge/internal/report"
	"coordcharge/internal/scenario"
	"coordcharge/internal/svc"
	"coordcharge/internal/trace"
	"coordcharge/internal/units"
)

// harness carries the flags that shape how coordsim executes a -run or
// -endurance run rather than what the run is; a -run experiment itself is an
// svc.RunRequest.
type harness struct {
	kernel     string
	analytics  bool
	checkpoint string
	interval   time.Duration // -checkpoint-interval
	resume     string
}

// loadGridSeries attaches the -grid-*-csv series to q, before validation, so
// thresholds in the -grid string that reference a file-loaded series parse.
func loadGridSeries(q *svc.RunRequest, capCSV, priceCSV, carbonCSV string) error {
	for _, s := range []struct {
		path string
		dst  **grid.Series
	}{{capCSV, &q.GridCap}, {priceCSV, &q.GridPrice}, {carbonCSV, &q.GridCarbon}} {
		if s.path == "" {
			continue
		}
		f, err := os.Open(s.path)
		if err != nil {
			return err
		}
		*s.dst, err = grid.ParseSeriesCSV(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %v", s.path, err)
		}
	}
	return nil
}

// runSpec validates q and lowers it, resolving its trace as a CSV path
// (tracegen format) the way coordsim's -trace flag and experiment files name
// one.
func runSpec(q *svc.RunRequest) (scenario.CoordSpec, error) {
	spec, err := q.Spec()
	if err != nil || q.Trace == "" {
		return spec, err
	}
	f, err := os.Open(q.Trace)
	if err != nil {
		return spec, err
	}
	defer f.Close()
	m, err := trace.ReadCSV(f)
	if err != nil {
		return spec, fmt.Errorf("%s: %v", q.Trace, err)
	}
	spec.Trace = m
	return spec, nil
}

// armInterrupt wires SIGTERM (and Ctrl-C) to a graceful stop: the poll
// function is handed to the scenario layer as Spec.Interrupt, so the run
// writes a final checkpoint at the next tick boundary and returns a partial
// result instead of dying mid-write.
func armInterrupt() func() bool {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	interrupted := false
	return func() bool {
		if !interrupted {
			select {
			case <-stop:
				interrupted = true
			default:
			}
		}
		return interrupted
	}
}

// reportInterrupted prints the resume hint after a graceful stop.
func reportInterrupted(h harness) {
	if h.checkpoint != "" {
		fmt.Fprintf(os.Stderr, "coordsim: interrupted; checkpoint written to %s — resume with -resume %s\n", h.checkpoint, h.checkpoint)
	} else {
		fmt.Fprintln(os.Stderr, "coordsim: interrupted; no -checkpoint configured, run state was not saved")
	}
}

// render writes a table as text or, with -csv, as CSV.
func render(tbl *report.Table, csv bool) {
	if csv {
		check(tbl.RenderCSV(os.Stdout))
	} else {
		check(tbl.Render(os.Stdout))
	}
}

// runConfig executes every experiment section of a JSON experiment file.
func runConfig(path string, csv bool) {
	f, err := config.Load(path)
	check(err)
	if f.Coordinated != nil {
		spec, err := runSpec(f.Coordinated)
		check(err)
		res, err := scenario.RunCoordinated(spec)
		check(err)
		printCoordSummary(spec, res)
	}
	if f.Endurance != nil {
		spec, err := f.Endurance.EnduranceSpec()
		check(err)
		res, err := scenario.RunEndurance(spec)
		check(err)
		render(scenario.EnduranceTable(res), csv)
	}
	if f.Advisor != nil {
		spec, err := f.Advisor.Spec()
		check(err)
		adv, err := scenario.Advise(spec)
		check(err)
		render(scenario.AdviceTable(adv), csv)
	}
}

// printCoordSummary prints the standard single-experiment report. spec is
// the run as lowered; res.Spec carries the defaults the run filled in.
func printCoordSummary(spec scenario.CoordSpec, res *scenario.CoordResult) {
	fmt.Printf("experiment: %d racks (%d/%d/%d), %s mode, %s charger, %.2f MW limit, target DOD %.0f%%\n",
		spec.NumP1+spec.NumP2+spec.NumP3, spec.NumP1, spec.NumP2, spec.NumP3, spec.Mode,
		res.Spec.LocalPolicy.Name(), float64(res.Spec.MSBLimit/units.Megawatt), float64(spec.AvgDOD)*100)
	fmt.Printf("  transition length:        %v (realised avg DOD %v)\n",
		res.TransitionLength, res.AvgDOD)
	fmt.Printf("  peak MSB draw:            %v\n", res.PeakPower)
	fmt.Printf("  max server capping:       %v (%.0f%% of IT load)\n",
		res.Metrics.MaxCapping, float64(res.Metrics.MaxCappingFraction)*100)
	fmt.Printf("  capped energy:            %v\n", res.Metrics.CappedEnergy)
	fmt.Printf("  overrides issued:         %d (plans %d, throttle events %d)\n",
		res.Metrics.OverridesIssued, res.Metrics.PlansComputed, res.Metrics.ThrottleEvents)
	fmt.Printf("  SLAs met:                 P1 %d/%d, P2 %d/%d, P3 %d/%d\n",
		res.SLAMet[rack.P1], res.Racks[rack.P1],
		res.SLAMet[rack.P2], res.Racks[rack.P2],
		res.SLAMet[rack.P3], res.Racks[rack.P3])
	fmt.Printf("  last charge completed:    %v after the transition\n",
		res.LastChargeDone.Round(time.Second))
	if len(res.Tripped) > 0 {
		fmt.Printf("  BREAKERS TRIPPED:         %v\n", res.Tripped)
	}
	printKernelLine(res)
	printStormSummary(spec, res)
	printGridSummary(spec, res)
	printFaultSummary(spec, res)
}

// printKernelLine reports which tick loop ran: the event kernel with its
// tick accounting, or the dense loop with the feature that forced it (none
// when the run asked for dense).
func printKernelLine(res *scenario.CoordResult) {
	if n := res.KernelTicksExecuted + res.KernelTicksSkipped; n > 0 {
		fmt.Printf("  kernel:                   event, %d/%d ticks executed densely (%d skipped)\n",
			res.KernelTicksExecuted, n, res.KernelTicksSkipped)
		return
	}
	reason := res.KernelFallback
	if reason == "" {
		reason = "requested"
	}
	fmt.Printf("  kernel:                   dense (%s)\n", reason)
}

// printStormSummary reports the grid event's battery-side cost and what the
// storm machinery did. Silent when neither admission nor the guard is armed
// and the batteries carried the whole outage.
func printStormSummary(spec scenario.CoordSpec, res *scenario.CoordResult) {
	if res.UnservedEnergy > 0 || res.LoadDropEvents > 0 {
		fmt.Printf("  UNSERVED IT LOAD:         %v across %d rack load drops\n",
			res.UnservedEnergy, res.LoadDropEvents)
	}
	if spec.Storm != nil {
		fmt.Printf("  storm admission:          storms %d, paused %d, admitted %d in %d waves (max queue %d, promotions %d)\n",
			res.Storm.Storms, res.Storm.Enqueued, res.Storm.Admitted,
			res.Storm.Waves, res.Storm.MaxQueue, res.Storm.Promotions)
	}
	if spec.Guard != nil {
		fmt.Printf("  breaker guard:            fires %d, demoted %d, paused %d, IT capped %d (max cut %v), resumed %d\n",
			res.Guard.Fires, res.Guard.Demoted, res.Guard.Paused,
			res.Guard.ITCapped, res.Guard.MaxITCut, res.Guard.Resumed)
	}
}

// printGridSummary reports what the grid signal plane did: event and defer
// activity, cap enforcement, peak shaving, and the run's grid-facing
// integrals. Silent when the grid plane is off.
func printGridSummary(spec scenario.CoordSpec, res *scenario.CoordResult) {
	if spec.Grid == nil {
		return
	}
	g := res.Grid
	fmt.Printf("  grid signals:             cap changes %d, droop %d, DR windows %d, defer ticks %d (valve lifts %d)\n",
		g.CapChanges, g.DroopEvents, g.DRWindows, g.DeferTicks, g.DeferLifts)
	fmt.Printf("  grid cap enforcement:     demoted %d, paused %d, SLA repairs %d; violations %d ticks (max over %v)\n",
		g.CapDemotions, g.CapPauses, g.SLARepairs, g.ViolationTicks, g.MaxOverCap)
	if g.ShaveStarts > 0 {
		fmt.Printf("  grid peak shaving:        %d starts (%d rotations), %v carried by batteries\n",
			g.ShaveStarts, g.ShaveRotations, g.ShavedEnergy)
	}
	line := fmt.Sprintf("  grid draw:                peak %v, %v total", g.PeakDraw, g.GridEnergy)
	if spec.Grid.Price != nil {
		line += fmt.Sprintf(", $%.2f energy cost", g.EnergyCost)
	}
	if spec.Grid.Carbon != nil {
		line += fmt.Sprintf(", %.1f kg CO2", g.CarbonKg)
	}
	fmt.Println(line)
}

// printFaultSummary reports what the injector did to the control plane and how
// the degraded modes responded. Silent when fault injection is off and no
// watchdog is armed.
func printFaultSummary(spec scenario.CoordSpec, res *scenario.CoordResult) {
	if !spec.Faults.Enabled() && spec.WatchdogTTL == 0 {
		return
	}
	c := res.FaultCounters
	fmt.Printf("  faults injected:          reads dropped %d / stale %d; commands dropped %d, duplicated %d, delayed %d; outages %d agent, %d controller\n",
		c.ReadsDropped, c.ReadsStaled, c.CommandsDropped, c.CommandsDuplicated,
		c.CommandsDelayed, c.AgentOutages, c.ControllerOutages)
	fmt.Printf("  degraded-mode response:   retries %d, abandoned %d, stale evals %d, controller restarts %d/%d, fail-safe activations %d\n",
		res.Metrics.Retries, res.Metrics.AbandonedOverrides, res.Metrics.StaleTelemetry,
		res.Metrics.Restarts, res.Metrics.Crashes, res.FailSafeActivations)
}

// printAnalytics renders the run's distribution analytics.
func printAnalytics(res *scenario.CoordResult) {
	fmt.Println()
	check(scenario.ChargeDurationTable(res).Render(os.Stdout))
	fmt.Println()
	check(scenario.DODHistogramTable(res, 8).Render(os.Stdout))
	fmt.Println()
	check(scenario.ChargeDurationCDF(res).RenderASCII(os.Stdout, 78, 16))
}

// runEndurance executes the multi-year realized-AOR simulation and prints
// the comparison against Table II targets.
func runEndurance(e config.Endurance, csv bool, h harness) {
	spec, err := e.EnduranceSpec()
	check(err)
	spec.Checkpoint, spec.CheckpointEvery, spec.Resume = h.checkpoint, h.interval, h.resume
	spec.Interrupt = armInterrupt()
	res, err := scenario.RunEndurance(spec)
	check(err)
	if res.Interrupted {
		reportInterrupted(h)
		return
	}
	render(scenario.EnduranceTable(res), csv)
	fmt.Printf("\nmax server capping over the horizon: %v; overrides issued: %d\n",
		res.Metrics.MaxCapping, res.Metrics.OverridesIssued)
}

// runCustom executes one -run experiment and prints a summary.
func runCustom(req *svc.RunRequest, h harness) {
	spec, err := runSpec(req)
	check(err)
	spec.Kernel = h.kernel
	spec.Checkpoint, spec.CheckpointEvery, spec.Resume = h.checkpoint, h.interval, h.resume
	spec.Interrupt = armInterrupt()
	res, err := scenario.RunCoordinated(spec)
	check(err)
	if res.Interrupted {
		reportInterrupted(h)
		return
	}
	printCoordSummary(spec, res)
	if h.analytics {
		printAnalytics(res)
	}
}
