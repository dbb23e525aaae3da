// Command coordsim runs the MSB-level coordinated-charging evaluation of the
// paper's §V-B: 316 racks (89 P1 / 142 P2 / 85 P3) replaying a synthetic
// production trace with an open transition injected at the first peak.
//
// Usage:
//
//	coordsim -fig 12             # the weekly aggregate trace
//	coordsim -fig 13 [-table 3]  # MSB power by algorithm × limit × discharge
//	coordsim -fig 14             # racks meeting SLA vs power limit (prod mix)
//	coordsim -fig 15             # ... for even and all-P1 distributions
//	coordsim -all
//
// Beyond the paper's artifacts:
//
//	coordsim -run -mode postpone -limit 2.15 -dod 0.7 [-analytics]
//	coordsim -run -trace t.csv -p1 4 -p2 4 -p3 4   # replay an imported trace
//	coordsim -run -faults default -watchdog 30s    # degraded control plane
//	coordsim -run -distributed -latency 20s        # message-passing plane
//	coordsim -run -faults cmdloss=0.2,ctlmtbf=10m,ctlmttr=8s
//	coordsim -run -storm 90s -admission -guard     # grid event + storm survival
//	coordsim -run -storm 90s -admission -guard -grid "capshrink=3h+2h(0.3)"
//	coordsim -grid-fig shrink                      # cap-shrink storm sweep
//	coordsim -grid-fig shave                       # peak-shave (VPP) figure
//	coordsim -endurance -years 50                  # realized AOR vs Table II
//	coordsim -config exp.json                      # experiments from a file
//
// A -run experiment, an experiment file's "coordinated" section, coordd's
// resident and a POST /api/v1/run body are all one svc.RunRequest; its Flags
// method binds the experiment flags above, shared with coordd.
package main

import (
	"flag"
	"fmt"
	"os"

	"coordcharge/internal/config"
	"coordcharge/internal/report"
	"coordcharge/internal/scenario"
	"coordcharge/internal/svc"
)

func main() {
	req := svc.PaperRun()
	req.Flags(flag.CommandLine)
	fig := flag.Int("fig", 0, "figure to regenerate (12, 13, 14, or 15)")
	table := flag.Int("table", 0, "table to regenerate (3)")
	all := flag.Bool("all", false, "regenerate every evaluation artifact")
	csv := flag.Bool("csv", false, "emit CSV instead of text")
	configPath := flag.String("config", "", "run the experiments in a JSON experiment file")
	// Endurance flags.
	endurance := flag.Bool("endurance", false, "run the multi-year realized-AOR endurance simulation")
	years := flag.Float64("years", 50, "endurance horizon in simulated years")
	// Custom single-experiment harness flags; the experiment itself is the
	// request bound above.
	run := flag.Bool("run", false, "run one custom experiment instead of a paper artifact")
	flag.StringVar(&req.Trace, "trace", "", "custom run: CSV trace file (tracegen format) replacing the synthetic trace")
	analytics := flag.Bool("analytics", false, "custom run: also print duration/DOD distribution analytics")
	gridCapCSV := flag.String("grid-cap-csv", "", "custom run: interconnection-cap series CSV (offset,value rows; watts) attached to -grid")
	gridPriceCSV := flag.String("grid-price-csv", "", "custom run: energy-price series CSV ($/MWh) attached to -grid")
	gridCarbonCSV := flag.String("grid-carbon-csv", "", "custom run: carbon-intensity series CSV (gCO2/kWh) attached to -grid")
	gridFig := flag.String("grid-fig", "", "grid experiment to regenerate: shrink (storm recovery under a shrinking cap) or shave (peak shaving, the BBU fleet as a virtual power plant)")
	kernel := flag.String("kernel", "", "tick-loop kernel of a -run experiment: event (the default; analytic advance between state-change events, bit-identical results) or dense (every tick)")
	serve := flag.String("serve", "", "custom run: serve the observability surface (/metrics, /healthz, /debug/flight, pprof) on this address while the run executes, e.g. :8080")
	pace := flag.Float64("pace", 0, "custom run: simulated seconds per wall-clock second (0 = free-running); requires -serve")
	// Checkpoint/resume flags (custom and endurance runs).
	checkpoint := flag.String("checkpoint", "", "write a crash-safe checkpoint to this path at -checkpoint-interval of virtual time; SIGTERM writes a final checkpoint and exits 0")
	checkpointInterval := flag.Duration("checkpoint-interval", 0, "virtual time between checkpoint writes (default: 5m for -run, 30 days for -endurance)")
	resume := flag.String("resume", "", "resume a checkpointed run from this file; the other flags must describe the same experiment")
	flag.Parse()
	validateFlags(*pace, req.Seed, *resume, *gridFig, *kernel)
	h := harness{kernel: *kernel, serve: *serve, pace: *pace, analytics: *analytics,
		checkpoint: *checkpoint, interval: *checkpointInterval, resume: *resume}

	if *configPath != "" {
		runConfig(*configPath, *csv)
		return
	}
	if *run {
		check(loadGridSeries(&req, *gridCapCSV, *gridPriceCSV, *gridCarbonCSV))
		runCustom(&req, h)
		return
	}
	if *endurance {
		runEndurance(config.Endurance{
			Years: *years, P1: req.P1, P2: req.P2, P3: req.P3,
			Mode: req.Mode, Policy: req.Policy, LimitMW: req.LimitMW, Seed: req.Seed,
		}, *csv, h)
		return
	}

	emitChart := func(c *report.Chart) {
		var err error
		if *csv {
			err = c.RenderCSV(os.Stdout)
		} else {
			err = c.RenderASCII(os.Stdout, 78, 18)
		}
		check(err)
		fmt.Println()
	}

	ran := false
	switch *gridFig {
	case "shrink":
		res, err := scenario.RunGridShrink(req.Seed)
		check(err)
		emitChart(res.Chart)
		if *csv {
			check(res.Table.RenderCSV(os.Stdout))
		} else {
			check(res.Table.Render(os.Stdout))
		}
		fmt.Println()
		ran = true
	case "shave":
		res, err := scenario.RunGridShave(req.Seed)
		check(err)
		emitChart(res.Chart)
		g := res.Run.Grid
		fmt.Printf("shave: %d starts (%d rotations), %v carried by batteries; cap violations %d; peak draw %v\n",
			g.ShaveStarts, g.ShaveRotations, g.ShavedEnergy, g.ViolationTicks, g.PeakDraw)
		ran = true
	}
	if *all || *fig == 12 {
		c, err := scenario.Fig12Chart(req.Seed)
		check(err)
		emitChart(c)
		ran = true
	}
	if *all || *fig == 13 || *table == 3 {
		res, err := scenario.RunFig13(req.Seed)
		check(err)
		if *all || *fig == 13 {
			for _, c := range res.Charts {
				emitChart(c)
			}
		}
		if *csv {
			check(res.TableIII.RenderCSV(os.Stdout))
		} else {
			check(res.TableIII.Render(os.Stdout))
		}
		fmt.Println()
		ran = true
	}
	if *all || *fig == 14 {
		charts, err := scenario.RunFig14(req.Seed)
		check(err)
		for _, c := range charts {
			emitChart(c)
		}
		ran = true
	}
	if *all || *fig == 15 {
		charts, err := scenario.RunFig15(req.Seed)
		check(err)
		for _, c := range charts {
			emitChart(c)
		}
		ran = true
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "coordsim: pass -fig 12|13|14|15, -table 3, -grid-fig shrink|shave, or -all")
		flag.Usage()
		os.Exit(2)
	}
}

// validateFlags assembles the parsed flag state and exits 2 on the first
// combination error (see validateCombination for the rules).
func validateFlags(pace float64, seed int64, resume, gridFig, kernel string) {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateCombination(flagValues{set: set, pace: pace, seed: seed, resume: resume, gridFig: gridFig, kernel: kernel}); err != nil {
		fmt.Fprintf(os.Stderr, "coordsim: %v\n", err)
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "coordsim: %v\n", err)
		os.Exit(1)
	}
}
