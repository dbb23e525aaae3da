// Command coordsim runs one coordinated-charging experiment of the MSB-level
// evaluation (the paper's §V-B: 316 racks, 89 P1 / 142 P2 / 85 P3, replaying
// a synthetic production trace with an open transition at the first peak)
// and prints its summary, or the multi-year endurance run, or the
// experiments of a JSON file. The paper's figures and tables come from
// reproduce (go run ./cmd/reproduce -out artifacts).
//
// Usage:
//
//	coordsim -run -mode postpone -limit 2.15 -dod 0.7 [-analytics]
//	coordsim -run -trace t.csv -p1 4 -p2 4 -p3 4   # replay an imported trace
//	coordsim -run -faults default -watchdog 30s    # degraded control plane
//	coordsim -run -distributed -latency 20s        # message-passing plane
//	coordsim -run -faults cmdloss=0.2,ctlmtbf=10m,ctlmttr=8s
//	coordsim -run -storm 90s -admission -guard     # grid event + storm survival
//	coordsim -run -storm 90s -admission -guard -grid "capshrink=3h+2h(0.3)"
//	coordsim -endurance -years 50 [-csv]           # realized AOR vs Table II
//	coordsim -config exp.json [-csv]               # experiments from a file
//
// A -run experiment, an experiment file's "coordinated" section, coordd's
// resident and a POST /api/v1/run body are all one svc.RunRequest; its Flags
// method binds the experiment flags above, shared with coordd. To watch a
// run live over /metrics and /debug/flight, run it as coordd's resident
// with -pace.
package main

import (
	"flag"
	"fmt"
	"os"

	"coordcharge/internal/config"
	"coordcharge/internal/svc"
)

func main() {
	req := svc.PaperRun()
	req.Flags(flag.CommandLine)
	csv := flag.Bool("csv", false, "emit the tables of -config and -endurance as CSV instead of text")
	configPath := flag.String("config", "", "run the experiments in a JSON experiment file")
	// Endurance flags.
	endurance := flag.Bool("endurance", false, "run the multi-year realized-AOR endurance simulation")
	years := flag.Float64("years", 50, "endurance horizon in simulated years")
	// Custom single-experiment harness flags; the experiment itself is the
	// request bound above.
	run := flag.Bool("run", false, "run one custom experiment")
	flag.StringVar(&req.Trace, "trace", "", "custom run: CSV trace file (tracegen format) replacing the synthetic trace")
	analytics := flag.Bool("analytics", false, "custom run: also print duration/DOD distribution analytics")
	gridCapCSV := flag.String("grid-cap-csv", "", "custom run: interconnection-cap series CSV (offset,value rows; watts) attached to -grid")
	gridPriceCSV := flag.String("grid-price-csv", "", "custom run: energy-price series CSV ($/MWh) attached to -grid")
	gridCarbonCSV := flag.String("grid-carbon-csv", "", "custom run: carbon-intensity series CSV (gCO2/kWh) attached to -grid")
	kernel := flag.String("kernel", "", "tick-loop kernel of a -run experiment: event (the default; analytic advance between state-change events, bit-identical results) or dense (every tick)")
	// Checkpoint/resume flags (custom and endurance runs).
	checkpoint := flag.String("checkpoint", "", "write a crash-safe checkpoint to this path at -checkpoint-interval of virtual time; SIGTERM writes a final checkpoint and exits 0")
	checkpointInterval := flag.Duration("checkpoint-interval", 0, "virtual time between checkpoint writes (default: 5m for -run, 30 days for -endurance)")
	resume := flag.String("resume", "", "resume a checkpointed run from this file; the other flags must describe the same experiment")
	flag.Parse()
	validateFlags(req.Seed, *resume, *kernel)
	h := harness{kernel: *kernel, analytics: *analytics,
		checkpoint: *checkpoint, interval: *checkpointInterval, resume: *resume}

	switch {
	case *run:
		check(loadGridSeries(&req, *gridCapCSV, *gridPriceCSV, *gridCarbonCSV))
		runCustom(&req, h)
	case *endurance:
		runEndurance(config.Endurance{
			Years: *years, P1: req.P1, P2: req.P2, P3: req.P3,
			Mode: req.Mode, Policy: req.Policy, LimitMW: req.LimitMW, Seed: req.Seed,
		}, *csv, h)
	default: // validateCombination admits exactly one mode
		runConfig(*configPath, *csv)
	}
}

// validateFlags assembles the parsed flag state and exits 2 on the first
// combination error (see validateCombination for the rules).
func validateFlags(seed int64, resume, kernel string) {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateCombination(flagValues{set: set, seed: seed, resume: resume, kernel: kernel}); err != nil {
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
