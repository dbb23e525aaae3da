package main

import (
	"fmt"

	"coordcharge/internal/ckpt"
)

// flagValues is the subset of parsed flag state that cross-flag validation
// needs: which flags were set explicitly, plus the values whose contents
// (not just presence) participate in a rule. Keeping it a plain struct makes
// the validation pure and table-testable; main assembles it from the flag
// package and exits 2 on the first error.
type flagValues struct {
	set     map[string]bool
	pace    float64
	seed    int64
	resume  string
	gridFig string
	kernel  string
}

// validateCombination rejects incoherent flag combinations up front, before
// any simulation work starts, so a typo'd invocation fails fast with a clear
// message instead of silently ignoring half the flags. It returns the first
// violation found, or nil.
func validateCombination(v flagValues) error {
	set := v.set
	// Flags that only mean something inside a custom -run experiment.
	for _, name := range []string{"storm", "faults", "watchdog", "latency", "distributed", "trace", "analytics", "serve", "pace", "admission", "guard", "grid", "kernel"} {
		if set[name] && !set["run"] {
			return fmt.Errorf("-%s requires -run", name)
		}
	}
	if set["kernel"] {
		switch v.kernel {
		case "dense", "event":
		default:
			return fmt.Errorf(`-kernel must be "dense" or "event" (got %q)`, v.kernel)
		}
	}
	if set["run"] {
		for _, name := range []string{"fig", "table", "all", "endurance", "config", "grid-fig"} {
			if set[name] {
				return fmt.Errorf("-run is incompatible with -%s", name)
			}
		}
	}
	// Storm machinery needs a storm to act on.
	for _, name := range []string{"admission", "guard"} {
		if set[name] && !set["storm"] {
			return fmt.Errorf("-%s requires -storm (there is no recharge storm without a grid event)", name)
		}
	}
	// Series files attach to a grid spec; without -grid they would be read
	// and silently dropped.
	for _, name := range []string{"grid-cap-csv", "grid-price-csv", "grid-carbon-csv"} {
		if set[name] && !set["grid"] {
			return fmt.Errorf("-%s requires -grid (the series attaches to the grid signal plane)", name)
		}
	}
	if set["grid-fig"] {
		switch v.gridFig {
		case "shrink", "shave":
		default:
			return fmt.Errorf(`-grid-fig must be "shrink" or "shave" (got %q)`, v.gridFig)
		}
		for _, name := range []string{"endurance", "config"} {
			if set[name] {
				return fmt.Errorf("-grid-fig is incompatible with -%s", name)
			}
		}
	}
	if set["pace"] && !set["serve"] {
		return fmt.Errorf("-pace requires -serve (pacing only matters when something is scraping the run)")
	}
	if set["pace"] && v.pace < 0 {
		return fmt.Errorf("-pace must be >= 0 (got %v)", v.pace)
	}
	if set["years"] && !set["endurance"] {
		return fmt.Errorf("-years requires -endurance")
	}
	// Checkpoint/resume only exist on the long-running paths.
	if set["checkpoint-interval"] && !set["checkpoint"] {
		return fmt.Errorf("-checkpoint-interval requires -checkpoint")
	}
	for _, name := range []string{"checkpoint", "resume"} {
		if set[name] && !set["run"] && !set["endurance"] {
			return fmt.Errorf("-%s requires -run or -endurance", name)
		}
	}
	if set["resume"] && set["config"] {
		return fmt.Errorf("-resume is incompatible with -config (resume describes the experiment through flags)")
	}
	if set["resume"] {
		// Catch a seed mismatch at flag time, before the fleet is built: the
		// scenario layer would reject it anyway, but here it is a usage
		// error (exit 2) with the flag named.
		ckSeed, err := checkpointSeed(v.resume)
		if err != nil {
			return fmt.Errorf("-resume %s: %v", v.resume, err)
		}
		if ckSeed != v.seed {
			return fmt.Errorf("-resume %s was checkpointed with -seed %d, but this invocation uses -seed %d", v.resume, ckSeed, v.seed)
		}
	}
	return nil
}

// checkpointSeed reads just the seed out of the checkpoint generation a
// resume would restore: the latest file, or its rotated previous generation
// when the latest fails verification.
func checkpointSeed(path string) (int64, error) {
	var probe struct {
		Seed int64 `json:"seed"`
	}
	if _, err := ckpt.ReadFileFallback(path, &probe); err != nil {
		return 0, err
	}
	return probe.Seed, nil
}
