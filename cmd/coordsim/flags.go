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
	set    map[string]bool
	seed   int64
	resume string
	kernel string
}

// validateCombination rejects incoherent flag combinations up front, before
// any simulation work starts, so a typo'd invocation fails fast with a clear
// message instead of silently ignoring half the flags. It returns the first
// violation found, or nil.
func validateCombination(v flagValues) error {
	set := v.set
	// Flags that only mean something inside a custom -run experiment.
	for _, name := range []string{"storm", "faults", "watchdog", "latency", "distributed", "trace", "analytics", "admission", "guard", "grid", "kernel"} {
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
	// -run, -endurance and -config are the three modes, and one runs. A
	// missing mode is reported last, after the rules that name a flag.
	modes := 0
	for _, name := range []string{"run", "endurance", "config"} {
		if set[name] {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-run, -endurance and -config are exclusive")
	}
	// Only the tables of -config and -endurance have a CSV form; a -run
	// summary would print the same text with or without it.
	if set["csv"] && !set["config"] && !set["endurance"] {
		return fmt.Errorf("-csv requires -config or -endurance")
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
	if modes == 0 {
		return fmt.Errorf("pass -run, -config or -endurance; the paper's figures and tables come from reproduce (go run ./cmd/reproduce -out artifacts)")
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
