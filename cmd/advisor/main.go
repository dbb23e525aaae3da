// Command advisor answers the capacity question behind the paper's
// introduction: how much breaker capacity does a rack population need under
// a given charging strategy? It compares static worst-case provisioning
// (peak IT plus 1.9 kW of recharge per rack — the 25 % reserve the paper
// calls "stranded most of the time") against the minimum limit at which the
// strategy avoids all server capping and meets every feasible charging-time
// SLA, and prices the difference at the paper's $10–$20 per watt.
//
// Usage:
//
//	advisor -p1 89 -p2 142 -p3 85 -dod 0.7 -mode priority-aware
//	advisor -mode none -policy original        # the uncoordinated baseline
//
// The flags bind an svc.AdvisorRequest, the type POST /api/v1/advise decodes
// and an experiment file's "advisor" section holds.
package main

import (
	"flag"
	"fmt"
	"os"

	"coordcharge/internal/scenario"
	"coordcharge/internal/svc"
)

func main() {
	q := svc.AdvisorRequest{
		P1: 89, P2: 142, P3: 85, AvgDOD: 0.7, Seed: 1, ResolutionKW: 10,
		Mode: "priority-aware", Policy: "variable",
	}
	q.Flags(flag.CommandLine)
	csv := flag.Bool("csv", false, "emit CSV")
	flag.Parse()

	spec, err := q.Spec()
	check(err)
	adv, err := scenario.Advise(spec)
	check(err)
	tbl := scenario.AdviceTable(adv)
	if *csv {
		check(tbl.RenderCSV(os.Stdout))
	} else {
		check(tbl.Render(os.Stdout))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "advisor: %v\n", err)
		os.Exit(1)
	}
}
