// Command coordvet runs the repo's domain-aware static analysis suite
// (internal/lint): seven analyzers enforcing the contracts the runtime tests
// can only check after the fact — control-plane determinism, map-iteration
// order feeding the flight digest, nil-safe observability, mutex
// annotations, error hygiene, unit/dimension safety, and goroutine lifecycle
// discipline.
//
// Usage:
//
//	go run ./cmd/coordvet ./...                       # whole repo (the CI gate)
//	go run ./cmd/coordvet -run determinism ./internal/...
//	go run ./cmd/coordvet -list
//
// Package patterns resolve against the working directory, as the go
// command's do; a pattern that leaves the module is a usage error.
//
// Exit status: 0 clean, 1 findings, 2 usage or load error. Findings are
// reported as file:line:col: [analyzer] message. Suppress a single finding
// with `//coordvet:ignore <analyzer> <justification>` on the same line or
// the line above; stale suppressions are themselves findings.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"coordcharge/internal/lint"
)

func main() {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "coordvet:", err)
		os.Exit(2)
	}
	os.Exit(run(wd, os.Args[1:], os.Stdout, os.Stderr))
}

// run is coordvet over the module containing wd: findings go to stdout,
// the summary and errors to stderr, and the result is the exit status.
func run(wd string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coordvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runList := fs.String("run", "", "comma-separated analyzers to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: coordvet [-run a,b] [-list] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-20s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *runList != "" {
		var err error
		analyzers, err = lint.ByName(*runList)
		if err != nil {
			fmt.Fprintln(stderr, "coordvet:", err)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(wd)
	if err != nil {
		fmt.Fprintln(stderr, "coordvet:", err)
		return 2
	}
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "coordvet:", err)
		return 2
	}

	diags := lint.Run(loader.Program(pkgs), analyzers)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "coordvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
