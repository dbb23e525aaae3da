// Command coordvet runs the repo's domain-aware static analysis suite
// (internal/lint): seven analyzers enforcing the contracts the runtime tests
// can only check after the fact — control-plane determinism, map-iteration
// order feeding the flight digest, nil-safe observability, mutex
// annotations, error hygiene, unit/dimension safety, and goroutine lifecycle
// discipline.
//
// Usage:
//
//	go run ./cmd/coordvet ./...                       # whole repo
//	go run ./cmd/coordvet -baseline coordvet_baseline.json ./...   # CI gate
//	go run ./cmd/coordvet -run determinism ./internal/...
//	go run ./cmd/coordvet -fix ./...                  # apply suggested fixes
//	go run ./cmd/coordvet -format sarif -out vet.sarif ./...
//	go run ./cmd/coordvet -list
//
// Modes:
//
//   - -baseline FILE subtracts the committed debt ledger from the findings:
//     only findings not in the ledger fail the run. Ledger entries that no
//     longer match anything are reported to stderr as retired (prune them
//     with -write-baseline). A missing FILE is an empty ledger.
//   - -write-baseline FILE writes the ledger covering exactly the current
//     findings and exits 0 — the one-time capture when a new analyzer
//     lands, and the prune step when debt is paid down.
//   - -fix applies every machine-safe suggested fix in place (today:
//     inserting TODO-justified //coordvet:detached annotations), reports
//     what it changed, and exits 0; re-run coordvet to see what remains.
//     Conflicting fixes in one file are skipped.
//   - -format sarif emits SARIF 2.1.0 (for CI annotators) instead of the
//     text lines; -out FILE redirects either format to a file.
//
// Exit status: 0 clean, 1 findings, 2 usage or load error. Findings are
// reported as file:line:col: [analyzer] message. Suppress a single finding
// with `//coordvet:ignore <analyzer> <justification>` on the same line or
// the line above; stale suppressions are themselves findings.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"coordcharge/internal/lint"
)

func main() {
	runList := flag.String("run", "", "comma-separated analyzers to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	fix := flag.Bool("fix", false, "apply suggested fixes in place and exit")
	baselinePath := flag.String("baseline", "", "subtract the findings ledger at this path; fail only on new findings")
	writeBaseline := flag.String("write-baseline", "", "write a ledger covering the current findings to this path and exit")
	format := flag.String("format", "text", "output format: text or sarif")
	outPath := flag.String("out", "", "write findings to this file instead of stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: coordvet [-run a,b] [-fix] [-baseline file] [-write-baseline file] [-format text|sarif] [-out file] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-20s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "coordvet: unknown -format %q (want text or sarif)\n", *format)
		os.Exit(2)
	}

	analyzers := lint.All()
	if *runList != "" {
		var err error
		analyzers, err = lint.ByName(*runList)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coordvet:", err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "coordvet:", err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coordvet:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coordvet:", err)
		os.Exit(2)
	}

	prog := loader.Program(pkgs)
	diags := lint.Run(prog, analyzers)

	if *fix {
		fixed, applied, skipped, err := lint.ApplyFixes(prog, diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coordvet:", err)
			os.Exit(2)
		}
		files := make([]string, 0, len(fixed))
		for file := range fixed {
			files = append(files, file)
		}
		sort.Strings(files)
		for _, file := range files {
			if err := os.WriteFile(file, fixed[file], 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "coordvet:", err)
				os.Exit(2)
			}
		}
		fmt.Printf("coordvet: applied %d fix(es) across %d file(s)\n", applied, len(fixed))
		for _, d := range skipped {
			fmt.Printf("coordvet: skipped conflicting fix: %s\n", d)
		}
		return
	}

	if *writeBaseline != "" {
		b := lint.NewBaseline(loader.ModRoot, diags)
		if err := lint.WriteBaseline(*writeBaseline, b); err != nil {
			fmt.Fprintln(os.Stderr, "coordvet:", err)
			os.Exit(2)
		}
		fmt.Printf("coordvet: wrote %d baseline entr(ies) to %s\n", len(b.Findings), *writeBaseline)
		return
	}

	if *baselinePath != "" {
		b, err := lint.ReadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coordvet:", err)
			os.Exit(2)
		}
		fresh, retired := b.Filter(loader.ModRoot, diags)
		for _, e := range retired {
			fmt.Fprintf(os.Stderr, "coordvet: baseline entry retired (finding fixed): %s [%s] %s\n",
				e.File, e.Analyzer, e.Message)
		}
		if len(retired) > 0 {
			fmt.Fprintf(os.Stderr, "coordvet: prune retired entries with -write-baseline %s\n", *baselinePath)
		}
		diags = fresh
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coordvet:", err)
			os.Exit(2)
		}
		defer f.Close()
		out = f
	}

	switch *format {
	case "sarif":
		if err := lint.WriteSARIF(out, loader.ModRoot, analyzers, diags); err != nil {
			fmt.Fprintln(os.Stderr, "coordvet:", err)
			os.Exit(2)
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "coordvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
