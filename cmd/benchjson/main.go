// Command benchjson converts `go test -bench` text output on stdin into a
// JSON document on stdout, so benchmark results can be archived and diffed
// mechanically (see `make bench-json`).
//
// Each benchmark line
//
//	BenchmarkStormRecovery-8   1   203417385 ns/op   97.30 recovery-min
//
// becomes
//
//	{"name":"StormRecovery","pkg":"coordcharge","procs":8,"iterations":1,
//	 "metrics":{"ns/op":203417385,"recovery-min":97.3}}
//
// Non-benchmark lines (goos/goarch/cpu headers, PASS/ok trailers) set the
// document's context fields and are otherwise ignored, so the tool can be fed
// the raw output of `go test -bench=. ./...` across many packages.
//
// Repeated lines of one benchmark (`go test -count N`) fold into one result
// holding each metric's median over the runs, with "runs" recording N; both
// the converter and the -compare gate read the folded medians, so one slow
// or fast pass neither fails the gate nor sets the baseline.
//
// With -compare old.json the tool becomes a regression gate instead of a
// converter: fresh `go test -bench` text on stdin is parsed and its ns/op
// diffed against the archived document. Any benchmark slower than the
// baseline by more than -tolerance percent — or present in the baseline but
// missing from stdin — fails the run (exit 1). See `make bench-compare`.
//
// -min-speedup N adds an absolute floor on the event kernel: every new-run
// benchmark named X/event must have an X/dense sibling at least N times
// slower. Unlike the relative tolerance gate, this floor cannot drift — a
// sequence of sub-tolerance regressions still fails once the measured
// speedup crosses under N.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"coordcharge/internal/ckpt"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string `json:"name"`
	Pkg        string `json:"pkg,omitempty"`
	Procs      int    `json:"procs,omitempty"`
	Iterations int64  `json:"iterations"`
	// Runs is how many repeated lines were folded into Metrics' medians
	// (absent for a single run).
	Runs    int                `json:"runs,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

// Doc is the whole document: machine context plus every benchmark.
type Doc struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	compareWith := flag.String("compare", "", "baseline JSON document to diff ns/op against (regression-gate mode)")
	tolerance := flag.Float64("tolerance", 10, "allowed ns/op regression in percent before -compare fails")
	floor := flag.Float64("floor", 0, "baseline ns/op below which a benchmark is reported but not gated (single-iteration noise)")
	minSpeedup := flag.Float64("min-speedup", 0, "with -compare: minimum dense/event ns/op ratio for every X/event benchmark in the new run (0 disables)")
	out := flag.String("out", "", "write the JSON document to this file atomically (temp+fsync+rename) instead of stdout, so a crash mid-run cannot tear an archived baseline")
	flag.Parse()

	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *compareWith != "" {
		old, err := loadDoc(*compareWith)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		report, ok := compare(old, doc, *tolerance, *floor)
		fmt.Print(report)
		if *minSpeedup > 0 {
			spReport, spOK := speedupGate(doc, *minSpeedup, *floor)
			fmt.Print(spReport)
			ok = ok && spOK
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = ckpt.WriteAtomic(*out, append(data, '\n'))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func loadDoc(path string) (*Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	doc := &Doc{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compare diffs new ns/op against old, benchmark by benchmark (matched by
// name). It returns a human-readable report and whether the gate passes:
// every baseline benchmark must be present in the new run and no more than
// tolerance percent slower. New-only benchmarks and baseline entries without
// an ns/op metric are reported but never fail the gate; neither do
// benchmarks whose baseline cost is under floor ns — at one measured
// iteration their timing is dominated by scheduler noise, not by the code
// under test (they must still be present, so renames refresh the baseline).
func compare(old, new *Doc, tolerance, floor float64) (string, bool) {
	newByName := map[string]Result{}
	for _, r := range new.Benchmarks {
		newByName[r.Name] = r
	}
	var b strings.Builder
	ok := true
	for _, base := range old.Benchmarks {
		baseNs, has := base.Metrics["ns/op"]
		if !has || baseNs <= 0 {
			fmt.Fprintf(&b, "  ?  %-40s baseline has no ns/op\n", base.Name)
			continue
		}
		cur, found := newByName[base.Name]
		if !found {
			fmt.Fprintf(&b, "FAIL %-40s missing from new run\n", base.Name)
			ok = false
			continue
		}
		curNs := cur.Metrics["ns/op"]
		delta := (curNs - baseNs) / baseNs * 100
		verdict := " ok "
		switch {
		case baseNs < floor:
			verdict = "  - " // under the noise floor: informational only
		case delta > tolerance:
			verdict = "FAIL"
			ok = false
		}
		fmt.Fprintf(&b, "%s %-40s %14.0f -> %14.0f ns/op  %+7.1f%%\n",
			verdict, base.Name, baseNs, curNs, delta)
	}
	baseNames := map[string]bool{}
	for _, r := range old.Benchmarks {
		baseNames[r.Name] = true
	}
	var added []string
	for name := range newByName {
		if !baseNames[name] {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Fprintf(&b, " new %-40s %14.0f ns/op (no baseline)\n",
			name, newByName[name].Metrics["ns/op"])
	}
	if ok {
		fmt.Fprintf(&b, "benchjson: gate passed (tolerance %.0f%%)\n", tolerance)
	} else {
		fmt.Fprintf(&b, "benchjson: gate FAILED (tolerance %.0f%%)\n", tolerance)
	}
	return b.String(), ok
}

// speedupGate enforces the event kernel's absolute performance floor on the
// new run: for every benchmark named X/event there must be an X/dense
// sibling, and dense must cost at least min times event's ns/op. Finding no
// pairs at all fails too — losing the kernel benchmarks entirely must not
// read as a pass. An event arm under the noise floor is reported but not
// gated — its single-iteration ratio is scheduler noise — and a regression
// severe enough to push it over the floor re-arms the gate automatically.
func speedupGate(doc *Doc, min, floor float64) (string, bool) {
	byName := map[string]Result{}
	var events []string
	for _, r := range doc.Benchmarks {
		byName[r.Name] = r
		if strings.HasSuffix(r.Name, "/event") {
			events = append(events, r.Name)
		}
	}
	sort.Strings(events)
	var b strings.Builder
	ok := true
	for _, name := range events {
		base := strings.TrimSuffix(name, "/event")
		dense, found := byName[base+"/dense"]
		if !found {
			fmt.Fprintf(&b, "FAIL %-40s has no %s/dense sibling\n", name, base)
			ok = false
			continue
		}
		eventNs := byName[name].Metrics["ns/op"]
		denseNs := dense.Metrics["ns/op"]
		if eventNs <= 0 || denseNs <= 0 {
			fmt.Fprintf(&b, "FAIL %-40s missing ns/op for the speedup ratio\n", name)
			ok = false
			continue
		}
		ratio := denseNs / eventNs
		verdict := " ok "
		switch {
		case eventNs < floor:
			verdict = "  - " // under the noise floor: informational only
		case ratio < min:
			verdict = "FAIL"
			ok = false
		}
		fmt.Fprintf(&b, "%s %-40s %6.1fx over dense (floor %.1fx)\n", verdict, name, ratio, min)
	}
	if len(events) == 0 {
		fmt.Fprintf(&b, "FAIL no */event benchmarks found to gate\n")
		ok = false
	}
	if ok {
		fmt.Fprintf(&b, "benchjson: speedup floor passed (>= %.1fx)\n", min)
	} else {
		fmt.Fprintf(&b, "benchjson: speedup floor FAILED (>= %.1fx)\n", min)
	}
	return b.String(), ok
}

func parse(sc *bufio.Scanner) (*Doc, error) {
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	doc := &Doc{Benchmarks: []Result{}}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok, err := parseBench(line, pkg)
			if err != nil {
				return nil, err
			}
			if ok {
				doc.Benchmarks = append(doc.Benchmarks, r)
			}
		}
	}
	doc.Benchmarks = fold(doc.Benchmarks)
	return doc, sc.Err()
}

// fold merges the repeated results of each benchmark, keyed by package and
// name, into one at the position of its first run: every metric becomes its
// median over the runs that report it, and Iterations stays the first run's.
func fold(rs []Result) []Result {
	type key struct{ pkg, name string }
	at := map[key]int{}
	var groups [][]Result
	for _, r := range rs {
		k := key{r.Pkg, r.Name}
		i, ok := at[k]
		if !ok {
			i = len(groups)
			at[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	out := make([]Result, 0, len(groups))
	for _, g := range groups {
		r := g[0]
		if len(g) > 1 {
			seen := map[string]bool{}
			for _, run := range g {
				for unit := range run.Metrics {
					seen[unit] = true
				}
			}
			units := make([]string, 0, len(seen))
			for unit := range seen {
				units = append(units, unit)
			}
			sort.Strings(units)
			r.Runs, r.Metrics = len(g), make(map[string]float64, len(units))
			for _, unit := range units {
				var vs []float64
				for _, run := range g {
					if v, ok := run.Metrics[unit]; ok {
						vs = append(vs, v)
					}
				}
				r.Metrics[unit] = median(vs)
			}
		}
		out = append(out, r)
	}
	return out
}

// median returns the middle value of vs, or the mean of the middle two.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseBench parses one "BenchmarkName-P  N  value unit  value unit ..."
// line. Lines that merely start with "Benchmark" but do not follow the
// results grammar (e.g. a failure message) are skipped, not fatal.
func parseBench(line, pkg string) (Result, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false, nil
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	procs := 0
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			procs = p
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false, nil
	}
	r := Result{Name: name, Pkg: pkg, Procs: procs, Iterations: iters,
		Metrics: map[string]float64{}}
	// The tail is value/unit pairs; an odd leftover is a malformed line.
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Result{}, false, fmt.Errorf("odd value/unit tail in %q", line)
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Result{}, false, fmt.Errorf("bad value %q in %q", rest[i], line)
		}
		r.Metrics[rest[i+1]] = v
	}
	return r, true, nil
}
