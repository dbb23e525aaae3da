package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: coordcharge
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkStormRecovery-8   	       1	 203417385 ns/op	        97.30 recovery-min
BenchmarkObsOverhead/disabled-8         	       2	 100777446 ns/op
BenchmarkObsOverhead/enabled-8          	       2	 134066046 ns/op	      5540 events
PASS
ok  	coordcharge	12.3s
`

func TestParse(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.CPU == "" {
		t.Fatalf("context not captured: %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "StormRecovery" || b.Pkg != "coordcharge" || b.Procs != 8 || b.Iterations != 1 {
		t.Fatalf("first benchmark = %+v", b)
	}
	if b.Metrics["ns/op"] != 203417385 || b.Metrics["recovery-min"] != 97.30 {
		t.Fatalf("first benchmark metrics = %v", b.Metrics)
	}
	if doc.Benchmarks[2].Name != "ObsOverhead/enabled" || doc.Benchmarks[2].Metrics["events"] != 5540 {
		t.Fatalf("sub-benchmark = %+v", doc.Benchmarks[2])
	}
}

func TestParseSkipsMalformedNames(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader("BenchmarkBroken\nBenchmarkAlso-8 notanumber ns/op\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from garbage, want 0", len(doc.Benchmarks))
	}
}

func docFromText(t *testing.T, text string) *Doc {
	t.Helper()
	doc, err := parse(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return doc
}

func TestCompareWithinTolerance(t *testing.T) {
	old := docFromText(t, "BenchmarkA 1 1000 ns/op")
	cur := docFromText(t, "BenchmarkA 1 1080 ns/op")
	report, ok := compare(old, cur, 10, 0)
	if !ok {
		t.Fatalf("8%% regression failed a 10%% gate:\n%s", report)
	}
	if !strings.Contains(report, "gate passed") {
		t.Fatalf("report missing pass marker:\n%s", report)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	old := docFromText(t, "BenchmarkA 1 1000 ns/op")
	cur := docFromText(t, "BenchmarkA 1 1500 ns/op")
	report, ok := compare(old, cur, 10, 0)
	if ok {
		t.Fatalf("50%% regression passed a 10%% gate:\n%s", report)
	}
	if !strings.Contains(report, "FAIL") {
		t.Fatalf("report missing failure marker:\n%s", report)
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	old := docFromText(t, "BenchmarkA 1 1000 ns/op")
	cur := docFromText(t, "BenchmarkA 1 400 ns/op")
	if report, ok := compare(old, cur, 10, 0); !ok {
		t.Fatalf("speedup failed the gate:\n%s", report)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	old := docFromText(t, "BenchmarkA 1 1000 ns/op\nBenchmarkB 1 2000 ns/op")
	cur := docFromText(t, "BenchmarkA 1 1000 ns/op")
	report, ok := compare(old, cur, 10, 0)
	if ok {
		t.Fatalf("missing benchmark passed the gate:\n%s", report)
	}
	if !strings.Contains(report, "missing from new run") {
		t.Fatalf("report missing the missing-benchmark marker:\n%s", report)
	}
}

func TestCompareNewBenchmarkReportedNotFatal(t *testing.T) {
	old := docFromText(t, "BenchmarkA 1 1000 ns/op")
	cur := docFromText(t, "BenchmarkA 1 1000 ns/op\nBenchmarkNew 1 5 ns/op")
	report, ok := compare(old, cur, 10, 0)
	if !ok {
		t.Fatalf("new benchmark failed the gate:\n%s", report)
	}
	if !strings.Contains(report, "no baseline") {
		t.Fatalf("report missing new-benchmark marker:\n%s", report)
	}
}

func TestSpeedupGate(t *testing.T) {
	cur := docFromText(t, `BenchmarkFig13Kernel/dense 1 100000000 ns/op
BenchmarkFig13Kernel/event 1 10000000 ns/op
BenchmarkStormKernel/dense 1 25000000 ns/op
BenchmarkStormKernel/event 1 4000000 ns/op`)
	if report, ok := speedupGate(cur, 5, 0); !ok {
		t.Fatalf("10x and 6.25x speedups failed a 5x floor:\n%s", report)
	}
	if report, ok := speedupGate(cur, 8, 0); ok {
		t.Fatalf("6.25x speedup passed an 8x floor:\n%s", report)
	} else if !strings.Contains(report, "StormKernel/event") {
		t.Fatalf("report does not name the failing pair:\n%s", report)
	}
}

func TestSpeedupGateNoiseFloorExemptsCheapEventArm(t *testing.T) {
	// The event arm sits under the noise floor: its 3x ratio is reported,
	// not gated. A regression pushing it over the floor re-arms the gate.
	cur := docFromText(t, `BenchmarkStormKernel/dense 1 24000000 ns/op
BenchmarkStormKernel/event 1 8000000 ns/op`)
	if report, ok := speedupGate(cur, 5, 10_000_000); !ok {
		t.Fatalf("under-floor event arm failed the gate:\n%s", report)
	}
	cur = docFromText(t, `BenchmarkStormKernel/dense 1 24000000 ns/op
BenchmarkStormKernel/event 1 12000000 ns/op`)
	if report, ok := speedupGate(cur, 5, 10_000_000); ok {
		t.Fatalf("over-floor 2x ratio passed a 5x gate:\n%s", report)
	}
}

func TestSpeedupGateMissingDenseSiblingFails(t *testing.T) {
	cur := docFromText(t, "BenchmarkFig13Kernel/event 1 10000000 ns/op")
	report, ok := speedupGate(cur, 5, 0)
	if ok {
		t.Fatalf("orphan event benchmark passed the gate:\n%s", report)
	}
	if !strings.Contains(report, "no") || !strings.Contains(report, "dense sibling") {
		t.Fatalf("report missing the orphan marker:\n%s", report)
	}
}

func TestSpeedupGateNoPairsFails(t *testing.T) {
	cur := docFromText(t, "BenchmarkA 1 1000 ns/op")
	if report, ok := speedupGate(cur, 5, 0); ok {
		t.Fatalf("a run with no kernel benchmarks passed the speedup gate:\n%s", report)
	}
}

func TestCompareFloorExemptsNoisyMicrobenchmarks(t *testing.T) {
	old := docFromText(t, "BenchmarkMicro 1 1000 ns/op\nBenchmarkBig 1 50000000 ns/op")
	cur := docFromText(t, "BenchmarkMicro 1 9000 ns/op\nBenchmarkBig 1 50000000 ns/op")
	if report, ok := compare(old, cur, 10, 10_000_000); !ok {
		t.Fatalf("under-floor regression failed the gate:\n%s", report)
	}
	// The floor does not exempt genuinely gated benchmarks.
	cur = docFromText(t, "BenchmarkMicro 1 1000 ns/op\nBenchmarkBig 1 90000000 ns/op")
	if report, ok := compare(old, cur, 10, 10_000_000); ok {
		t.Fatalf("over-floor regression passed the gate:\n%s", report)
	}
	// Nor does it excuse a missing benchmark.
	cur = docFromText(t, "BenchmarkBig 1 50000000 ns/op")
	if report, ok := compare(old, cur, 10, 10_000_000); ok {
		t.Fatalf("missing under-floor benchmark passed the gate:\n%s", report)
	}
}

// -benchmem (or b.ReportAllocs) appends B/op and allocs/op pairs: both are
// archived as metrics, and the gate still diffs ns/op alone.
func TestParseBenchmemUnits(t *testing.T) {
	doc := docFromText(t, `pkg: coordcharge/internal/bus
BenchmarkBusRequestReply-2   	 3317911	       450.5 ns/op	     192 B/op	       2 allocs/op
BenchmarkDistributedControlPlane-2 	       1	 715235904 ns/op	        66.00 overrides	365476837 B/op	 3451681 allocs/op
`)
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	rr := doc.Benchmarks[0].Metrics
	if rr["ns/op"] != 450.5 || rr["B/op"] != 192 || rr["allocs/op"] != 2 {
		t.Errorf("BusRequestReply metrics = %v", rr)
	}
	dp := doc.Benchmarks[1].Metrics
	if dp["overrides"] != 66 || dp["B/op"] != 365476837 || dp["allocs/op"] != 3451681 {
		t.Errorf("DistributedControlPlane metrics = %v", dp)
	}
	// More allocations at the same speed do not trip the ns/op gate.
	worse := docFromText(t, `BenchmarkBusRequestReply-2   	 3317911	       450.5 ns/op	     384 B/op	       4 allocs/op
BenchmarkDistributedControlPlane-2 	       1	 715235904 ns/op	        66.00 overrides	365476837 B/op	 3451681 allocs/op
`)
	if report, ok := compare(doc, worse, 25, 0); !ok {
		t.Errorf("allocation-only change failed the ns/op gate:\n%s", report)
	}
}

// `go test -count N` prints one line per run: they fold into one result per
// benchmark, in first-appearance order, at each metric's median — in the
// converter and on both sides of the -compare gate.
func TestFoldRepeatedRunsToMedians(t *testing.T) {
	for _, c := range []struct {
		name, text       string
		runs             int
		ns, bytes, alloc float64
	}{
		{"single run", "BenchmarkA-2 1 300 ns/op 10 B/op 1 allocs/op", 0, 300, 10, 1},
		{"odd count", `BenchmarkA-2 1 300 ns/op 10 B/op 1 allocs/op
BenchmarkA-2 1 100 ns/op 30 B/op 3 allocs/op
BenchmarkA-2 1 200 ns/op 20 B/op 2 allocs/op`, 3, 200, 20, 2},
		{"even count", `BenchmarkA-2 1 300 ns/op 10 B/op 1 allocs/op
BenchmarkA-2 1 100 ns/op 30 B/op 2 allocs/op`, 2, 200, 20, 1.5},
		{"interleaved with another", `BenchmarkA-2 1 900 ns/op 0 B/op 0 allocs/op
BenchmarkB-2 1 5 ns/op 0 B/op 0 allocs/op
BenchmarkA-2 1 100 ns/op 0 B/op 0 allocs/op
BenchmarkA-2 1 110 ns/op 0 B/op 0 allocs/op`, 3, 110, 0, 0},
	} {
		doc := docFromText(t, "pkg: coordcharge\n"+c.text)
		a := doc.Benchmarks[0]
		if a.Name != "A" || a.Runs != c.runs {
			t.Errorf("%s: first result %s with %d runs, want A with %d", c.name, a.Name, a.Runs, c.runs)
		}
		if m := a.Metrics; m["ns/op"] != c.ns || m["B/op"] != c.bytes || m["allocs/op"] != c.alloc {
			t.Errorf("%s: metrics = %v, want ns %v, B %v, allocs %v", c.name, m, c.ns, c.bytes, c.alloc)
		}
	}
	// The same name in two packages is two benchmarks.
	doc := docFromText(t, "pkg: p1\nBenchmarkA 1 10 ns/op\npkg: p2\nBenchmarkA 1 20 ns/op\n")
	if len(doc.Benchmarks) != 2 || doc.Benchmarks[0].Runs != 0 {
		t.Errorf("cross-package fold: %+v", doc.Benchmarks)
	}
	// The gate diffs medians: one slow pass of three does not fail it, two do.
	old := docFromText(t, "BenchmarkA 1 1000 ns/op\nBenchmarkA 1 1400 ns/op\nBenchmarkA 1 990 ns/op\n")
	if old.Benchmarks[0].Metrics["ns/op"] != 1000 {
		t.Fatalf("baseline median = %v, want 1000", old.Benchmarks[0].Metrics["ns/op"])
	}
	if report, ok := compare(old, docFromText(t, "BenchmarkA 1 1700 ns/op\nBenchmarkA 1 1100 ns/op\nBenchmarkA 1 1050 ns/op\n"), 25, 0); !ok {
		t.Errorf("one slow pass failed the median gate:\n%s", report)
	}
	if report, ok := compare(old, docFromText(t, "BenchmarkA 1 1700 ns/op\nBenchmarkA 1 1300 ns/op\nBenchmarkA 1 1050 ns/op\n"), 25, 0); ok {
		t.Errorf("a 30%% slower median passed a 25%% gate:\n%s", report)
	}
}
