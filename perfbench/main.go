// Command perfbench is the repository benchmark: it runs one named workload
// with a seed for a fixed number of host seconds, checks every output, and
// prints one JSON object of end-to-end metrics (or, with -trace 1, per-layer
// metrics from the traced pass) as its last line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// procStart approximates process start: package initialization runs before
// main, after only the runtime's own start-up.
var procStart = time.Now()

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics printed with -trace 0, in order, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p95", "ms"},
	{"sim_rack_h_per_s", "rack-h/s"},
	{"alloc_b_per_rack_tick", "B"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"slo_met_frac", "frac"},
}

// perLayer lists the metrics printed with -trace 1. A workload that does not
// exercise a layer reports zero for it.
var perLayer = []struct{ name, unit string }{
	{"trace.frames_ms", "ms"}, {"trace.frames", "count"},
	{"rack.step_ms", "ms"}, {"rack.steps", "count"}, {"battery.charging_rack_ticks", "count"},
	{"power.scan_ms", "ms"},
	{"dynamo.tick_ms", "ms"}, {"dynamo.plans", "count"}, {"dynamo.overrides", "count"},
	{"dynamo.override_retries", "count"}, {"dynamo.override_abandons", "count"},
	{"dynamo.throttle_events", "count"},
	{"core.plan_us", "us"},
	{"storm.guard_ms", "ms"}, {"storm.enqueued", "count"}, {"storm.admitted", "count"},
	{"storm.waves", "count"}, {"guard.fires", "count"},
	{"grid.tick_ms", "ms"}, {"grid.defer_ticks", "count"}, {"grid.cap_sheds", "count"},
	{"grid.violation_ticks", "count"},
	{"faults.commands_dropped", "count"}, {"faults.reads_dropped", "count"},
	{"faults.controller_outages", "count"},
	{"sim.run_ms", "ms"}, {"sim.events", "count"},
	{"bus.delivered", "count"}, {"bus.dropped", "count"}, {"bus.msgs_per_rack_tick", "1/rack-tick"},
	{"scenario.self_ms", "ms"}, {"scenario.tick_us_p50", "us"}, {"scenario.tick_us_p99", "us"},
	{"scenario.ticks_executed", "count"}, {"scenario.ticks_skipped", "count"},
	{"scenario.skip_frac", "frac"}, {"scenario.par_efficiency", "frac"},
	{"obs.events", "count"}, {"obs.gauges_ms", "ms"}, {"obs.overhead_frac", "frac"},
	{"ckpt.writes", "count"}, {"ckpt.bytes", "B"}, {"ckpt.write_ms", "ms"},
	{"svc.decode_us", "us"}, {"svc.supervise_us", "us"},
	{"svc.queue_wait_ms_p50", "ms"}, {"svc.queue_wait_ms_p95", "ms"},
	{"svc.admitted", "count"}, {"svc.shed", "count"}, {"svc.breaker_rejected", "count"},
	{"svc.quarantined", "count"},
	{"bench.tracing_overhead_frac", "frac"}, {"bench.gen_lag_ms_p95", "ms"},
	{"bench.span_coverage", "frac"},
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env carries one invocation's settings to a workload.
type env struct {
	seed    int64
	budget  time.Duration
	workdir string // scratch space for checkpoints; inside the checkout
	spans   string // optional JSON-lines span dump for the traced pass
	golden  goldens
}

// workload runs one benchmark workload. bench measures end-to-end metrics
// with tracing off; traced reports per-layer metrics. batch is set for the
// workloads of serial ops.
type workload struct {
	name   string
	bench  func(e *env) (*result, error)
	traced func(e *env) (*result, error)
	batch  batchWorkload
}

func batch(w batchWorkload) workload {
	return workload{w.name(), benchBatch(w), tracedBatch(w), w}
}

var workloads = []workload{
	batch(msbTable3{}),
	batch(siteIncident{}),
	batch(distPlane{}),
	{"coordd-mix", benchCoordd, tracedCoordd, nil},
}

func main() {
	name := flag.String("workload", "", "workload to run: msb-table3, site-incident, dist-plane, coordd-mix")
	seed := flag.Int64("seed", 1, "workload seed; op i uses seed+i")
	seconds := flag.Int("seconds", 10, "host seconds to measure")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for checkpoints")
	spans := flag.String("spans", "", "traced pass: write every span as JSON lines to this file")
	goldenPath := flag.String("goldens", "perfbench/goldens.json", "golden summaries for the default seeds")
	writeGoldens := flag.Int("write-goldens", 0, "regenerate the goldens of -workload for seeds 1..N and exit")
	saturate := flag.Bool("saturation", false, "coordd-mix: measure the closed-loop rate the service sustains and exit")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fatalf("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatalf("%v", err)
	}
	g, err := loadGoldens(*goldenPath, *writeGoldens > 0)
	if err != nil {
		fatalf("%v", err)
	}
	if *writeGoldens == 0 && len(g[w.name]) == 0 {
		fatalf("%s: no goldens for %s", *goldenPath, w.name)
	}
	e := &env{seed: *seed, budget: time.Duration(*seconds) * time.Second, workdir: *workdir, spans: *spans, golden: g}
	if *writeGoldens > 0 {
		if err := regenerateGoldens(e, w, *writeGoldens, *goldenPath); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *saturate {
		if w.batch != nil {
			fatalf("-saturation applies to coordd-mix only")
		}
		rate, err := saturation(e)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("{\"saturation_req_per_s\": %.3f}\n", rate)
		return
	}
	run := w.bench
	if *traceFlag == 1 {
		run = w.traced
	}
	res, err := run(e)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	want := endToEnd
	if *traceFlag == 1 {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := res.Metrics[m.name]; !ok {
			res.Metrics[m.name] = metric{0, m.unit}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// set records a metric with the unit the tables above give it.
func set(m map[string]metric, name string, v float64) {
	for _, tbl := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, d := range tbl {
			if d.name == name {
				m[name] = metric{v, d.unit}
				return
			}
		}
	}
	panic("perfbench: unlisted metric " + name)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// median returns the middle of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
