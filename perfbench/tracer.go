package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// spanKind names the layer a span covers. Each kind is one call (or one loop
// of calls) into an exported layer function, recorded from this package.
type spanKind uint8

const (
	spanOp     spanKind = iota // one benchmark op (root)
	spanRun                    // one coordinated run: build, ticks, finish
	spanBuild                  // run construction; its self time is the glue between the constructors below
	spanFinish                 // result aggregation after the tick loop
	spanTick                   // one dense tick; its self time is scenario bookkeeping
	spanTrace                  // trace.Frames; at build, NewGenerator / FirstPeak / Aggregate
	spanRack                   // rack.SetDemand / rack.Step over the fleet; at build, rack.New
	spanPower                  // power.Deenergize / Reenergize / Tripped / Power; at build, power.Build
	spanSim                    // sim.Engine.Run (bus delivery and async controllers included)
	spanGrid                   // grid.Policy.Tick / Account; at build, NewPolicy / Bind
	spanDynamo                 // every Controller.Tick from Hierarchy.Controllers(); at build, the control plane
	spanGuard                  // every storm.Guard.Tick
	spanObs                    // fleet gauge refresh into the obs registry
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "scenario.run", "scenario.build", "scenario.finish", "scenario.tick",
	"trace.frames", "rack.step", "power.scan", "sim.run", "grid.tick",
	"dynamo.tick", "storm.guard", "obs.gauges",
}

// span is one recorded interval; start and end are nanoseconds since the
// tracer's epoch, parent indexes the enclosing span (-1 for a root).
type span struct {
	kind       spanKind
	parent     int32
	op         int32
	start, end int64
}

// tracer records spans in memory for the op in progress. fold turns them into
// per-kind self times and per-tick durations and, when a sink file is set,
// appends them to it; the buffer is then reused for the next op.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
	op    int32
	// delay, when positive for a kind, spins inside every span of that kind
	// before it closes: the attribution test's injected slowdown.
	delay [numSpanKinds]time.Duration
	out   *bufio.Writer
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(k spanKind) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, parent: parent, op: t.op, start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	s := &t.spans[id]
	if d := t.delay[s.kind]; d > 0 {
		for time.Duration(t.now()-s.start) < d {
		}
	}
	s.end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// opStats is what one traced op's spans reduce to.
type opStats struct {
	dur     time.Duration
	self    [numSpanKinds]time.Duration
	tickDur []time.Duration
}

// fold reduces the finished op's spans: a span's self time is its duration
// minus the time its direct children cover.
func (t *tracer) fold() opStats {
	var st opStats
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		st.self[s.kind] += time.Duration(d - child[i])
		switch s.kind {
		case spanOp:
			st.dur += time.Duration(d)
		case spanTick:
			st.tickDur = append(st.tickDur, time.Duration(d))
		}
	}
	if t.out != nil {
		enc := json.NewEncoder(t.out)
		for i, s := range t.spans {
			_ = enc.Encode(map[string]any{
				"id": i, "op": s.op, "parent": s.parent, "name": spanNames[s.kind],
				"start_ns": s.start, "end_ns": s.end,
			}) // errors surface at Flush
		}
	}
	t.spans = t.spans[:0]
	t.op++
	return st
}

// openSpanFile directs every folded span to path as JSON lines.
func (t *tracer) openSpanFile(path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t.out = bufio.NewWriterSize(f, 1<<20)
	return f, nil
}

// layerTotals accumulates folded ops.
type layerTotals struct {
	ops     int
	dur     time.Duration
	self    [numSpanKinds]time.Duration
	tickDur []time.Duration
}

func (lt *layerTotals) add(st opStats) {
	lt.ops++
	lt.dur += st.dur
	for k := range st.self {
		lt.self[k] += st.self[k]
	}
	lt.tickDur = append(lt.tickDur, st.tickDur...)
}

// selfMsPerOp is kind's mean self time per op in milliseconds.
func (lt *layerTotals) selfMsPerOp(k spanKind) float64 {
	if lt.ops == 0 {
		return 0
	}
	return ms(lt.self[k]) / float64(lt.ops)
}

// coverage is the share of traced op time spent inside the layer spans, the
// kinds from spanTrace on. The scenario spans' own time (tick bookkeeping,
// build and finish glue, all code of this package's replica loop) and the op's
// own time are not covered, so a layer call that loses its span lowers it.
func (lt *layerTotals) coverage() float64 {
	if lt.dur == 0 {
		return 0
	}
	var layers time.Duration
	for k := spanTrace; k < numSpanKinds; k++ {
		layers += lt.self[k]
	}
	return float64(layers) / float64(lt.dur)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation (xs is sorted
// in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}
