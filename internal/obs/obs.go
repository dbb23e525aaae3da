// Package obs is the observability plane of the coordinated-charging
// reproduction: a concurrency-safe metrics registry, a bounded flight
// recorder journaling every control decision, and an HTTP surface exposing
// both live. The paper's Dynamo control plane is operated from production
// dashboards — Figs 2 and 12–14 are telemetry (aggregate power against the
// breaker limit, per-priority charge completion, capping events); this
// package provides the substrate those dashboards read from.
//
// Design constraints:
//
//   - Stdlib only. The package imports nothing from the rest of the repo, so
//     every layer (rack, storm, dynamo, faults, scenario) can depend on it
//     without cycles.
//
//   - Nil-safe. Every method on *Sink, *Registry, *Recorder, *Counter,
//     *Gauge, and *Histogram is a no-op (or zero) on a nil receiver, so
//     instrumented hot paths cost one nil check when observability is
//     detached — the simulation sweeps that run thousands of experiments pay
//     nothing for the instrumentation they don't use (BenchmarkObsOverhead
//     holds this under 2%).
//
//   - Deterministic. Flight-recorder events carry virtual-time tick stamps,
//     never wall clock, and their canonical serialization feeds a running
//     digest: two runs of the same seeded scenario must produce byte-identical
//     digests, which is how accidental map-iteration or timing nondeterminism
//     in the control plane is caught (see TestFlightDigestDeterministic).
//
// The registry and recorder are safe for concurrent use: the simulation
// writes from its own goroutine while Handler's endpoints read from HTTP
// handler goroutines. The HTTP surface deliberately reads only obs state —
// never the simulation's objects — so serving requires no locking in the sim
// itself.
package obs

import "time"

// Sink bundles the two observability outputs an instrumented component
// writes to. Components hold a *Sink and call its nil-safe helpers; a nil
// Sink (or nil fields) disables that output with no other code changes.
type Sink struct {
	// Reg receives metrics (counters, gauges, histograms).
	Reg *Registry
	// Flight receives structured control-decision events.
	Flight *Recorder
}

// NewSink returns a sink with a fresh registry and a flight recorder
// retaining the last flightCap events (DefaultFlightCap if <= 0).
func NewSink(flightCap int) *Sink {
	return &Sink{Reg: NewRegistry(), Flight: NewRecorder(flightCap)}
}

// Counter returns the named counter, or nil on a nil sink/registry.
func (s *Sink) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.Reg.Counter(name)
}

// Gauge returns the named gauge, or nil on a nil sink/registry.
func (s *Sink) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.Reg.Gauge(name)
}

// Histogram returns the named windowed histogram, or nil on a nil
// sink/registry.
func (s *Sink) Histogram(name string, window int) *Histogram {
	if s == nil {
		return nil
	}
	return s.Reg.Histogram(name, window)
}

// Event journals one control decision at virtual time t. kv lists attribute
// pairs (key1, value1, key2, value2, ...); a trailing odd key is dropped.
// No-op on a nil sink or recorder.
func (s *Sink) Event(t time.Duration, comp, kind string, kv ...string) {
	if s == nil {
		return
	}
	s.Flight.Record(t, comp, kind, kv...)
}
