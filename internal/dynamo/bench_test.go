package dynamo

import (
	"fmt"
	"testing"
	"time"

	"coordcharge/internal/battery"
	"coordcharge/internal/bus"
	"coordcharge/internal/charger"
	"coordcharge/internal/core"
	"coordcharge/internal/faults"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/sim"
	"coordcharge/internal/units"
)

// One full control-plane monitoring cycle over a production-sized MSB with
// all 316 racks mid-charge.
func BenchmarkHierarchyTick316(b *testing.B) {
	racks := make([]*rack.Rack, 316)
	loads := make([]power.Load, 316)
	for i := range racks {
		racks[i] = rack.New(fmt.Sprintf("r%d", i), rack.Priority(1+i%3), charger.Variable{}, battery.Fig5Surface())
		racks[i].SetDemand(6 * units.Kilowatt)
		loads[i] = racks[i]
	}
	msb, err := power.Build(power.Spec{Name: "m"}, loads)
	if err != nil {
		b.Fatal(err)
	}
	h, err := BuildHierarchy(msb, ModePriorityAware, core.DefaultConfig(), nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range racks {
		r.LoseInput(0)
		r.Step(45*time.Second, 45*time.Second)
		r.RestoreInput(45 * time.Second)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Tick(45*time.Second + time.Duration(i+1)*3*time.Second)
	}
}

// BenchmarkAsyncPollPeriod is one quiescent poll period of the 30-rack
// message plane the distributed scenario builds: 30 agents, a leaf per RPP
// (3) and the MSB upper controller, 10 ms links, a 3 s poll. Nothing charges,
// so each period is the plane's steady-state traffic — reads, replies,
// aggregates, uncaps and deadlines — that a run's pre-roll repeats thousands
// of times. The faults arm adds the default fault rates with the degraded-
// mode options a faulty scenario run arms.
func BenchmarkAsyncPollPeriod(b *testing.B) {
	for _, arm := range []struct {
		name   string
		faults bool
	}{{"clean", false}, {"faults", true}} {
		b.Run(arm.name, func(b *testing.B) {
			engine, period := asyncPlane30(b, arm.faults)
			now := time.Duration(0)
			for i := 0; i < 20; i++ { // grow queues and free lists to steady state
				now += period
				engine.Run(now)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += period
				engine.Run(now)
			}
		})
	}
}

// asyncPlane30 wires the 30-rack distributed control plane over an engine
// and returns the engine and the poll period.
func asyncPlane30(b testing.TB, withFaults bool) (*sim.Engine, time.Duration) {
	const poll = 3 * time.Second
	racks := make([]*rack.Rack, 30)
	loads := make([]power.Load, len(racks))
	for i := range racks {
		racks[i] = rack.New(fmt.Sprintf("rack%03d", i), rack.Priority(1+i%3), charger.Variable{}, battery.Fig5Surface())
		racks[i].SetDemand(6 * units.Kilowatt)
		loads[i] = racks[i]
	}
	msb, err := power.Build(power.Spec{Name: "msb", MSBLimit: 225 * units.Kilowatt}, loads)
	if err != nil {
		b.Fatal(err)
	}
	engine := sim.NewEngine()
	fabric := bus.New(engine, bus.ConstantLatency(10*time.Millisecond))
	var opts AsyncOptions
	if withFaults {
		opts = AsyncOptions{Injector: faults.New(faults.Default()), StaleAfter: 10 * time.Second, Retry: DefaultRetryPolicy()}
		WireBusFaults(fabric, opts.Injector)
	}
	for _, r := range racks {
		a := NewAsyncAgent(fabric, engine, r, 0)
		a.SetFaults(opts.Injector)
	}
	cfg := core.DefaultConfig()
	var leaves []*AsyncLeaf
	msb.Walk(func(nd *power.Node) {
		if nd.Level() != power.LevelRPP {
			return
		}
		var rs []*rack.Rack
		for _, l := range nd.Loads() {
			rs = append(rs, l.(*rack.Rack))
		}
		leaves = append(leaves, NewAsyncLeafOpts(fabric, engine, nd, rs, ModePriorityAware, cfg, false, poll, opts))
	})
	if len(leaves) != 3 {
		b.Fatalf("30 racks built %d leaves, want 3", len(leaves))
	}
	NewAsyncUpperOpts(fabric, engine, msb, leaves, ModePriorityAware, cfg, poll, opts)
	return engine, poll
}
