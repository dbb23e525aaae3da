package dynamo

import (
	"fmt"
	"testing"
	"time"

	"coordcharge/internal/battery"
	"coordcharge/internal/bus"
	"coordcharge/internal/charger"
	"coordcharge/internal/core"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/sim"
	"coordcharge/internal/units"
)

// asyncRow wires a standalone RPP row onto a bus: engine, bus, racks,
// agents, and a planning leaf controller.
func asyncRow(t *testing.T, prios []rack.Priority, mode Mode, limit units.Power, netLatency, settle time.Duration) (*sim.Engine, *bus.Bus, []*rack.Rack, *AsyncLeaf) {
	t.Helper()
	engine := sim.NewEngine()
	b := bus.New(engine, bus.ConstantLatency(netLatency))
	rpp := power.NewNode("rpp", power.LevelRPP, limit)
	racks := make([]*rack.Rack, len(prios))
	for i, p := range prios {
		racks[i] = rack.New(fmt.Sprintf("ar%02d", i), p, charger.Variable{}, battery.Fig5Surface())
		rpp.AttachLoad(racks[i])
		NewAsyncAgent(b, engine, racks[i], settle)
	}
	leaf := NewAsyncLeaf(b, engine, rpp, racks, mode, core.DefaultConfig(), true, 3*time.Second)
	return engine, b, racks, leaf
}

// dropWhen perturbs the bus to discard every message pred matches.
func dropWhen(b *bus.Bus, pred func(m *bus.Message) bool) {
	b.Perturb = func(_ time.Duration, m *bus.Message) (bool, time.Duration, int) {
		return pred(m), 0, 0
	}
}

// driveAsync advances racks and the engine together (racks are stepped by
// the test loop; the control plane runs purely off bus/engine events).
func driveAsync(engine *sim.Engine, racks []*rack.Rack, from, until time.Duration, step time.Duration) {
	for now := from; now <= until; now += step {
		for _, r := range racks {
			r.Step(now, step)
		}
		engine.Run(now)
	}
}

func TestAsyncAgentReadAndOverride(t *testing.T) {
	engine, b, racks, _ := asyncRow(t, []rack.Priority{rack.P2}, ModeNone, power.DefaultRPPLimit, 10*time.Millisecond, 0)
	racks[0].SetDemand(9 * units.Kilowatt)
	racks[0].LoseInput(0)
	racks[0].Step(45*time.Second, 45*time.Second)
	racks[0].RestoreInput(45 * time.Second)
	engine.ScheduleAt(45*time.Second, "sync", func(time.Duration) {})
	engine.Run(45 * time.Second)

	var snap Snapshot
	got := false
	b.Request("test", AgentEndpoint(racks[0].Name()), "read", nil, func(_ time.Duration, payload any) {
		snap = payload.(Snapshot)
		got = true
	})
	engine.Run(46 * time.Second)
	if !got {
		t.Fatal("no read reply")
	}
	if !snap.Charging || snap.Setpoint != 2 || snap.Priority != rack.P2 {
		t.Errorf("snapshot = %+v", snap)
	}
	b.Send("test", AgentEndpoint(racks[0].Name()), "override", units.Current(1))
	engine.Run(47 * time.Second)
	if got := racks[0].Pack().Setpoint(); got != 1 {
		t.Errorf("setpoint after override = %v", got)
	}
}

// The Fig 10 prototype over the distributed plane: the leaf controller
// discovers the charge via polling and overrides P1 to 2 A, P2/P3 to 1 A —
// within a few poll periods rather than instantly.
func TestAsyncLeafPlansFig10(t *testing.T) {
	prios := []rack.Priority{
		rack.P1, rack.P1, rack.P1, rack.P2, rack.P2, rack.P3,
	}
	engine, _, racks, leaf := asyncRow(t, prios, ModePriorityAware, power.DefaultRPPLimit, 50*time.Millisecond, 0)
	for _, r := range racks {
		r.SetDemand(9 * units.Kilowatt)
	}
	driveAsync(engine, racks, time.Second, 30*time.Second, time.Second)
	for _, r := range racks {
		r.LoseInput(30 * time.Second)
	}
	driveAsync(engine, racks, 31*time.Second, 36*time.Second, time.Second)
	for _, r := range racks {
		r.RestoreInput(36 * time.Second)
	}
	// Two poll periods plus propagation are ample.
	driveAsync(engine, racks, 37*time.Second, 50*time.Second, time.Second)
	for i, r := range racks {
		want := units.Current(1)
		if r.Priority() == rack.P1 {
			want = 2
		}
		if got := r.Pack().Setpoint(); got != want {
			t.Errorf("rack %d (%v) setpoint = %v, want %v", i, r.Priority(), got, want)
		}
	}
	if leaf.Metrics().PlansComputed != 1 {
		t.Errorf("plans = %d, want 1", leaf.Metrics().PlansComputed)
	}
	if leaf.Metrics().OverridesIssued != len(prios) {
		t.Errorf("overrides = %d, want %d", leaf.Metrics().OverridesIssued, len(prios))
	}
}

// Command settling delays the override's effect (Fig 11), not its planning.
func TestAsyncAgentSettleLatency(t *testing.T) {
	engine, _, racks, _ := asyncRow(t, []rack.Priority{rack.P3}, ModePriorityAware, power.DefaultRPPLimit, 10*time.Millisecond, 20*time.Second)
	racks[0].SetDemand(9 * units.Kilowatt)
	racks[0].LoseInput(0)
	driveAsync(engine, racks, time.Second, 5*time.Second, time.Second)
	racks[0].RestoreInput(5 * time.Second)
	// Find when the setpoint first becomes 1 A.
	var landed time.Duration
	for now := 6 * time.Second; now <= 90*time.Second; now += time.Second {
		racks[0].Step(now, time.Second)
		engine.Run(now)
		if landed == 0 && racks[0].Pack().Setpoint() == 1 {
			landed = now
		}
	}
	if landed == 0 {
		t.Fatal("override never landed")
	}
	// Restore at 5 s + poll ≤3 s + settle 20 s → ≥25 s, ≤ ~32 s.
	if landed < 25*time.Second || landed > 35*time.Second {
		t.Errorf("override landed at %v, want ~25-32 s", landed)
	}
}

// A post-plan IT load rise overloads the leaf's breaker: the controller
// throttles the lowest-priority rack first, all through messages, without
// touching the P1 rack.
func TestAsyncLeafProtects(t *testing.T) {
	prios := []rack.Priority{rack.P1, rack.P3}
	// Limit sized so the initial plan (P1 at 5 A, P3 at 2 A over 23 kW of
	// IT) just fits.
	engine, _, racks, leaf := asyncRow(t, prios, ModePriorityAware, 23*units.Kilowatt+2660, 10*time.Millisecond, 0)
	for _, r := range racks {
		r.SetDemand(11500 * units.Watt)
		r.LoseInput(0)
	}
	driveAsync(engine, racks, time.Second, 90*time.Second, time.Second)
	for _, r := range racks {
		r.RestoreInput(90 * time.Second)
	}
	driveAsync(engine, racks, 91*time.Second, 100*time.Second, time.Second)
	if got := racks[0].Pack().Setpoint(); got != 5 {
		t.Fatalf("P1 planned setpoint = %v, want 5 A (deep discharge)", got)
	}
	if got := racks[1].Pack().Setpoint(); got != 2 {
		t.Fatalf("P3 planned setpoint = %v, want 2 A", got)
	}
	// Diurnal drift: +150 W per rack overloads the breaker by ~300 W —
	// within what throttling the P3 rack alone (380 W) recovers.
	for _, r := range racks {
		r.SetDemand(11650 * units.Watt)
	}
	driveAsync(engine, racks, 101*time.Second, 115*time.Second, time.Second)
	if got := racks[1].Pack().Setpoint(); got != 1 {
		t.Errorf("P3 setpoint = %v, want throttled to 1 A", got)
	}
	if got := racks[0].Pack().Setpoint(); got != 5 {
		t.Errorf("P1 setpoint = %v, want untouched 5 A", got)
	}
	if leaf.Metrics().ThrottleEvents == 0 {
		t.Error("no throttle event recorded")
	}
	if leaf.Metrics().MaxCapping != 0 {
		t.Errorf("capping = %v, want 0 (throttling sufficed)", leaf.Metrics().MaxCapping)
	}
}

// A two-level hierarchy: the upper controller aggregates through leaves and
// plans at the root; leaves forward its directives to agents.
func TestAsyncUpperPlansThroughLeaves(t *testing.T) {
	engine := sim.NewEngine()
	b := bus.New(engine, bus.ConstantLatency(20*time.Millisecond))
	msb := power.NewNode("msb", power.LevelMSB, 200*units.Kilowatt)
	var racks []*rack.Rack
	var leaves []*AsyncLeaf
	for li := 0; li < 2; li++ {
		rpp := msb.AddChild(power.NewNode(fmt.Sprintf("rpp%d", li), power.LevelRPP, power.DefaultRPPLimit))
		var leafRacks []*rack.Rack
		for i := 0; i < 3; i++ {
			r := rack.New(fmt.Sprintf("u%d%d", li, i), rack.Priority(1+i), charger.Variable{}, battery.Fig5Surface())
			r.SetDemand(9 * units.Kilowatt)
			rpp.AttachLoad(r)
			NewAsyncAgent(b, engine, r, 0)
			leafRacks = append(leafRacks, r)
			racks = append(racks, r)
		}
		// Leaves do not plan: the MSB controller owns planning.
		leaves = append(leaves, NewAsyncLeaf(b, engine, rpp, leafRacks, ModePriorityAware, core.DefaultConfig(), false, 3*time.Second))
	}
	upper := NewAsyncUpper(b, engine, msb, leaves, ModePriorityAware, core.DefaultConfig(), 6*time.Second)

	driveAsync(engine, racks, time.Second, 30*time.Second, time.Second)
	for _, r := range racks {
		r.LoseInput(30 * time.Second)
	}
	driveAsync(engine, racks, 31*time.Second, 36*time.Second, time.Second)
	for _, r := range racks {
		r.RestoreInput(36 * time.Second)
	}
	// Leaf poll (3 s) feeds the upper's aggregate poll (6 s): allow a few
	// rounds for discovery and override propagation.
	driveAsync(engine, racks, 37*time.Second, 70*time.Second, time.Second)

	if upper.Metrics().PlansComputed == 0 {
		t.Fatal("upper controller never planned")
	}
	for _, r := range racks {
		want := units.Current(1)
		if r.Priority() == rack.P1 {
			want = 2
		}
		if got := r.Pack().Setpoint(); got != want {
			t.Errorf("%s (%v) setpoint = %v, want %v", r.Name(), r.Priority(), got, want)
		}
	}
}

// Message loss degrades gracefully: a lossy bus still converges once polls
// get through (the next poll generation retries everything).
func TestAsyncSurvivesMessageLoss(t *testing.T) {
	engine, b, racks, _ := asyncRow(t, []rack.Priority{rack.P1, rack.P3}, ModePriorityAware, power.DefaultRPPLimit, 10*time.Millisecond, 0)
	drop := true
	dropWhen(b, func(m *bus.Message) bool {
		// Drop the first poll generation's reads entirely.
		return drop && m.Kind == "read"
	})
	for _, r := range racks {
		r.SetDemand(9 * units.Kilowatt)
		r.LoseInput(0)
	}
	driveAsync(engine, racks, time.Second, 5*time.Second, time.Second)
	for _, r := range racks {
		r.RestoreInput(5 * time.Second)
	}
	driveAsync(engine, racks, 6*time.Second, 9*time.Second, time.Second)
	drop = false // network heals
	driveAsync(engine, racks, 10*time.Second, 25*time.Second, time.Second)
	if got := racks[0].Pack().Setpoint(); got != 2 {
		t.Errorf("P1 setpoint after healing = %v, want 2 A", got)
	}
	if b.Dropped() == 0 {
		t.Error("reads were never dropped")
	}
}

// asyncPollAllocBudget is the measured allocation count of one quiescent
// poll generation over ten racks: the generation and its reply callback, the
// poller's next tick, and per rack a read request, its boxed snapshot, the
// reply message and an uncap.
const asyncPollAllocBudget = 43

// A poll generation's allocations are gated exactly: they are deterministic,
// and the message plane's cost per poll is what the distributed plane's
// pre-advance multiplies by thousands.
func TestAsyncLeafPollAllocations(t *testing.T) {
	prios := []rack.Priority{
		rack.P1, rack.P1, rack.P1, rack.P2, rack.P2, rack.P2, rack.P2, rack.P3, rack.P3, rack.P3,
	}
	engine, _, racks, _ := asyncRow(t, prios, ModePriorityAware, power.DefaultRPPLimit, 10*time.Millisecond, 0)
	for _, r := range racks {
		r.SetDemand(6 * units.Kilowatt)
	}
	now := time.Duration(0)
	generation := func() {
		now += 3 * time.Second
		engine.Run(now)
	}
	// Warm up until the engine's free list and queue have grown to the
	// plane's steady state.
	for i := 0; i < 5; i++ {
		generation()
	}
	if allocs := testing.AllocsPerRun(20, generation); allocs > asyncPollAllocBudget {
		t.Errorf("one poll generation allocates %v times, budget %d", allocs, asyncPollAllocBudget)
	}
}
