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
	b.Request("test", AgentEndpoint(racks[0].Name()), "read", 0, nil, func(_ time.Duration, r *bus.Message) {
		snap = r.Payload.(*bus.Box[Snapshot]).V
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

// asyncPollAllocBudget is the exact allocation count of one quiescent poll
// generation over ten racks. It was 12: the generation and its reply
// callback, and per rack the snapshot its agent boxed into the reply. Now
// the generation is a number, the callback is built once, and each agent
// takes its reply box from its own free list; messages, delivery events and
// the poller's next tick were already reused.
const asyncPollAllocBudget = 0

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
	if allocs := testing.AllocsPerRun(20, generation); allocs != asyncPollAllocBudget {
		t.Errorf("one poll generation allocates %v times, want exactly %d", allocs, asyncPollAllocBudget)
	}
}

// A quiescent poll period of the 30-rack plane BenchmarkAsyncPollPeriod
// times (upper, leaves and agents, no faults) allocates nothing: read
// replies, aggregate replies and uncaps lists all travel in pooled boxes,
// and the upper copies each aggregate into a buffer it owns.
func TestAsyncPlanePollPeriodAllocatesNothing(t *testing.T) {
	engine, period := asyncPlane30(t, false)
	now := time.Duration(0)
	step := func() {
		now += period
		engine.Run(now)
	}
	for i := 0; i < 20; i++ { // grow queues, free lists and buffers
		step()
	}
	executed := engine.Executed()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("one quiescent 30-rack poll period allocates %v times, want 0", allocs)
	}
	// The period still does all of its work: 137 events (reads, replies,
	// aggregates, uncaps, deadlines and ticks).
	if per := (engine.Executed() - executed) / 51; per != 137 {
		t.Errorf("a period executed %d events, want 137", per)
	}
}

// fakePoller records what a pollLoop asks of its controller.
type fakePoller struct {
	down      bool
	requested []uint64
	evaluated []time.Duration
}

func (f *fakePoller) live(time.Duration) bool             { return !f.down }
func (f *fakePoller) Down() bool                          { return f.down }
func (f *fakePoller) request(_ time.Duration, gen uint64) { f.requested = append(f.requested, gen) }
func (f *fakePoller) evaluate(now time.Duration)          { f.evaluated = append(f.evaluated, now) }

// A reply counts only toward the generation whose request it answers: an
// injected delay can land a reply after the next poll opens, and it must
// complete nothing. Each generation evaluates once, at its last reply or at
// its deadline (0.8 of the period), whichever comes first.
func TestPollLoopCountsRepliesByGeneration(t *testing.T) {
	const period = 3 * time.Second
	engine := sim.NewEngine()
	f := &fakePoller{}
	p := newPollLoop(f, engine, "test", 2, evalAfter(period))
	at := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	for _, s := range []float64{3, 6, 9} {
		engine.ScheduleAt(at(s), "poll", p.tick)
	}
	reply := func(s float64, gen uint64) {
		engine.ScheduleAt(at(s), "reply", func(now time.Duration) { p.replied(now, gen) })
	}
	reply(3.5, 1)
	reply(6.5, 1) // late: answers generation 1 after generation 2 opened
	reply(6.5, 2)
	reply(7, 2)

	// Generation 1, one reply short, evaluates at its deadline.
	engine.Run(at(6.5))
	if fmt.Sprint(f.evaluated) != fmt.Sprint([]time.Duration{at(5.4)}) {
		t.Fatalf("evaluations at %v, want only generation 1's deadline at 5.4s", f.evaluated)
	}
	// The late reply did not complete generation 2, which evaluates at its
	// own last reply; its deadline at 8.4 s does nothing more, and
	// generation 3, with no replies, evaluates at its deadline.
	engine.Run(at(12))
	if fmt.Sprint(f.evaluated) != fmt.Sprint([]time.Duration{at(5.4), at(7), at(11.4)}) {
		t.Errorf("evaluations at %v, want at 5.4s (deadline), 7s (last reply) and 11.4s (deadline)", f.evaluated)
	}
	f.down = true
	p.tick(at(12))
	if fmt.Sprint(f.requested) != "[1 2 3]" {
		t.Errorf("requested generations %v, want [1 2 3]", f.requested)
	}
}
