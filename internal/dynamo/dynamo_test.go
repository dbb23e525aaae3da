package dynamo

import (
	"fmt"
	"math"
	"testing"
	"time"

	"coordcharge/internal/battery"
	"coordcharge/internal/charger"
	"coordcharge/internal/core"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/sim"
	"coordcharge/internal/units"
)

// row builds n racks with the given priorities under a single RPP and
// returns the RPP node and racks.
func row(t *testing.T, prios []rack.Priority, pol charger.Policy) (*power.Node, []*rack.Rack) {
	t.Helper()
	rpp := power.NewNode("rpp", power.LevelRPP, power.DefaultRPPLimit)
	racks := make([]*rack.Rack, len(prios))
	for i, p := range prios {
		racks[i] = rack.New(fmt.Sprintf("rack%d", i), p, pol, battery.Fig5Surface())
		rpp.AttachLoad(racks[i])
	}
	return rpp, racks
}

func agentsFor(racks []*rack.Rack) []*Agent {
	out := make([]*Agent, len(racks))
	for i, r := range racks {
		out[i] = NewAgent(r, nil, 0)
	}
	return out
}

// transition runs an open transition of the given length on all racks.
func transition(racks []*rack.Rack, load units.Power, length time.Duration) {
	for _, r := range racks {
		r.SetDemand(load)
		r.LoseInput(0)
		r.Step(length, length)
		r.RestoreInput(length)
	}
}

func TestModeString(t *testing.T) {
	want := map[Mode]string{ModeNone: "none", ModeGlobal: "global", ModePriorityAware: "priority-aware", ModePostpone: "postpone", Mode(9): "Mode(9)"}
	for m, w := range want {
		if got := m.String(); got != w {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, w)
		}
	}
}

func TestParseModeAll(t *testing.T) {
	cases := map[string]Mode{
		"":               ModePriorityAware,
		"priority-aware": ModePriorityAware,
		"none":           ModeNone,
		"global":         ModeGlobal,
		"postpone":       ModePostpone,
	}
	for in, want := range cases {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus mode accepted")
	}
}

func TestAgentReadAndImmediateOverride(t *testing.T) {
	_, racks := row(t, []rack.Priority{rack.P1}, charger.Variable{})
	a := NewAgent(racks[0], nil, 0)
	transition(racks, 12600*units.Watt, 45*time.Second)
	if got := a.ReadRecharge(); math.Abs(float64(got)-760) > 1 {
		t.Errorf("recharge read = %v, want 760 W (2 A)", got)
	}
	if got, want := a.ReadPower(), racks[0].Power(); got != want {
		t.Errorf("power read = %v, want %v", got, want)
	}
	a.Override(45*time.Second, 1)
	if got := racks[0].Pack().Setpoint(); got != 1 {
		t.Errorf("setpoint after immediate override = %v, want 1 A", got)
	}
}

// Fig 11: an override takes effect only after the command-settling latency.
func TestAgentLatentOverride(t *testing.T) {
	eng := sim.NewEngine()
	_, racks := row(t, []rack.Priority{rack.P1}, charger.Variable{})
	a := NewAgent(racks[0], eng, 20*time.Second)
	transition(racks, 12600*units.Watt, 45*time.Second)
	a.Override(0, 1)
	if got := racks[0].Pack().Setpoint(); got != 2 {
		t.Errorf("setpoint changed before latency elapsed: %v", got)
	}
	eng.Run(19 * time.Second)
	if got := racks[0].Pack().Setpoint(); got != 2 {
		t.Errorf("setpoint changed at 19 s: %v", got)
	}
	eng.Run(20 * time.Second)
	if got := racks[0].Pack().Setpoint(); got != 1 {
		t.Errorf("setpoint after latency = %v, want 1 A", got)
	}
}

func TestAgentLatencyWithoutEnginePanics(t *testing.T) {
	_, racks := row(t, []rack.Priority{rack.P1}, charger.Variable{})
	defer func() {
		if recover() == nil {
			t.Error("no panic for latency without engine")
		}
	}()
	NewAgent(racks[0], nil, time.Second)
}

// The Fig 10 prototype: 9 P1 + 5 P2 + 3 P3 racks, 5 s transition, <5% DOD,
// unconstrained RPP. The leaf controller overrides P1 to 2 A and P2/P3 to 1 A.
func TestFig10LeafControllerPlan(t *testing.T) {
	prios := make([]rack.Priority, 0, 17)
	for i := 0; i < 9; i++ {
		prios = append(prios, rack.P1)
	}
	for i := 0; i < 5; i++ {
		prios = append(prios, rack.P2)
	}
	for i := 0; i < 3; i++ {
		prios = append(prios, rack.P3)
	}
	rpp, racks := row(t, prios, charger.Variable{})
	ctl := NewController(rpp, agentsFor(racks), ModePriorityAware, core.DefaultConfig(), true)
	transition(racks, 9000*units.Watt, 5*time.Second) // ~4% DOD
	ctl.Tick(5 * time.Second)
	for i, r := range racks {
		want := units.Current(1)
		if r.Priority() == rack.P1 {
			want = 2
		}
		if got := r.Pack().Setpoint(); got != want {
			t.Errorf("rack %d (%v) setpoint = %v, want %v", i, r.Priority(), got, want)
		}
	}
	m := ctl.Metrics()
	if m.PlansComputed != 1 {
		t.Errorf("plans computed = %d, want 1", m.PlansComputed)
	}
	if m.OverridesIssued != 17 {
		t.Errorf("overrides issued = %d, want 17", m.OverridesIssued)
	}
	if m.MaxCapping != 0 {
		t.Errorf("capping = %v, want 0 (unconstrained)", m.MaxCapping)
	}
}

func TestControllerPlansOnceNotEveryTick(t *testing.T) {
	rpp, racks := row(t, []rack.Priority{rack.P1, rack.P2}, charger.Variable{})
	ctl := NewController(rpp, agentsFor(racks), ModePriorityAware, core.DefaultConfig(), true)
	transition(racks, 9000*units.Watt, 5*time.Second)
	for i := 1; i <= 5; i++ {
		ctl.Tick(5*time.Second + time.Duration(i)*3*time.Second)
	}
	if got := ctl.Metrics().PlansComputed; got != 1 {
		t.Errorf("plans computed = %d, want 1 (no replanning while charging)", got)
	}
}

// Overload during charging: battery throttling is the first line of defense
// (lowest priority, highest discharge first); no server capping if
// throttling suffices.
func TestThrottleBeforeCapping(t *testing.T) {
	rpp, racks := row(t, []rack.Priority{rack.P1, rack.P3}, charger.Original{})
	// Limit chosen so that IT + both racks charging at 5 A overloads, but
	// throttling the P3 rack to 1 A recovers enough.
	rpp.SetLimit(22*units.Kilowatt + 1900 + 1520)
	ctl := NewController(rpp, agentsFor(racks), ModePriorityAware, core.DefaultConfig(), true)
	transition(racks, 11000*units.Watt, 90*time.Second) // deep discharge
	// Suppress the initial coordinated plan by pretending it already ran:
	// both racks charge at the local original-charger 5 A (the overload case
	// arises when the plan's assumptions are violated; here we drive the
	// protect path directly).
	ctl.wasCharging[0] = true
	ctl.wasCharging[1] = true
	ctl.Tick(91 * time.Second)
	if got := racks[1].Pack().Setpoint(); got != 1 {
		t.Errorf("P3 rack setpoint = %v, want throttled to 1 A", got)
	}
	if got := racks[0].Pack().Setpoint(); got != 5 {
		t.Errorf("P1 rack setpoint = %v, want untouched 5 A", got)
	}
	if got := ctl.Metrics().MaxCapping; got != 0 {
		t.Errorf("capping = %v, want 0 (throttling sufficed)", got)
	}
	if ctl.Metrics().ThrottleEvents == 0 {
		t.Error("no throttle event recorded")
	}
}

// When even minimum-rate charging overloads the breaker, the controller caps
// servers — lowest priority first.
func TestCappingAsLastResort(t *testing.T) {
	rpp, racks := row(t, []rack.Priority{rack.P1, rack.P3}, charger.Variable{})
	transition(racks, 11000*units.Watt, 90*time.Second)
	// Both racks charging at minimum draw 2×380 W; leave less than that.
	rpp.SetLimit(22*units.Kilowatt + 500)
	ctl := NewController(rpp, agentsFor(racks), ModePriorityAware, core.DefaultConfig(), true)
	ctl.Tick(91 * time.Second)
	m := ctl.Metrics()
	if m.MaxCapping <= 0 {
		t.Fatalf("no capping despite overload at minimum rate")
	}
	// The P3 rack absorbs the cut first.
	if racks[1].CappedPower() == 0 {
		t.Error("P3 rack not capped first")
	}
	if racks[0].CappedPower() != 0 {
		t.Error("P1 rack capped although P3 had capacity to cut")
	}
}

func TestCapsReleasedWhenHeadroomReturns(t *testing.T) {
	rpp, racks := row(t, []rack.Priority{rack.P2}, charger.Variable{})
	transition(racks, 11000*units.Watt, 90*time.Second)
	rpp.SetLimit(11 * units.Kilowatt) // recharge floor overloads
	ctl := NewController(rpp, agentsFor(racks), ModePriorityAware, core.DefaultConfig(), true)
	ctl.Tick(91 * time.Second)
	if racks[0].CappedPower() == 0 {
		t.Fatal("expected capping under tight limit")
	}
	rpp.SetLimit(30 * units.Kilowatt)
	ctl.Tick(94 * time.Second)
	if got := racks[0].CappedPower(); got != 0 {
		t.Errorf("cap not released after headroom returned: %v", got)
	}
}

func TestGlobalModeUniformRate(t *testing.T) {
	rpp, racks := row(t, []rack.Priority{rack.P1, rack.P2, rack.P3}, charger.Variable{})
	ctl := NewController(rpp, agentsFor(racks), ModeGlobal, core.DefaultConfig(), true)
	transition(racks, 12600*units.Watt, 90*time.Second) // 100% DOD
	ctl.Tick(91 * time.Second)
	// Unconstrained: everyone at 5 A regardless of priority.
	for i, r := range racks {
		if got := r.Pack().Setpoint(); got != 5 {
			t.Errorf("rack %d setpoint = %v, want uniform 5 A", i, got)
		}
	}
}

func TestGlobalModeLowersRateOnOverload(t *testing.T) {
	rpp, racks := row(t, []rack.Priority{rack.P1, rack.P2, rack.P3}, charger.Variable{})
	transition(racks, 11000*units.Watt, 90*time.Second)
	// Room for IT plus ~2 A per rack.
	rpp.SetLimit(33*units.Kilowatt + 3*2*380)
	ctl := NewController(rpp, agentsFor(racks), ModeGlobal, core.DefaultConfig(), true)
	ctl.Tick(91 * time.Second)
	for i, r := range racks {
		if got := r.Pack().Setpoint(); got != 2 {
			t.Errorf("rack %d setpoint = %v, want uniform 2 A", i, got)
		}
	}
	if got := ctl.Metrics().MaxCapping; got != 0 {
		t.Errorf("global mode capped %v despite fitting at 2 A", got)
	}
}

func TestPostponeModeDefersAndRestarts(t *testing.T) {
	rpp, racks := row(t, []rack.Priority{rack.P1, rack.P3}, charger.Variable{})
	transition(racks, 11000*units.Watt, 90*time.Second)
	// Room for IT plus one rack's worth of charging only.
	rpp.SetLimit(22*units.Kilowatt + 1900)
	ctl := NewController(rpp, agentsFor(racks), ModePostpone, core.DefaultConfig(), true)
	ctl.Tick(91 * time.Second)
	if !racks[0].Charging() {
		t.Fatal("P1 rack not charging")
	}
	if racks[1].Charging() {
		t.Fatal("P3 rack charging despite postponement")
	}
	// Free headroom: the postponed P3 restarts.
	rpp.SetLimit(40 * units.Kilowatt)
	ctl.Tick(94 * time.Second)
	if !racks[1].Charging() {
		t.Error("postponed P3 rack did not restart when headroom returned")
	}
}

func TestBuildHierarchy(t *testing.T) {
	loads := make([]power.Load, 30)
	racks := make([]*rack.Rack, 30)
	for i := range racks {
		racks[i] = rack.New(fmt.Sprintf("r%d", i), rack.Priority(1+i%3), charger.Variable{}, battery.Fig5Surface())
		loads[i] = racks[i]
	}
	msb, err := power.Build(power.Spec{Name: "m"}, loads)
	if err != nil {
		t.Fatal(err)
	}
	h, err := BuildHierarchy(msb, ModePriorityAware, core.DefaultConfig(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var nodes int
	msb.Walk(func(*power.Node) { nodes++ })
	if got := len(h.Controllers()); got != nodes {
		t.Errorf("controllers = %d, want one per breaker (%d)", got, nodes)
	}
	// Bottom-up order: RPP controllers precede SBs precede the MSB.
	var lastLevel = power.LevelRPP
	for _, c := range h.Controllers() {
		if c.Node().Level() > lastLevel {
			t.Fatal("controllers not in bottom-up order")
		}
		lastLevel = c.Node().Level()
	}
	if h.Controller(msb) == nil {
		t.Error("no controller for the MSB")
	}
	if h.Agent(racks[0]) == nil {
		t.Error("no agent for rack 0")
	}
}

func TestBuildHierarchyRejectsForeignLoads(t *testing.T) {
	n := power.NewNode("rpp", power.LevelRPP, power.DefaultRPPLimit)
	n.AttachLoad(fakeLoad{})
	if _, err := BuildHierarchy(n, ModeNone, core.DefaultConfig(), nil, 0); err == nil {
		t.Error("BuildHierarchy accepted a non-rack load")
	}
}

type fakeLoad struct{}

func (fakeLoad) Name() string       { return "fake" }
func (fakeLoad) Power() units.Power { return 0 }

// An MSB-level constraint must not be undone by unconstrained RPP
// controllers releasing caps (per-source caps).
func TestHierarchyMultiLevelCapping(t *testing.T) {
	loads := make([]power.Load, 8)
	racks := make([]*rack.Rack, 8)
	for i := range racks {
		racks[i] = rack.New(fmt.Sprintf("r%d", i), rack.P3, charger.Variable{}, battery.Fig5Surface())
		loads[i] = racks[i]
	}
	msb, err := power.Build(power.Spec{Name: "m", RacksPerRPP: 4, SBCount: 2}, loads)
	if err != nil {
		t.Fatal(err)
	}
	h, err := BuildHierarchy(msb, ModeNone, core.DefaultConfig(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range racks {
		r.SetDemand(12 * units.Kilowatt)
	}
	msb.SetLimit(90 * units.Kilowatt) // 96 kW demand → 6 kW must be capped
	for tick := 1; tick <= 3; tick++ {
		h.Tick(time.Duration(tick) * 3 * time.Second)
	}
	var capped units.Power
	for _, r := range racks {
		capped += r.CappedPower()
	}
	if capped < 5900*units.Watt || capped > 6100*units.Watt {
		t.Errorf("total capped = %v, want ~6 kW", capped)
	}
	if got := msb.Power(); got > 90*units.Kilowatt+1 {
		t.Errorf("MSB still overloaded: %v", got)
	}
}

func TestTotalMetricsAggregation(t *testing.T) {
	loads := make([]power.Load, 4)
	racks := make([]*rack.Rack, 4)
	for i := range racks {
		racks[i] = rack.New(fmt.Sprintf("r%d", i), rack.P2, charger.Variable{}, battery.Fig5Surface())
		loads[i] = racks[i]
	}
	msb, _ := power.Build(power.Spec{Name: "m", RacksPerRPP: 2, SBCount: 2}, loads)
	h, _ := BuildHierarchy(msb, ModePriorityAware, core.DefaultConfig(), nil, 0)
	transition(racks, 9000*units.Watt, 10*time.Second)
	h.Tick(11 * time.Second)
	m := h.TotalMetrics()
	if m.PlansComputed == 0 {
		t.Error("no plans recorded in aggregate metrics")
	}
	if m.OverridesIssued == 0 {
		t.Error("no overrides recorded in aggregate metrics")
	}
}
