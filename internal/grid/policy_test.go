package grid

import (
	"strings"
	"testing"
	"time"

	"coordcharge/internal/battery"
	"coordcharge/internal/charger"
	"coordcharge/internal/core"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/storm"
	"coordcharge/internal/units"
)

// idleRack builds an input-up rack with a full battery and the given IT
// demand — an eligible peak-shave volunteer.
func idleRack(name string, p rack.Priority, demand units.Power) *rack.Rack {
	r := rack.New(name, p, charger.Variable{}, battery.Fig5Surface())
	r.SetDemand(demand)
	return r
}

// drainedChargingRack builds a rack mid-recharge after a short discharge.
func drainedChargingRack(t *testing.T, name string, p rack.Priority, demand units.Power) *rack.Rack {
	t.Helper()
	r := idleRack(name, p, demand)
	r.LoseInput(0)
	r.Step(2*time.Minute, 2*time.Minute)
	r.RestoreInput(2 * time.Minute)
	if !r.Charging() {
		t.Fatalf("setup: rack %s not charging", name)
	}
	r.OverrideCurrent(5 * units.Ampere)
	return r
}

// rig binds a policy over the racks under one MSB node with a storm queue.
func rig(t *testing.T, spec *Spec, limit units.Power, racks ...*rack.Rack) (*Policy, *power.Node, *storm.Queue) {
	t.Helper()
	n := power.NewNode("msb", power.LevelMSB, limit)
	for _, r := range racks {
		n.AttachLoad(r)
	}
	q := storm.NewQueue(storm.Config{})
	p, err := NewPolicy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Bind(n, racks, q, core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	return p, n, q
}

func TestBindRequiresQueue(t *testing.T) {
	p, err := NewPolicy(&Spec{})
	if err != nil {
		t.Fatal(err)
	}
	n := power.NewNode("msb", power.LevelMSB, 100*units.Kilowatt)
	if err := p.Bind(n, nil, nil, core.DefaultConfig()); err == nil {
		t.Fatal("Bind accepted a nil storm queue")
	}
}

func TestEffectiveLimitIsMinOfBreakerAndCap(t *testing.T) {
	cap := StepSeries(time.Duration(0), 300*units.Kilowatt, time.Hour, 80*units.Kilowatt)
	p, _, _ := rig(t, &Spec{Cap: cap}, 100*units.Kilowatt)
	if got := p.EffectiveLimit(0); got != 100*units.Kilowatt {
		t.Fatalf("EffectiveLimit(0) = %v, want the breaker limit", got)
	}
	if got := p.EffectiveLimit(2 * time.Hour); got != 80*units.Kilowatt {
		t.Fatalf("EffectiveLimit(2h) = %v, want the shrunken cap", got)
	}
}

func TestCapShrinkEventMultipliesCap(t *testing.T) {
	spec := &Spec{
		Cap:    StepSeries(time.Duration(0), 200*units.Kilowatt),
		Events: []Event{{Kind: CapShrink, At: time.Hour, Dur: time.Hour, Frac: 0.3}},
	}
	p, _, _ := rig(t, spec, 500*units.Kilowatt)
	if got := p.CapAt(30 * time.Minute); got != 200*units.Kilowatt {
		t.Fatalf("CapAt before event = %v", got)
	}
	if got := p.CapAt(90 * time.Minute); got != 140*units.Kilowatt {
		t.Fatalf("CapAt during event = %v, want 140kW", got)
	}
	if got := p.CapAt(3 * time.Hour); got != 200*units.Kilowatt {
		t.Fatalf("CapAt after event = %v", got)
	}
	// Without a cap series, the shrink applies to the breaker limit.
	spec2 := &Spec{Events: []Event{{Kind: CapShrink, At: 0, Dur: time.Hour, Frac: 0.5}}}
	p2, _, _ := rig(t, spec2, 500*units.Kilowatt)
	if got := p2.CapAt(time.Minute); got != 250*units.Kilowatt {
		t.Fatalf("CapAt with breaker base = %v, want 250kW", got)
	}
}

func TestDeferStateMachineWithSLAValve(t *testing.T) {
	price := StepSeries(time.Duration(0), 40.0, time.Hour, 120.0, 3*time.Hour, 40.0)
	spec := &Spec{
		Cap:    nil,
		Price:  price,
		Policy: PolicyConfig{DeferPrice: 100, MaxDefer: 30 * time.Minute},
	}
	p, _, _ := rig(t, spec, 100*units.Kilowatt)
	p.Tick(0)
	if p.DeferCharging(0) {
		t.Fatal("deferring at cheap price")
	}
	p.Tick(time.Hour)
	if !p.DeferCharging(time.Hour) {
		t.Fatal("not deferring above the price threshold")
	}
	// 30 minutes in, the SLA valve lifts the deferral.
	p.Tick(time.Hour + 30*time.Minute)
	if p.DeferCharging(time.Hour + 30*time.Minute) {
		t.Fatal("MaxDefer valve did not lift the deferral")
	}
	if p.Metrics().DeferLifts != 1 {
		t.Fatalf("DeferLifts = %d, want 1", p.Metrics().DeferLifts)
	}
	// Still expensive: the lift holds (no flap back into deferral).
	p.Tick(2 * time.Hour)
	if p.DeferCharging(2 * time.Hour) {
		t.Fatal("deferral re-latched while lifted")
	}
	// Signal clears, then crosses again: a fresh deferral may start.
	p.Tick(3 * time.Hour)
	spec2 := price.At(3 * time.Hour)
	if spec2 != 40 {
		t.Fatalf("price at 3h = %v", spec2)
	}
	p.Tick(4 * time.Hour) // still cheap
	if p.DeferCharging(4 * time.Hour) {
		t.Fatal("deferring at cheap price after clear")
	}
}

func TestDroopPausesChargingIntoQueue(t *testing.T) {
	r1 := drainedChargingRack(t, "p1", rack.P1, 6300*units.Watt)
	r2 := drainedChargingRack(t, "p3", rack.P3, 6300*units.Watt)
	spec := &Spec{Events: []Event{{Kind: FreqDroop, At: 10 * time.Minute, Dur: time.Minute}}}
	p, _, q := rig(t, spec, 100*units.Kilowatt, r1, r2)

	p.Tick(5 * time.Minute)
	if !r1.Charging() || !r2.Charging() {
		t.Fatal("charges paused before the droop event")
	}
	p.Tick(10 * time.Minute)
	if r1.Charging() || r2.Charging() {
		t.Fatal("droop left charges running")
	}
	if q.Len() != 2 {
		t.Fatalf("queue holds %d, want both paused charges", q.Len())
	}
	if !p.DeferCharging(10*time.Minute + 30*time.Second) {
		t.Fatal("not deferring during the droop window")
	}
	if p.DeferCharging(12 * time.Minute) {
		t.Fatal("still deferring after the droop window")
	}
	if p.Metrics().DroopEvents != 1 {
		t.Fatalf("DroopEvents = %d", p.Metrics().DroopEvents)
	}
}

func TestEnforceCapShedsWithinTick(t *testing.T) {
	racks := []*rack.Rack{
		drainedChargingRack(t, "p1", rack.P1, 6300*units.Watt),
		drainedChargingRack(t, "p2", rack.P2, 6300*units.Watt),
		drainedChargingRack(t, "p3", rack.P3, 6300*units.Watt),
	}
	cap := StepSeries(time.Duration(0), 100*units.Kilowatt, time.Hour, units.Power(0))
	// Shrink the cap to just under the current draw at t=1h.
	n := power.NewNode("msb", power.LevelMSB, 100*units.Kilowatt)
	for _, r := range racks {
		n.AttachLoad(r)
	}
	shrunk := n.Power() - 1*units.Watt
	pts := cap.Points()
	pts[1].V = float64(shrunk)
	capSeries, err := NewSeries(pts)
	if err != nil {
		t.Fatal(err)
	}
	q := storm.NewQueue(storm.Config{})
	p, err := NewPolicy(&Spec{Cap: capSeries})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Bind(n, racks, q, core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}

	p.Tick(30 * time.Minute)
	if m := p.Metrics(); m.CapDemotions != 0 && m.CapPauses != 0 {
		t.Fatalf("enforcement before the shrink: %+v", m)
	}
	p.Tick(time.Hour)
	if got := n.Power(); got > shrunk {
		t.Fatalf("draw %v still over the shrunken cap %v after Tick", got, shrunk)
	}
	m := p.Metrics()
	if m.CapDemotions == 0 {
		t.Fatal("no demotions recorded")
	}
	// The P1 rack sheds last: a sliver of overdraw must be covered by
	// demoting the P3 rack alone.
	if racks[0].Pack().Setpoint() <= core.DefaultConfig().SafeCurrent() {
		t.Fatal("P1 demoted before P3 for a 1W excess")
	}
	p.Account(time.Hour, 3*time.Second)
	if p.Metrics().ViolationTicks != 0 {
		t.Fatal("violation recorded after in-tick enforcement")
	}
}

func TestShaveHoldsTargetAndRestores(t *testing.T) {
	racks := []*rack.Rack{
		idleRack("p1a", rack.P1, 6300*units.Watt),
		idleRack("p2a", rack.P2, 6300*units.Watt),
		idleRack("p3a", rack.P3, 6300*units.Watt),
		idleRack("p3b", rack.P3, 6300*units.Watt),
	}
	spec := &Spec{
		Events: []Event{{Kind: DemandResponse, At: 10 * time.Minute, Dur: 20 * time.Minute}},
		Policy: PolicyConfig{ShaveTarget: 15 * units.Kilowatt},
	}
	p, n, _ := rig(t, spec, 100*units.Kilowatt, racks...)

	p.Tick(5 * time.Minute)
	if p.Shaving() != 0 {
		t.Fatal("shaving before the DR window")
	}
	p.Tick(10 * time.Minute)
	if got := n.Power(); got > 15*units.Kilowatt {
		t.Fatalf("draw %v above the shave target", got)
	}
	if p.Shaving() != 2 {
		t.Fatalf("shaving %d racks, want 2", p.Shaving())
	}
	// Least critical volunteers first: both P3 racks discharge, the P1
	// and P2 racks stay on grid power.
	if racks[2].InputUp() || racks[3].InputUp() {
		t.Fatal("P3 racks not shaving")
	}
	if !racks[0].InputUp() || !racks[1].InputUp() {
		t.Fatal("P1/P2 rack volunteered to shave")
	}
	if got := p.ShavedPower(); got != 2*6300*units.Watt {
		t.Fatalf("ShavedPower = %v, want 12.6kW", got)
	}
	if !p.Busy(15 * time.Minute) {
		t.Fatal("not Busy mid-window")
	}
	// Let the shaving batteries actually discharge for a while.
	for _, r := range racks {
		r.Step(15*time.Minute, 5*time.Minute)
	}

	// Window closes: everything restores and recharges begin.
	p.Tick(30 * time.Minute)
	if p.Shaving() != 0 {
		t.Fatalf("still shaving %d after the window", p.Shaving())
	}
	for _, r := range racks {
		if !r.InputUp() {
			t.Fatalf("rack %s not restored", r.Name())
		}
	}
	if !racks[2].Charging() && !racks[3].Charging() {
		t.Fatal("shaved racks not recharging after restore")
	}
	m := p.Metrics()
	if m.ShaveStarts != 2 || m.ShaveStops != 2 || m.DRWindows != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if p.Busy(31 * time.Minute) {
		t.Fatal("Busy after all events and shaves done")
	}
}

func TestShaveDODBudgetRotatesRacks(t *testing.T) {
	racks := []*rack.Rack{
		idleRack("p3a", rack.P3, 6300*units.Watt),
		idleRack("p3b", rack.P3, 6300*units.Watt),
	}
	spec := &Spec{
		Events: []Event{{Kind: DemandResponse, At: 0, Dur: 4 * time.Hour}},
		Policy: PolicyConfig{ShaveTarget: 10 * units.Kilowatt, MaxShaveDOD: 0.05},
	}
	p, _, _ := rig(t, spec, 100*units.Kilowatt, racks...)
	step := 3 * time.Second
	rotated := false
	for now := time.Duration(0); now < time.Hour; now += step {
		p.Tick(now)
		for _, r := range racks {
			r.Step(now+step, step)
		}
		if p.Metrics().ShaveRotations > 0 {
			rotated = true
			break
		}
	}
	if !rotated {
		t.Fatal("no rack hit the MaxShaveDOD budget within an hour")
	}
}

func TestPriceTriggeredShave(t *testing.T) {
	racks := []*rack.Rack{
		idleRack("p3a", rack.P3, 6300*units.Watt),
		idleRack("p3b", rack.P3, 6300*units.Watt),
	}
	price := StepSeries(time.Duration(0), 40.0, time.Hour, 150.0, 2*time.Hour, 40.0)
	spec := &Spec{
		Price:  price,
		Policy: PolicyConfig{ShavePrice: 120, ShaveTarget: 8 * units.Kilowatt},
	}
	p, n, _ := rig(t, spec, 100*units.Kilowatt, racks...)
	p.Tick(30 * time.Minute)
	if p.Shaving() != 0 {
		t.Fatal("shaving at cheap price")
	}
	p.Tick(time.Hour)
	if p.Shaving() == 0 {
		t.Fatal("no shave at peak price")
	}
	if n.Power() > 8*units.Kilowatt {
		t.Fatalf("draw %v above target", n.Power())
	}
	p.Tick(2 * time.Hour)
	if p.Shaving() != 0 {
		t.Fatal("still shaving after price fell")
	}
}

func TestAccountScoresViolationsAndIntegrals(t *testing.T) {
	// IT load alone exceeds the cap and the policy has no charges to shed:
	// Account must score the violation (the guard's IT-capping territory).
	r := idleRack("p1", rack.P1, 6300*units.Watt)
	capSeries := StepSeries(time.Duration(0), 5*units.Kilowatt)
	price := StepSeries(time.Duration(0), 100.0)
	carbon := StepSeries(time.Duration(0), 500.0)
	spec := &Spec{Cap: capSeries, Price: price, Carbon: carbon}
	p, _, _ := rig(t, spec, 100*units.Kilowatt, r)

	p.Tick(0)
	p.Account(0, time.Hour)
	m := p.Metrics()
	if m.ViolationTicks != 1 {
		t.Fatalf("ViolationTicks = %d, want 1", m.ViolationTicks)
	}
	if m.MaxOverCap < 1*units.Kilowatt {
		t.Fatalf("MaxOverCap = %v", m.MaxOverCap)
	}
	// 6.3 kW for one hour at $100/MWh = $0.63; at 500 g/kWh = 3.15 kg.
	if m.EnergyCost < 0.62 || m.EnergyCost > 0.64 {
		t.Fatalf("EnergyCost = %v, want ~0.63", m.EnergyCost)
	}
	if m.CarbonKg < 3.1 || m.CarbonKg > 3.2 {
		t.Fatalf("CarbonKg = %v, want ~3.15", m.CarbonKg)
	}
	if m.GridEnergy.KWh() < 6.2 || m.GridEnergy.KWh() > 6.4 {
		t.Fatalf("GridEnergy = %v kWh", m.GridEnergy.KWh())
	}
}

// A tick with no repairable charge allocates nothing: repairSLA returns
// before it builds the shed order. Once charges are demoted to the safe
// current, repairs run in the ladder's reverse: most critical class first,
// shallowest discharge first, then name descending.
func TestRepairSLASkipsSortAndKeepsOrder(t *testing.T) {
	racks := []*rack.Rack{
		drainedChargingRack(t, "e3", rack.P3, 9000*units.Watt),
		drainedChargingRack(t, "c2", rack.P2, 9000*units.Watt),
		drainedChargingRack(t, "d2", rack.P2, 9000*units.Watt),
		drainedChargingRack(t, "b1", rack.P1, 11000*units.Watt),
		drainedChargingRack(t, "a1", rack.P1, 9000*units.Watt),
	}
	p, _, _ := rig(t, &Spec{}, 1000*units.Kilowatt, racks...)
	sink := obs.NewSink(64)
	p.SetObs(sink)
	now := 3 * time.Minute
	// Every charge runs at 5 A, above the safe current: nothing to repair.
	if allocs := testing.AllocsPerRun(50, func() { p.Tick(now) }); allocs != 0 {
		t.Errorf("a tick with no repairable charge allocates %v times, want 0", allocs)
	}
	if n := p.Metrics().SLARepairs; n != 0 {
		t.Fatalf("%d repairs with every charge above the safe current", n)
	}

	safe := core.DefaultConfig().SafeCurrent()
	for _, r := range racks {
		r.OverrideCurrent(safe)
	}
	p.Tick(now)
	var order []string
	for _, e := range sink.Flight.Last(64) {
		if e.Kind == "sla-repair" {
			order = append(order, e.Attr["rack"])
		}
	}
	if got, want := strings.Join(order, " "), "a1 b1 d2 c2 e3"; got != want {
		t.Errorf("repair order = %q, want %q", got, want)
	}
	// Repaired charges are above the safe current again.
	if allocs := testing.AllocsPerRun(50, func() { p.Tick(now) }); allocs != 0 {
		t.Errorf("a tick after the repairs allocates %v times, want 0", allocs)
	}
}
