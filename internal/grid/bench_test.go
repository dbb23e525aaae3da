package grid

import (
	"fmt"
	"testing"
	"time"

	"coordcharge/internal/obs"
	"coordcharge/internal/rack"
	"coordcharge/internal/units"
)

// quiescentPolicy binds a policy over 30 racks, a third of them mid-recharge
// above the safe current, under a cap series, price and carbon signals and
// one cap-shrink event that has not started, with an observability sink
// attached as a coordinated run attaches one. At the returned instant the
// draw sits well under the cap: a Tick acts on nothing and Account only
// meters.
func quiescentPolicy(tb testing.TB) (*Policy, time.Duration) {
	tb.Helper()
	racks := make([]*rack.Rack, 30)
	for i := range racks {
		name, prio := fmt.Sprintf("r%02d", i), rack.Priority(1+i%3)
		if i%3 == 0 {
			racks[i] = drainedChargingRack(tb, name, prio, 6*units.Kilowatt)
		} else {
			racks[i] = idleRack(name, prio, 6*units.Kilowatt)
		}
	}
	spec := &Spec{
		Cap:    StepSeries(time.Duration(0), 340*units.Kilowatt, 2*time.Hour, 300*units.Kilowatt),
		Price:  StepSeries(time.Duration(0), 40.0, time.Hour, 95.0),
		Carbon: StepSeries(time.Duration(0), 450.0, 90*time.Minute, 120.0),
		Events: []Event{{Kind: CapShrink, At: 3 * time.Hour, Dur: time.Hour, Frac: 0.3}},
	}
	p, _, _ := rig(tb, spec, 340*units.Kilowatt, racks...)
	p.SetObs(obs.NewSink(64))
	now := 10 * time.Minute
	p.Tick(now)
	p.Account(now, 3*time.Second)
	if !p.Idle(now) || p.RepairDue(now) {
		tb.Fatal("setup: the policy would act at the benchmark instant")
	}
	return p, now
}

// A skipped grid tick on the event kernel costs at least one Account, so a
// quiescent Account must not allocate.
func TestAccountQuiescentAllocatesNothing(t *testing.T) {
	p, now := quiescentPolicy(t)
	if allocs := testing.AllocsPerRun(100, func() { p.Account(now, 3*time.Second) }); allocs != 0 {
		t.Errorf("a quiescent Account allocates %v times, want 0", allocs)
	}
}

// BenchmarkPolicyAccount times the grid meter: one tick's scoring and
// energy, cost and carbon integration over a 30-rack feed — the floor of a
// skipped grid tick on the event kernel.
func BenchmarkPolicyAccount(b *testing.B) {
	p, now := quiescentPolicy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Account(now, 3*time.Second)
	}
}

// BenchmarkPolicyTick times a quiescent grid-policy tick over the same
// feed: no event due, nothing to shave, shed or repair.
func BenchmarkPolicyTick(b *testing.B) {
	p, now := quiescentPolicy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Tick(now)
	}
}
