package battery

import (
	"math"
	"testing"
	"time"

	"coordcharge/internal/rng"
	"coordcharge/internal/units"
)

// The analytic fast path (AdvanceTicks) exists to let an event-driven kernel
// skip dense ticks without perturbing a single bit of simulation state, so
// its tests demand float64 bit-equality (==, not tolerance) against the
// stepped reference at every tick boundary.

func TestAdvanceTicksBitExact(t *testing.T) {
	s := Fig5Surface()
	r := rng.New(42)
	for _, tc := range []struct {
		i    units.Current
		dod  units.Fraction
		step time.Duration
	}{
		{5, 1, 3 * time.Second},
		{5, 0.7, 3 * time.Second},
		{3, 0.5, 3 * time.Second},
		{2, 0.33, 5 * time.Second},
		{1, 0.05, 3 * time.Second},
		{1, 1, 10 * time.Second},
		{4, 0.9, time.Second},
	} {
		// Reference: the dense per-tick trajectory.
		ref := NewRackPack(s)
		ref.StartCharge(tc.i, tc.dod)
		var traj []float64 // qRemain after tick k
		var charging []bool
		for n := 0; ref.Charging() && n < 1<<22; n++ {
			ref.Step(tc.step)
			traj = append(traj, ref.qRemain)
			charging = append(charging, ref.charging)
		}
		if len(traj) == 0 || charging[len(traj)-1] {
			t.Fatalf("%v A / %v DOD: reference never completed (%d ticks)", tc.i, tc.dod, len(traj))
		}

		// Fast path: the same trajectory in random chunks.
		fast := NewRackPack(s)
		fast.StartCharge(tc.i, tc.dod)
		tick := 0
		for fast.Charging() {
			chunk := 1 + r.Intn(997)
			adv := fast.AdvanceTicks(tc.step, chunk)
			tick += adv
			if tick > len(traj) {
				t.Fatalf("%v A / %v DOD: advanced past the reference completion (%d > %d)", tc.i, tc.dod, tick, len(traj))
			}
			if fast.qRemain != traj[tick-1] && tick > 0 && adv > 0 {
				t.Fatalf("%v A / %v DOD: qRemain %x != reference %x after tick %d",
					tc.i, tc.dod, math.Float64bits(fast.qRemain), math.Float64bits(traj[tick-1]), tick-1)
			}
			if adv < chunk {
				// The withheld tick must be the completing one: executing it
				// through the real Step must finish the charge.
				if !fast.Charging() {
					t.Fatalf("%v A / %v DOD: AdvanceTicks stopped early with the pack idle", tc.i, tc.dod)
				}
				fast.Step(tc.step)
				tick++
				if fast.Charging() {
					t.Fatalf("%v A / %v DOD: withheld tick %d did not complete the charge", tc.i, tc.dod, tick-1)
				}
			}
		}
		if tick != len(traj) {
			t.Errorf("%v A / %v DOD: fast path completed after %d ticks, reference after %d", tc.i, tc.dod, tick, len(traj))
		}
	}
}

func TestAdvanceTicksIdleNoOp(t *testing.T) {
	rp := NewRackPack(Fig5Surface())
	if got := rp.AdvanceTicks(3*time.Second, 100); got != 100 {
		t.Errorf("idle AdvanceTicks = %d, want 100 (no-op consumes every tick)", got)
	}
	rp.StartCharge(5, 0.5)
	if got := rp.AdvanceTicks(0, 100); got != 100 {
		t.Errorf("zero-dt AdvanceTicks = %d, want 100", got)
	}
}

// TestPowerLowerBoundSound checks the bound's one contract: at every tick
// inside the window the pack's actual power stays at or above the bound
// computed at the window's start, across CC, crossing, and CV regimes.
func TestPowerLowerBoundSound(t *testing.T) {
	s := Fig5Surface()
	const step = 3 * time.Second
	for _, tc := range []struct {
		i   units.Current
		dod units.Fraction
		win time.Duration
	}{
		{5, 0.7, time.Minute},
		{5, 0.1, time.Minute},
		{2, 0.33, 30 * time.Second},
		{1, 0.9, time.Minute},
		{3, 0.5, 5 * time.Minute},
	} {
		rp := NewRackPack(s)
		rp.StartCharge(tc.i, tc.dod)
		for rp.Charging() {
			bound := rp.PowerLowerBound(tc.win)
			probe := *rp // value copy: packs have no reference fields beyond the shared surface
			for off := time.Duration(0); off < tc.win && probe.Charging(); off += step {
				if p := probe.Power(); p < bound {
					t.Fatalf("%v A / %v DOD: power %v at +%v below bound %v", tc.i, tc.dod, p, off, bound)
				}
				probe.Step(step)
			}
			rp.Step(step)
		}
		if rp.PowerLowerBound(time.Minute) != 0 {
			t.Fatalf("%v A / %v DOD: idle pack bound non-zero", tc.i, tc.dod)
		}
	}
}
