package power

import (
	"testing"
	"time"

	"coordcharge/internal/units"
)

// Trip latching across open transitions: a tripped breaker stays tripped —
// and its subtree stays dark — through any Deenergize/Reenergize cycle until
// an explicit Reset. Re-energization restores the maintenance path only, not
// a blown breaker.

// tripThree builds the three-level tree with the MSB limit tightened so a
// load of 15 kW (both switchLoads) overdraws a 10 kW limit beyond the default
// 30 % threshold.
func tripThree() (*Node, *Node, []*switchLoad) {
	msb, _, rpp, loads := buildThree()
	msb.SetLimit(10 * units.Kilowatt)
	return msb, rpp, loads
}

func tripNow(t *testing.T, n *Node, at time.Duration) {
	t.Helper()
	n.Observe(at) // arms the overdraw window
	if !n.Observe(at + n.Rule().Sustain) {
		t.Fatalf("setup: breaker %s did not trip", n.Name())
	}
}

func TestTripSurvivesDeenergizeReenergize(t *testing.T) {
	msb, _, loads := tripThree()
	tripNow(t, msb, 0)
	if !msb.Tripped() {
		t.Fatal("breaker not tripped after sustained overdraw")
	}

	// A maintenance transfer on the tripped breaker must not clear the trip.
	msb.Deenergize(40 * time.Second)
	if !msb.Tripped() {
		t.Fatal("Deenergize cleared the trip")
	}
	msb.Reenergize(50 * time.Second)
	if !msb.Tripped() {
		t.Fatal("Reenergize cleared the trip")
	}
	for _, l := range loads {
		if l.up {
			t.Fatalf("load %s regained input through a tripped breaker", l.name)
		}
	}
	if msb.Power() != 0 {
		t.Fatalf("tripped breaker carries %v", msb.Power())
	}

	// Only Reset repairs it.
	msb.Reset(time.Minute)
	if msb.Tripped() {
		t.Fatal("Reset did not clear the trip")
	}
	for _, l := range loads {
		if !l.up {
			t.Fatalf("load %s still down after Reset", l.name)
		}
	}
}

func TestOpenTransitionRestoreDoesNotClearTrip(t *testing.T) {
	msb, _, loads := tripThree()
	msb.Deenergize(0)
	// The breaker trips mid-transition (e.g. a downstream fault found during
	// maintenance): Power() is 0 while de-energized, so trip it directly via
	// a nested child... the MSB itself cannot overdraw while dark. Instead,
	// re-energize first, then trip, then run a second transition.
	msb.Reenergize(10 * time.Second)
	tripNow(t, msb, 10*time.Second)

	msb.Deenergize(60 * time.Second)
	msb.Reenergize(70 * time.Second)
	if !msb.Tripped() {
		t.Fatal("open-transition restore cleared the trip")
	}
	for _, l := range loads {
		if l.up {
			t.Fatalf("load %s up under a tripped breaker after open-transition restore", l.name)
		}
	}
}

func TestTrippedChildStaysDarkWhenParentCycles(t *testing.T) {
	msb, rpp, loads := tripThree()
	rpp.SetLimit(10 * units.Kilowatt)
	tripNow(t, rpp, 0)

	// Cycling the MSB (site-wide outage and restore) must not resurrect the
	// tripped RPP's subtree.
	msb.Deenergize(time.Minute)
	msb.Reenergize(2 * time.Minute)
	if !rpp.Tripped() {
		t.Fatal("parent cycle cleared the child trip")
	}
	for _, l := range loads {
		if l.up {
			t.Fatalf("load %s up under tripped RPP after parent restore", l.name)
		}
	}
	rpp.Reset(3 * time.Minute)
	for _, l := range loads {
		if !l.up {
			t.Fatalf("load %s down after RPP reset", l.name)
		}
	}
}

func TestObserveWhileTrippedStaysLatched(t *testing.T) {
	msb, _, _ := tripThree()
	tripNow(t, msb, 0)
	// Draw is zero now (breaker open); further observations must neither
	// re-trip nor unlatch.
	for now := 40 * time.Second; now <= 2*time.Minute; now += 10 * time.Second {
		if msb.Observe(now) {
			t.Fatalf("tripped breaker re-tripped at %v", now)
		}
		if !msb.Tripped() {
			t.Fatalf("trip unlatched at %v", now)
		}
	}
}
