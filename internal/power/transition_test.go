package power

import (
	"testing"
	"time"

	"coordcharge/internal/units"
)

// switchLoad is a Load + InputSwitchable recording its input state.
type switchLoad struct {
	name string
	p    units.Power
	up   bool
	lost int // LoseInput calls
}

func newSwitchLoad(name string, p units.Power) *switchLoad {
	return &switchLoad{name: name, p: p, up: true}
}

func (s *switchLoad) Name() string { return s.name }
func (s *switchLoad) Power() units.Power {
	if !s.up {
		return 0
	}
	return s.p
}
func (s *switchLoad) LoseInput(time.Duration) {
	if s.up {
		s.lost++
	}
	s.up = false
}
func (s *switchLoad) RestoreInput(time.Duration) { s.up = true }

func buildThree() (*Node, *Node, *Node, []*switchLoad) {
	msb := NewNode("msb", LevelMSB, DefaultMSBLimit)
	sb := msb.AddChild(NewNode("sb", LevelSB, DefaultSBLimit))
	rpp := sb.AddChild(NewNode("rpp", LevelRPP, DefaultRPPLimit))
	loads := []*switchLoad{newSwitchLoad("a", 10*units.Kilowatt), newSwitchLoad("b", 5*units.Kilowatt)}
	for _, l := range loads {
		rpp.AttachLoad(l)
	}
	return msb, sb, rpp, loads
}

func TestDeenergizePropagatesToLoads(t *testing.T) {
	msb, sb, rpp, loads := buildThree()
	if !msb.Energized() || !rpp.Energized() {
		t.Fatal("fresh tree not energized")
	}
	sb.Deenergize(time.Minute)
	for _, l := range loads {
		if l.up {
			t.Errorf("load %s still up after SB de-energize", l.name)
		}
	}
	if rpp.Energized() {
		t.Error("RPP reports energized under a de-energized SB")
	}
	if got := msb.Power(); got != 0 {
		t.Errorf("MSB power during transition = %v, want 0", got)
	}
	sb.Reenergize(time.Minute + 45*time.Second)
	for _, l := range loads {
		if !l.up {
			t.Errorf("load %s still down after re-energize", l.name)
		}
	}
	if got := msb.Power(); got != 15*units.Kilowatt {
		t.Errorf("MSB power after restore = %v", got)
	}
}

func TestDeenergizeIdempotent(t *testing.T) {
	_, sb, _, loads := buildThree()
	sb.Deenergize(0)
	sb.Deenergize(time.Second)
	if loads[0].lost != 1 {
		t.Errorf("LoseInput delivered %d times, want 1", loads[0].lost)
	}
	sb.Reenergize(2 * time.Second)
	sb.Reenergize(3 * time.Second) // no-op
	if !loads[0].up {
		t.Error("load down after double re-energize")
	}
}

func TestNestedDeenergizeKeepsSubtreeDown(t *testing.T) {
	msb, sb, rpp, loads := buildThree()
	msb.Deenergize(0)
	rpp.Deenergize(time.Second)
	// Restoring the MSB does not restore loads under the still-open RPP.
	msb.Reenergize(time.Minute)
	for _, l := range loads {
		if l.up {
			t.Error("load restored under a de-energized RPP")
		}
	}
	rpp.Reenergize(2 * time.Minute)
	for _, l := range loads {
		if !l.up {
			t.Error("load still down after both levels restored")
		}
	}
	_ = sb
}

func TestTripCutsPowerToSubtree(t *testing.T) {
	_, _, rpp, loads := buildThree()
	rpp.SetLimit(10 * units.Kilowatt) // 15 kW of load: 50% overdraw
	now := time.Duration(0)
	for !rpp.Tripped() && now < 5*time.Minute {
		rpp.Observe(now)
		now += 3 * time.Second
	}
	if !rpp.Tripped() {
		t.Fatal("breaker never tripped under 50% overdraw")
	}
	for _, l := range loads {
		if l.up {
			t.Error("load still powered under a tripped breaker")
		}
	}
	if got := rpp.Power(); got != 0 {
		t.Errorf("tripped breaker carries %v", got)
	}
	// Repair restores the subtree.
	rpp.Reset(now + time.Hour)
	for _, l := range loads {
		if !l.up {
			t.Error("load still down after breaker reset")
		}
	}
	if rpp.Tripped() {
		t.Error("breaker still tripped after reset")
	}
}

func TestResetWithoutTripIsHarmless(t *testing.T) {
	_, _, rpp, loads := buildThree()
	rpp.Reset(time.Minute)
	for _, l := range loads {
		if !l.up {
			t.Error("reset on healthy breaker dropped loads")
		}
	}
}

func TestNonSwitchableLoadsTolerated(t *testing.T) {
	rpp := NewNode("rpp", LevelRPP, DefaultRPPLimit)
	rpp.AttachLoad(&stubLoad{"fixed", 5 * units.Kilowatt})
	rpp.Deenergize(0) // must not panic
	if got := rpp.Power(); got != 0 {
		t.Errorf("de-energized node power = %v, want 0", got)
	}
	rpp.Reenergize(time.Second)
	if got := rpp.Power(); got != 5*units.Kilowatt {
		t.Errorf("restored node power = %v", got)
	}
}
