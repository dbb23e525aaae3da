package power

import (
	"time"
)

// InputSwitchable is implemented by loads that react to losing and regaining
// input power (racks fall back to their batteries). Loads that do not
// implement it simply keep reporting their draw.
type InputSwitchable interface {
	LoseInput(now time.Duration)
	RestoreInput(now time.Duration)
}

// Energized reports whether the breaker is carrying power: it is not
// de-energized for maintenance, has not tripped, and neither has any
// ancestor.
func (n *Node) Energized() bool {
	for p := n; p != nil; p = p.parent {
		if p.deenergized || p.tripped {
			return false
		}
	}
	return true
}

// Deenergize removes the breaker from the critical power path at virtual
// time now — the start of an open transition at this level of the hierarchy
// (paper §II-C: maintenance transfers, utility failures). Every
// InputSwitchable load at or below the node loses input power. It is a no-op
// if the node is already de-energized.
func (n *Node) Deenergize(now time.Duration) {
	if n.deenergized {
		return
	}
	n.deenergized = true
	n.propagateInput(now)
}

// Reenergize restores the breaker to the power path at virtual time now (the
// transfer back, or repair completion). Loads regain input power only if no
// ancestor is still de-energized or tripped. It is a no-op if the node is
// not de-energized.
func (n *Node) Reenergize(now time.Duration) {
	if !n.deenergized {
		return
	}
	n.deenergized = false
	n.propagateInput(now)
}

// propagateInput pushes the current energization state to every switchable
// load in the subtree. Racks under a still-de-energized descendant stay down.
func (n *Node) propagateInput(now time.Duration) {
	var walk func(m *Node, up bool)
	walk = func(m *Node, up bool) {
		up = up && !m.deenergized && !m.tripped
		for _, l := range m.loads {
			sw, ok := l.(InputSwitchable)
			if !ok {
				continue
			}
			if up {
				sw.RestoreInput(now)
			} else {
				sw.LoseInput(now)
			}
		}
		for _, c := range m.children {
			walk(c, up)
		}
	}
	walk(n, n.Energized())
}
