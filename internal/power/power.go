// Package power models the data-center power-delivery hierarchy of the
// paper's §II-A: a tree of circuit breakers — main switch board (MSB, 2.5 MW)
// over switch boards (SB, 1.25 MW) over reactor power panels (RPP, 190 kW) —
// with racks as leaves, plus metering, headroom accounting, and a
// sustained-overload breaker-trip model.
package power

import (
	"fmt"
	"time"

	"coordcharge/internal/units"
)

// Level is the position of a node in the power hierarchy.
type Level int

// Hierarchy levels, top down.
const (
	LevelMSB Level = iota
	LevelSB
	LevelRPP
)

// String returns the level's conventional name.
func (l Level) String() string {
	switch l {
	case LevelMSB:
		return "MSB"
	case LevelSB:
		return "SB"
	case LevelRPP:
		return "RPP"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Default breaker ratings of the Open Compute hierarchy (paper §II-A).
const (
	DefaultMSBLimit = 2.5 * units.Megawatt
	DefaultSBLimit  = 1.25 * units.Megawatt
	DefaultRPPLimit = 190 * units.Kilowatt
)

// Load is anything that draws power from a breaker: racks implement it.
type Load interface {
	Name() string
	Power() units.Power
}

// TripRule is the breaker protection curve: a sustained overdraw beyond
// Fraction of the limit for at least Sustain trips the breaker. The paper's
// example: a 30 % overdraw for more than 30 seconds (§I).
type TripRule struct {
	Fraction units.Fraction
	Sustain  time.Duration
}

// DefaultTripRule is the paper's §I example curve.
func DefaultTripRule() TripRule {
	return TripRule{Fraction: 0.3, Sustain: 30 * time.Second}
}

// Node is one circuit breaker in the hierarchy. Construct with NewNode and
// assemble with AddChild/AttachLoad.
type Node struct {
	name     string
	level    Level
	limit    units.Power
	rule     TripRule
	parent   *Node
	children []*Node
	loads    []Load

	overSince   time.Duration // virtual time the sustained overdraw began
	overdrawn   bool
	tripped     bool
	deenergized bool // removed from the power path for maintenance
}

// NewNode returns a breaker with the given name, level, and power limit.
func NewNode(name string, level Level, limit units.Power) *Node {
	if limit <= 0 {
		panic(fmt.Errorf("power: breaker %s has non-positive limit %v", name, limit))
	}
	return &Node{name: name, level: level, limit: limit, rule: DefaultTripRule()}
}

// Name returns the breaker's identifier.
func (n *Node) Name() string { return n.name }

// Level returns the breaker's hierarchy level.
func (n *Node) Level() Level { return n.level }

// Limit returns the breaker's rated power limit.
func (n *Node) Limit() units.Power { return n.limit }

// SetLimit changes the breaker's power limit (the evaluation sweeps MSB
// limits to vary available power).
func (n *Node) SetLimit(limit units.Power) {
	if limit <= 0 {
		panic(fmt.Errorf("power: breaker %s set to non-positive limit %v", n.name, limit))
	}
	n.limit = limit
}

// SetTripRule replaces the breaker's protection curve.
func (n *Node) SetTripRule(r TripRule) { n.rule = r }

// Rule returns the breaker's protection curve (read access for watchdogs
// that must act before the trip window closes).
func (n *Node) Rule() TripRule { return n.rule }

// Parent returns the breaker feeding this one, or nil at the root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the downstream breakers.
func (n *Node) Children() []*Node { return n.children }

// Loads returns the loads attached directly to this breaker.
func (n *Node) Loads() []Load { return n.loads }

// AddChild attaches a downstream breaker. It panics if child already has a
// parent or if the attachment would create a cycle: both are construction
// bugs.
func (n *Node) AddChild(child *Node) *Node {
	if child.parent != nil {
		panic(fmt.Errorf("power: %s already has parent %s", child.name, child.parent.name))
	}
	for p := n; p != nil; p = p.parent {
		if p == child {
			panic(fmt.Errorf("power: attaching %s to %s would create a cycle", child.name, n.name))
		}
	}
	child.parent = n
	n.children = append(n.children, child)
	return child
}

// AttachLoad attaches a load (rack) directly to this breaker.
func (n *Node) AttachLoad(l Load) {
	if l == nil {
		panic(fmt.Errorf("power: nil load attached to %s", n.name))
	}
	n.loads = append(n.loads, l)
}

// Power returns the instantaneous draw through this breaker: the sum of all
// attached loads and downstream breakers. A tripped or de-energized breaker
// carries no power.
func (n *Node) Power() units.Power {
	if n.tripped || n.deenergized {
		return 0
	}
	var total units.Power
	for _, c := range n.children {
		total += c.Power()
	}
	for _, l := range n.loads {
		total += l.Power()
	}
	return total
}

// Headroom returns limit − draw (negative when overloaded): the paper's
// "available power".
func (n *Node) Headroom() units.Power {
	return n.limit - n.Power()
}

// Overloaded reports whether the instantaneous draw exceeds the limit.
func (n *Node) Overloaded() bool { return n.Power() > n.limit }

// Tripped reports whether the breaker has tripped. A tripped breaker stays
// tripped until Reset.
func (n *Node) Tripped() bool { return n.tripped }

// Overdrawn reports whether the breaker is inside a sustained-overload
// episode (Observe saw draw above the trip threshold and the sustain window
// is running). The event kernel refuses to skip ticks while an episode is
// open: Observe must keep stamping the physics clock.
func (n *Node) Overdrawn() bool { return n.overdrawn }

// Reset clears a tripped breaker at virtual time now (the repair action) and
// restores input power to the subtree where possible.
func (n *Node) Reset(now time.Duration) {
	if !n.tripped {
		n.overdrawn = false
		return
	}
	n.tripped = false
	n.overdrawn = false
	n.propagateInput(now)
}

// Observe advances the trip model to virtual time now: a draw beyond
// (1+Fraction)·limit sustained for Sustain trips the breaker. Call it once
// per simulation tick, top-down or in any order. It returns true if the
// breaker tripped during this observation.
func (n *Node) Observe(now time.Duration) bool {
	if n.tripped {
		return false
	}
	threshold := units.Power(float64(n.limit) * (1 + float64(n.rule.Fraction)))
	if n.Power() <= threshold {
		n.overdrawn = false
		return false
	}
	if !n.overdrawn {
		n.overdrawn = true
		n.overSince = now
		return false
	}
	if now-n.overSince >= n.rule.Sustain {
		// The breaker opens: a power outage for everything beneath it
		// (paper §II-C — outages, unlike open transitions, last until
		// repair).
		n.tripped = true
		n.propagateInput(now)
		return true
	}
	return false
}

// Walk visits n and every descendant breaker in depth-first order.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.children {
		c.Walk(visit)
	}
}

// RackLoads returns every load attached at or below this breaker, in
// depth-first order.
func (n *Node) RackLoads() []Load {
	var out []Load
	n.Walk(func(m *Node) { out = append(out, m.loads...) })
	return out
}

// Validate checks structural invariants of the subtree: positive limits,
// unique names, parent links consistent. Aggregate child ratings MAY exceed
// the parent's limit — that is exactly what power oversubscription means
// (paper §II-B) — so no capacity check is made.
func (n *Node) Validate() error {
	seen := make(map[string]bool)
	var walk func(m *Node) error
	walk = func(m *Node) error {
		if m.limit <= 0 {
			return fmt.Errorf("power: breaker %s has non-positive limit", m.name)
		}
		if seen[m.name] {
			return fmt.Errorf("power: duplicate breaker name %q", m.name)
		}
		seen[m.name] = true
		for _, c := range m.children {
			if c.parent != m {
				return fmt.Errorf("power: %s has inconsistent parent link", c.name)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(n)
}
