package power

import "time"

// NodeState is one breaker's mutable state: its protection latches.
// Topology (parents, children, loads), limits, and trip rules are
// construction-time configuration and are absent here.
type NodeState struct {
	Name        string        `json:"name"`
	OverSince   time.Duration `json:"over_since"`
	Overdrawn   bool          `json:"overdrawn"`
	Tripped     bool          `json:"tripped"`
	Deenergized bool          `json:"deenergized"`
}

// Snapshot captures the breaker's protection latches.
func (n *Node) Snapshot() NodeState {
	return NodeState{
		Name:        n.name,
		OverSince:   n.overSince,
		Overdrawn:   n.overdrawn,
		Tripped:     n.tripped,
		Deenergized: n.deenergized,
	}
}
