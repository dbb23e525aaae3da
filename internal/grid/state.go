package grid

import (
	"time"

	"coordcharge/internal/units"
)

// PolicyState is the grid policy's mutable state — the "grid cursor": the
// next-unfired-event index, the defer state machine, the droop latch, the
// shaving set (in discharge order), and the accumulated metrics. The spec
// (series, events, thresholds) is construction-time configuration and is
// absent here.
type PolicyState struct {
	EventCursor int           `json:"event_cursor"`
	DroopUntil  time.Duration `json:"droop_until"`
	Deferring   bool          `json:"deferring"`
	DeferSince  time.Duration `json:"defer_since"`
	DeferLifted bool          `json:"defer_lifted"`
	LastCap     units.Power   `json:"last_cap"`
	Shaving     []string      `json:"shaving,omitempty"`
	Metrics     Metrics       `json:"metrics"`
}

// Snapshot captures the policy's mutable state. Shaving racks keep their
// discharge order.
func (p *Policy) Snapshot() PolicyState {
	st := PolicyState{
		EventCursor: p.eventCursor,
		DroopUntil:  p.droopUntil,
		Deferring:   p.deferring,
		DeferSince:  p.deferSince,
		DeferLifted: p.deferLifted,
		LastCap:     p.lastCap,
		Metrics:     p.metrics,
	}
	for _, r := range p.shaving {
		st.Shaving = append(st.Shaving, r.Name())
	}
	return st
}
