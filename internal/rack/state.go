package rack

import (
	"time"

	"coordcharge/internal/battery"
	"coordcharge/internal/units"
)

// State is a rack's mutable simulation state, pack included.
// Construction-time configuration — priority, charger policy, battery
// surface, watchdog TTL and safe current, observability wiring — is absent,
// and so are the demand and the version counter: the event kernel pushes
// demand only on the ticks it executes, so both lag the dense loop's values
// without changing any result.
type State struct {
	Name           string                 `json:"name"`
	Caps           map[string]units.Power `json:"caps,omitempty"`
	InputUp        bool                   `json:"input_up"`
	UnservedEnergy units.Energy           `json:"unserved_energy"`
	LoadDrops      int                    `json:"load_drops"`
	ChargeStart    time.Duration          `json:"charge_start"`
	ChargeEnd      time.Duration          `json:"charge_end"`
	LastDOD        units.Fraction         `json:"last_dod"`
	PendingDOD     units.Fraction         `json:"pending_dod"`
	LastContact    time.Duration          `json:"last_contact"`
	HaveContact    bool                   `json:"have_contact"`
	FailSafe       bool                   `json:"fail_safe"`
	FailSafeCount  int                    `json:"fail_safe_count"`
	Pack           battery.PackState      `json:"pack"`
}

// Snapshot captures the rack's mutable state. The caps map is copied so
// later mutations cannot alias into the snapshot.
func (r *Rack) Snapshot() State {
	st := State{
		Name:           r.name,
		InputUp:        r.inputUp,
		UnservedEnergy: r.unservedEnergy,
		LoadDrops:      r.loadDrops,
		ChargeStart:    r.chargeStart,
		ChargeEnd:      r.chargeEnd,
		LastDOD:        r.lastDOD,
		PendingDOD:     r.pendingDOD,
		LastContact:    r.lastContact,
		HaveContact:    r.haveContact,
		FailSafe:       r.failSafe,
		FailSafeCount:  r.failSafeCount,
		Pack:           r.pack.Snapshot(),
	}
	if len(r.caps) > 0 {
		st.Caps = make(map[string]units.Power, len(r.caps))
		for k, v := range r.caps {
			st.Caps[k] = v
		}
	}
	return st
}
