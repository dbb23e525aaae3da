package battery

import "coordcharge/internal/units"

// PackState is a RackPack's mutable state. The surface and the physical
// constants (watts per amp, CV rate, cutoff) are construction-time
// configuration and are absent here.
type PackState struct {
	Setpoint units.Current  `json:"setpoint"`
	QRemain  float64        `json:"q_remain"`
	QInitial float64        `json:"q_initial"`
	DOD0     units.Fraction `json:"dod0"`
	Charging bool           `json:"charging"`
	Deficit  float64        `json:"deficit"`
}

// Snapshot captures the pack's mutable state.
func (rp *RackPack) Snapshot() PackState {
	return PackState{
		Setpoint: rp.setpoint,
		QRemain:  rp.qRemain,
		QInitial: rp.qInitial,
		DOD0:     rp.dod0,
		Charging: rp.charging,
		Deficit:  rp.deficit,
	}
}
