// Package battery models the rack battery backup unit (BBU) described in the
// paper: a Li-ion pack charged with the two-step constant-current /
// constant-voltage (CC-CV) method.
//
// # Model
//
// State of charge s ∈ [0,1]. Open-circuit voltage is linear in s,
// OCV(s) = V0 + k·s, and terminal voltage while charging is
// V = OCV(s) + I·R with internal resistance R. The charger drives a constant
// current Ic until V reaches the CV setpoint Vcv, then holds Vcv so the
// current decays exponentially with time constant τ = R·Q/k; charging
// terminates at the cutoff current Imin. Full charge (s = 1) is defined as
// the cutoff point, OCV(1) = Vcv − Imin·R, so CV always terminates exactly
// at s = 1.
//
// # Calibration
//
// The default parameters reproduce the paper's measured anchor points
// (Figs 3–5, §III, §V-B1):
//
//   - a full charge at 5 A spends ≈20 min in CC (transition at 52 V) and
//     ≈16 min in CV, completing in ≈36 min;
//   - charge time is independent of DOD below ≈22 % DOD (pure-CV region);
//   - the CV current/power tail decays like e^(−0.18·t[min]);
//   - initial CC charge power at 5 A is ≈260 W per BBU;
//   - a full discharge is 3300 W of IT load for 90 s (297 kJ).
package battery

import (
	"fmt"
	"math"
	"time"

	"coordcharge/internal/units"
)

// Params are the electrochemical and charger-hardware constants of a BBU.
type Params struct {
	// Capacity is the coulombic capacity Q between empty and the CV cutoff.
	Capacity units.Charge
	// OCVEmpty is the open-circuit voltage V0 at zero state of charge.
	OCVEmpty units.Voltage
	// OCVSpan is k = OCV(1) − OCV(0).
	OCVSpan units.Voltage
	// InternalR is the internal resistance R in ohms.
	InternalR float64
	// VCV is the constant-voltage setpoint.
	VCV units.Voltage
	// CutoffI is the CV termination current.
	CutoffI units.Current
	// FullEnergy is the usable discharge energy of a full battery (the
	// paper's "full discharge": 3300 W × 90 s).
	FullEnergy units.Energy
	// MaxDischarge is the maximum power the BBU can deliver.
	MaxDischarge units.Power
	// MinChargeI and MaxChargeI bound the charger hardware's CC setpoint
	// (manual-override range; the recommended Li-ion CC floor is 1 A).
	MinChargeI units.Current
	MaxChargeI units.Current
	// FadePerCycle is the fractional usable-capacity loss per equivalent
	// full discharge cycle — the battery-aging concern the paper's related
	// work highlights (Liu et al.). Zero (the default) disables aging.
	FadePerCycle float64
	// MinHealth floors capacity fade (zero selects 0.6: packs are replaced
	// well before losing 40 % of capacity).
	MinHealth float64
}

// DefaultParams returns the calibrated production-BBU parameters (see the
// package comment and DESIGN.md §3).
func DefaultParams() Params {
	const (
		q      = 7748  // A·s  (≈2.15 Ah)
		k      = 6     // V
		r      = 0.294 // Ω
		vcv    = 52.5  // V
		cutoff = 0.4   // A
	)
	return Params{
		Capacity:     units.Charge(q),
		OCVEmpty:     units.Voltage(vcv - cutoff*r - k),
		OCVSpan:      units.Voltage(k),
		InternalR:    r,
		VCV:          units.Voltage(vcv),
		CutoffI:      units.Current(cutoff),
		FullEnergy:   units.EnergyOver(3300*units.Watt, 90*time.Second),
		MaxDischarge: 3300 * units.Watt,
		MinChargeI:   1 * units.Ampere,
		MaxChargeI:   5 * units.Ampere,
	}
}

// Validate reports whether the parameters are physically consistent.
func (p Params) Validate() error {
	switch {
	case p.Capacity <= 0:
		return fmt.Errorf("battery: capacity %v must be positive", p.Capacity)
	case p.OCVSpan <= 0:
		return fmt.Errorf("battery: OCV span %v must be positive", p.OCVSpan)
	case p.InternalR <= 0:
		return fmt.Errorf("battery: internal resistance %v must be positive", p.InternalR)
	case p.CutoffI <= 0:
		return fmt.Errorf("battery: cutoff current %v must be positive", p.CutoffI)
	case p.FullEnergy <= 0:
		return fmt.Errorf("battery: full energy %v must be positive", p.FullEnergy)
	case p.MaxDischarge <= 0:
		return fmt.Errorf("battery: max discharge %v must be positive", p.MaxDischarge)
	case p.MinChargeI <= p.CutoffI:
		return fmt.Errorf("battery: min charge current %v must exceed cutoff %v", p.MinChargeI, p.CutoffI)
	case p.MaxChargeI < p.MinChargeI:
		return fmt.Errorf("battery: max charge current %v below min %v", p.MaxChargeI, p.MinChargeI)
	case p.FadePerCycle < 0 || p.FadePerCycle > 0.01:
		return fmt.Errorf("battery: fade per cycle %v out of [0, 0.01]", p.FadePerCycle)
	case p.MinHealth < 0 || p.MinHealth > 1:
		return fmt.Errorf("battery: min health %v out of [0, 1]", p.MinHealth)
	}
	ocvFull := float64(p.OCVEmpty) + float64(p.OCVSpan)
	wantFull := float64(p.VCV) - float64(p.CutoffI)*p.InternalR
	if math.Abs(ocvFull-wantFull) > 1e-6 {
		return fmt.Errorf("battery: OCV(1)=%.4f V must equal VCV−Imin·R=%.4f V so CV terminates at full charge", ocvFull, wantFull)
	}
	return nil
}

// OCV returns the open-circuit voltage at state of charge s.
func (p Params) OCV(s units.Fraction) units.Voltage {
	return p.OCVEmpty + units.Voltage(float64(p.OCVSpan)*float64(s))
}

// Tau returns the CV-phase exponential time constant τ = R·Q/k.
func (p Params) Tau() time.Duration {
	sec := p.InternalR * float64(p.Capacity) / float64(p.OCVSpan)
	return time.Duration(sec * float64(time.Second))
}

// SOCAtCV returns the state of charge at which a charger driving constant
// current i hits the CV voltage limit: soc_cv(i) = (Vcv − i·R − V0)/k.
// Above this SOC the charge is voltage-limited (CV mode).
func (p Params) SOCAtCV(i units.Current) units.Fraction {
	s := (float64(p.VCV) - float64(i)*p.InternalR - float64(p.OCVEmpty)) / float64(p.OCVSpan)
	return units.Fraction(s)
}

// State is the lifecycle state of a BBU, mirroring Fig 8(a) of the paper.
type State int

// BBU states.
const (
	FullyCharged State = iota
	Charging
	Discharging
	FullyDischarged
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case FullyCharged:
		return "FullyCharged"
	case Charging:
		return "Charging"
	case Discharging:
		return "Discharging"
	case FullyDischarged:
		return "FullyDischarged"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// BBU is a battery backup unit instance. Construct with New; the zero value
// is not usable.
type BBU struct {
	p        Params
	soc      float64
	state    State
	setpoint units.Current // active CC setpoint while charging
	cycles   float64       // equivalent full cycles discharged (aging)
}

// New returns a fully charged BBU with the given parameters. It panics if
// the parameters are invalid: a bad battery model is a programming error
// every experiment would silently inherit.
func New(p Params) *BBU {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &BBU{p: p, soc: 1, state: FullyCharged}
}

// Clone returns an independent copy, used by controllers for what-if
// charge-time prediction.
func (b *BBU) Clone() *BBU {
	c := *b
	return &c
}

// Params returns the BBU's parameters.
func (b *BBU) Params() Params { return b.p }

// State returns the current lifecycle state.
func (b *BBU) State() State { return b.state }

// SOC returns the state of charge in [0,1].
func (b *BBU) SOC() units.Fraction { return units.Fraction(b.soc) }

// DOD returns the depth of discharge, 1 − SOC.
func (b *BBU) DOD() units.Fraction { return units.Fraction(1 - b.soc) }

// Setpoint returns the active CC charging-current setpoint (meaningful while
// Charging).
func (b *BBU) Setpoint() units.Current { return b.setpoint }

// Health returns the fraction of nominal usable capacity remaining after
// cycle aging: 1 with aging disabled, decreasing by FadePerCycle per
// equivalent full cycle down to the MinHealth floor.
func (b *BBU) Health() units.Fraction {
	if b.p.FadePerCycle == 0 {
		return 1
	}
	floor := b.p.MinHealth
	if floor == 0 {
		floor = 0.6
	}
	h := 1 - b.p.FadePerCycle*b.cycles
	if h < floor {
		h = floor
	}
	return units.Fraction(h)
}

// EquivalentCycles returns the cumulative discharge, in equivalent full
// cycles of the nominal capacity.
func (b *BBU) EquivalentCycles() float64 { return b.cycles }

// usableEnergy is the aged full-discharge energy.
func (b *BBU) usableEnergy() units.Energy {
	return units.Energy(float64(b.p.FullEnergy) * float64(b.Health()))
}

// Discharge drains the BBU at power p for dt, supplying the rack during an
// input-power loss. It returns the energy actually delivered, which falls
// short of p·dt only if the battery empties (the battery can then no longer
// carry the load: a power outage for the IT equipment). Requests above
// MaxDischarge are truncated to MaxDischarge. Discharged energy accrues
// cycle aging when FadePerCycle is set.
//
// A Discharge arriving while Charging deterministically suspends the charge:
// the CC setpoint is cleared (no stuck-CV state survives the interrupt) and
// the state leaves Charging even for a zero-power or zero-duration call, so
// an input-power loss always lands the BBU in Discharging or FullyDischarged
// regardless of where in the CC/CV sequence it struck. SOC never goes
// negative: delivery is truncated at empty.
func (b *BBU) Discharge(p units.Power, dt time.Duration) units.Energy {
	if b.state == Charging {
		// Interrupt the charge before draining: a charger with no input
		// power holds no setpoint.
		b.setpoint = 0
		b.state = Discharging
	}
	if p <= 0 || dt <= 0 {
		return 0
	}
	if p > b.p.MaxDischarge {
		p = b.p.MaxDischarge
	}
	usable := b.usableEnergy()
	want := units.EnergyOver(p, dt)
	have := units.Energy(b.soc * float64(usable))
	got := want
	if got > have {
		got = have
	}
	b.soc -= float64(got) / float64(usable)
	b.cycles += float64(got) / float64(b.p.FullEnergy)
	if b.soc <= 1e-12 {
		b.soc = 0
		b.state = FullyDischarged
	} else {
		b.state = Discharging
	}
	return got
}

// StartCharge begins (or restarts) a CC-CV charge sequence with the given CC
// setpoint, clamped to the hardware range. A fully charged battery stays
// FullyCharged and holds no setpoint.
func (b *BBU) StartCharge(i units.Current) {
	if b.soc >= 1 {
		b.state = FullyCharged
		b.setpoint = 0
		return
	}
	b.setpoint = i.Clamp(b.p.MinChargeI, b.p.MaxChargeI)
	b.state = Charging
}

// SetChargeCurrent overrides the CC setpoint mid-charge (the paper's manual
// override, used by the Dynamo controller). It is a no-op unless Charging.
func (b *BBU) SetChargeCurrent(i units.Current) {
	if b.state != Charging {
		return
	}
	b.setpoint = i.Clamp(b.p.MinChargeI, b.p.MaxChargeI)
}

// Current returns the instantaneous charging current: the CC setpoint while
// current-limited, or the decaying CV current (Vcv − OCV)/R once
// voltage-limited. Zero when not charging.
func (b *BBU) Current() units.Current {
	if b.state != Charging {
		return 0
	}
	cv := units.Current((float64(b.p.VCV) - float64(b.p.OCV(units.Fraction(b.soc)))) / b.p.InternalR)
	if cv < b.setpoint {
		return cv
	}
	return b.setpoint
}

// Voltage returns the instantaneous terminal voltage while charging (OCV +
// I·R, capped at Vcv), or the OCV otherwise.
func (b *BBU) Voltage() units.Voltage {
	ocv := b.p.OCV(units.Fraction(b.soc))
	if b.state != Charging {
		return ocv
	}
	v := ocv + units.Voltage(float64(b.Current())*b.p.InternalR)
	if v > b.p.VCV {
		v = b.p.VCV
	}
	return v
}

// ChargePower returns the instantaneous battery-side charging power V·I.
func (b *BBU) ChargePower() units.Power {
	if b.state != Charging {
		return 0
	}
	return units.PowerOf(b.Voltage(), b.Current())
}

// StepCharge advances an in-progress charge by dt using the closed-form CC
// and CV solutions (no numerical drift), returning the battery-side energy
// absorbed during the step. It is a no-op unless Charging.
func (b *BBU) StepCharge(dt time.Duration) units.Energy {
	if b.state != Charging || dt <= 0 {
		return 0
	}
	var absorbed units.Energy
	remaining := dt.Seconds()
	q := float64(b.p.Capacity)
	k := float64(b.p.OCVSpan)
	r := b.p.InternalR
	vcv := float64(b.p.VCV)
	tau := r * q / k
	cutU := float64(b.p.CutoffI) * r
	for remaining > 1e-12 {
		i := float64(b.setpoint)
		socCV := float64(b.p.SOCAtCV(b.setpoint))
		if b.soc < socCV {
			// CC phase: soc rises linearly at I/Q; OCV rises linearly, so the
			// trapezoid integral of (OCV + I·R)·I is exact.
			tToCV := (socCV - b.soc) * q / i
			step := math.Min(remaining, tToCV)
			dsoc := i * step / q
			vMid := float64(b.p.OCV(units.Fraction(b.soc+dsoc/2))) + i*r
			absorbed += units.Energy(vMid * i * step)
			b.soc += dsoc
			remaining -= step
			continue
		}
		// CV phase: u = Vcv − OCV decays exponentially with τ; terminate at
		// the cutoff, which by construction is soc = 1.
		u0 := vcv - float64(b.p.OCV(units.Fraction(b.soc)))
		if u0 <= cutU+1e-12 {
			b.soc = 1
			b.state = FullyCharged
			b.setpoint = 0
			return absorbed
		}
		tToDone := tau * math.Log(u0/cutU)
		step := math.Min(remaining, tToDone)
		u1 := u0 * math.Exp(-step/tau)
		dsoc := (u0 - u1) / k
		// ∫ Vcv·I dt with I = u/R: charge moved is Q·Δsoc.
		absorbed += units.Energy(vcv * q * dsoc)
		b.soc += dsoc
		remaining -= step
		if step >= tToDone-1e-12 {
			b.soc = 1
			b.state = FullyCharged
			b.setpoint = 0
			return absorbed
		}
	}
	return absorbed
}

// ChargeTime returns the closed-form duration to charge from the given depth
// of discharge to full at CC setpoint i (clamped to hardware bounds):
// the CC time to reach soc_cv(i) plus the CV tail τ·ln(I_start/Imin).
// A battery already at the cutoff charges in zero time.
func (p Params) ChargeTime(i units.Current, dod units.Fraction) time.Duration {
	i = i.Clamp(p.MinChargeI, p.MaxChargeI)
	soc := 1 - float64(dod.Clamp01())
	q := float64(p.Capacity)
	k := float64(p.OCVSpan)
	r := p.InternalR
	tau := r * q / k
	socCV := float64(p.SOCAtCV(i))
	var sec float64
	if soc < socCV {
		sec += (socCV - soc) * q / float64(i)
		soc = socCV
	}
	// CV start current: voltage-limited, but never above the setpoint.
	iStart := math.Min(float64(i), (float64(p.VCV)-float64(p.OCV(units.Fraction(soc))))/r)
	if iStart > float64(p.CutoffI) {
		sec += tau * math.Log(iStart/float64(p.CutoffI))
	}
	return time.Duration(sec * float64(time.Second))
}

// RequiredCurrent returns the minimum CC setpoint within hardware bounds
// that charges a battery from dod to full within deadline, and whether such
// a setpoint exists. Charge time is monotone nonincreasing in current, so a
// bisection over [MinChargeI, MaxChargeI] suffices; the result is rounded up
// to resolution (pass 0 for a 0.01 A default).
func (p Params) RequiredCurrent(dod units.Fraction, deadline time.Duration, resolution units.Current) (units.Current, bool) {
	if resolution <= 0 {
		resolution = 0.01
	}
	if p.ChargeTime(p.MaxChargeI, dod) > deadline {
		return p.MaxChargeI, false
	}
	if p.ChargeTime(p.MinChargeI, dod) <= deadline {
		return p.MinChargeI, true
	}
	lo, hi := p.MinChargeI, p.MaxChargeI // T(lo) > deadline ≥ T(hi)
	for hi-lo > resolution {
		mid := (lo + hi) / 2
		if p.ChargeTime(mid, dod) <= deadline {
			hi = mid
		} else {
			lo = mid
		}
	}
	// Round up to the resolution grid so the returned current still meets
	// the deadline.
	steps := math.Ceil(float64(hi)/float64(resolution) - 1e-9)
	return units.Current(steps) * resolution, true
}

// ProfilePoint is one sample of a charge profile.
type ProfilePoint struct {
	T       time.Duration
	Power   units.Power
	Current units.Current
	Voltage units.Voltage
	SOC     units.Fraction
}

// Profile simulates a charge from dod at CC setpoint i, sampled every step,
// and returns the time series through completion. It is the data behind
// Figs 3 and 4.
func Profile(p Params, i units.Current, dod units.Fraction, step time.Duration) []ProfilePoint {
	b := New(p)
	b.soc = 1 - float64(dod.Clamp01())
	if b.soc >= 1 {
		return []ProfilePoint{{T: 0, SOC: 1}}
	}
	b.state = Discharging
	b.StartCharge(i)
	pts := []ProfilePoint{{T: 0, Power: b.ChargePower(), Current: b.Current(), Voltage: b.Voltage(), SOC: b.SOC()}}
	for t := step; b.State() == Charging; t += step {
		b.StepCharge(step)
		pts = append(pts, ProfilePoint{T: t, Power: b.ChargePower(), Current: b.Current(), Voltage: b.Voltage(), SOC: b.SOC()})
	}
	return pts
}
