// Package reliability implements the paper's §IV-A Monte Carlo analysis:
// how battery charging time affects the availability of redundancy (AOR) of
// rack power — the fraction of time the rack battery is fully charged.
//
// Every component in the critical power path (Fig 8(b)) is an independent
// block in a series system, failing per Table I. Utility failures and
// maintenance cause two open transitions each (one when the failure or
// maintenance begins, one when service is restored); power outages cause an
// extended input loss until repair. After every input-power loss the battery
// charges for the swept charging time, during which redundancy is
// unavailable. Failures and repairs are exponentially distributed except
// annual maintenance, which is normally distributed (μ = 1 year, σ = 41
// days), matching the paper's modelling assumptions.
//
// Timelines span up to 10⁵ simulated years, which overflows time.Duration,
// so the internal timeline unit is float64 hours.
package reliability

import (
	"fmt"
	"sort"
	"time"

	"coordcharge/internal/par"
	"coordcharge/internal/rng"
	"coordcharge/internal/units"
)

// FailureType categorises a Table I row.
type FailureType int

// Failure types from Table I.
const (
	UtilityFailure FailureType = iota
	CorrectiveMaintenance
	AnnualMaintenance
	PowerOutage
)

// String names the failure type.
func (f FailureType) String() string {
	switch f {
	case UtilityFailure:
		return "utility failure"
	case CorrectiveMaintenance:
		return "corrective maintenance"
	case AnnualMaintenance:
		return "annual maintenance"
	case PowerOutage:
		return "power outage"
	default:
		return fmt.Sprintf("FailureType(%d)", int(f))
	}
}

// Component is one row of Table I: a component/failure-type pair with its
// mean time between failures and mean time to repair, both in hours.
type Component struct {
	Name      string
	Type      FailureType
	MTBFHours float64
	MTTRHours float64
}

// TableI returns the paper's Table I: component failure and repair times.
func TableI() []Component {
	return []Component{
		{"Utility", UtilityFailure, 6.39e3, 0.6},
		{"Sub/MSG", CorrectiveMaintenance, 5.87e4, 8.0},
		{"MSB", CorrectiveMaintenance, 4.12e4, 20.2},
		{"SB", CorrectiveMaintenance, 1.51e5, 8.7},
		{"RPP", CorrectiveMaintenance, 6.31e5, 5.5},
		{"MSB", AnnualMaintenance, 8.76e3, 12.8},
		{"SB", AnnualMaintenance, 8.76e3, 7.4},
		{"RPP", AnnualMaintenance, 8.76e3, 9.9},
		{"MSB", PowerOutage, 2.93e5, 6.4},
		{"SB", PowerOutage, 5.20e5, 4.6},
		{"RPP", PowerOutage, 6.25e6, 10.9},
	}
}

// Disruption is one interval of rack input-power loss, in hours since the
// simulation start. For open transitions the interval is seconds long; for
// power outages it spans the repair.
type Disruption struct {
	Start, End float64 // hours
}

// Simulator draws failure timelines for a rack's power path.
type Simulator struct {
	components []Component
	// OpenTransitionMeanSec is the mean open-transition length (exponential;
	// paper: 45 s).
	OpenTransitionMeanSec float64
	// AnnualSigmaHours is the annual-maintenance interval spread (normal;
	// paper: 41 days).
	AnnualSigmaHours float64
	src              *rng.Source
}

// NewSimulator builds a simulator over the given components (use TableI()).
func NewSimulator(components []Component, seed int64) (*Simulator, error) {
	if len(components) == 0 {
		return nil, fmt.Errorf("reliability: no components")
	}
	for _, c := range components {
		if c.MTBFHours <= 0 || c.MTTRHours <= 0 {
			return nil, fmt.Errorf("reliability: component %s has non-positive MTBF/MTTR", c.Name)
		}
	}
	return &Simulator{
		components:            components,
		OpenTransitionMeanSec: 45,
		AnnualSigmaHours:      41 * 24,
		src:                   rng.New(seed),
	}, nil
}

const hoursPerYear = 8760

// Event is one failure/maintenance/outage occurrence of a component, with
// enough detail to replay it against a simulated power hierarchy: when it
// begins, how long until service is restored, and the lengths of the open
// transitions it causes (zero for power outages, which are a continuous
// input loss instead).
type Event struct {
	Component Component
	// StartHours is the event begin time.
	StartHours float64
	// RepairHours is the time until restoration: the gap between the two
	// open transitions for failures/maintenance, or the outage length.
	RepairHours float64
	// OT1Hours and OT2Hours are the open-transition lengths at the start
	// and end of the event (zero for power outages).
	OT1Hours, OT2Hours float64
}

// IsOutage reports whether the event is an extended input loss rather than
// a pair of open transitions.
func (e Event) IsOutage() bool { return e.Component.Type == PowerOutage }

// componentEvents draws one component's failure events.
func (s *Simulator) componentEvents(c Component, src *rng.Source, horizonHours float64) []Event {
	var out []Event
	t := 0.0
	for {
		switch c.Type {
		case AnnualMaintenance:
			iv := src.Normal(c.MTBFHours, s.AnnualSigmaHours)
			if iv < 0 {
				iv = 0
			}
			t += iv
		default:
			t += src.Exp(c.MTBFHours)
		}
		if t >= horizonHours {
			break
		}
		ev := Event{Component: c, StartHours: t, RepairHours: src.Exp(c.MTTRHours)}
		if c.Type != PowerOutage {
			ev.OT1Hours = src.Exp(s.OpenTransitionMeanSec) / 3600
			ev.OT2Hours = src.Exp(s.OpenTransitionMeanSec) / 3600
		}
		out = append(out, ev)
	}
	return out
}

// splitSources derives one independent source per component, in component
// order. The serial split loop fixes each component's stream as a pure
// function of the parent seed, so the draws themselves can then run on any
// number of workers without changing a single sample.
func (s *Simulator) splitSources() []*rng.Source {
	srcs := make([]*rng.Source, len(s.components))
	for i := range s.components {
		srcs[i] = s.src.Split()
	}
	return srcs
}

// Events generates the merged, start-sorted failure-event stream over the
// horizon. The endurance simulator replays these against a real power
// hierarchy; Disruptions reduces the same stream to input-loss intervals for
// the analytic AOR model. Component streams are drawn concurrently and
// merged in component order before the sort, so the output is byte-identical
// to a serial draw.
func (s *Simulator) Events(horizonYears float64) []Event {
	horizon := horizonYears * hoursPerYear
	srcs := s.splitSources()
	streams := par.Map(len(s.components), 0, func(i int) []Event {
		return s.componentEvents(s.components[i], srcs[i], horizon)
	})
	var out []Event
	for _, evs := range streams {
		out = append(out, evs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartHours < out[j].StartHours })
	return out
}

// componentDisruptions draws one component's input-power-loss intervals.
func (s *Simulator) componentDisruptions(c Component, src *rng.Source, horizonHours float64) []Disruption {
	events := s.componentEvents(c, src, horizonHours)
	var out []Disruption
	for _, ev := range events {
		if ev.IsOutage() {
			out = append(out, Disruption{ev.StartHours, ev.StartHours + ev.RepairHours})
			continue
		}
		out = append(out, Disruption{ev.StartHours, ev.StartHours + ev.OT1Hours})
		restore := ev.StartHours + ev.RepairHours
		out = append(out, Disruption{restore, restore + ev.OT2Hours})
	}
	return out
}

// Disruptions generates the merged, start-sorted stream of input-power-loss
// intervals over the given horizon. Like Events, the per-component draws run
// concurrently after a serial source split, preserving byte-identical output.
func (s *Simulator) Disruptions(horizonYears float64) []Disruption {
	horizon := horizonYears * hoursPerYear
	srcs := s.splitSources()
	streams := par.Map(len(s.components), 0, func(i int) []Disruption {
		return s.componentDisruptions(s.components[i], srcs[i], horizon)
	})
	var out []Disruption
	for _, ds := range streams {
		out = append(out, ds...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// ComponentLoss attributes loss of redundancy to one Table I row.
type ComponentLoss struct {
	Component Component
	// EventsPerYear is the component's failure rate.
	EventsPerYear float64
	// LossHoursPerYear is the redundancy-unavailable time this component
	// alone would cause at the given charge time (cross-component overlaps
	// make the sum slightly exceed the joint loss).
	LossHoursPerYear float64
}

// Breakdown attributes loss of redundancy to each component class at the
// given battery charging time — the "where do my 5 hours a year go?"
// analysis behind Table II.
func (s *Simulator) Breakdown(horizonYears float64, chargeTime time.Duration) []ComponentLoss {
	horizon := horizonYears * hoursPerYear
	srcs := s.splitSources()
	return par.Map(len(s.components), 0, func(i int) ComponentLoss {
		c := s.components[i]
		ds := s.componentDisruptions(c, srcs[i], horizon)
		aor := AOR(ds, chargeTime, horizonYears)
		events := float64(len(ds))
		if c.Type != PowerOutage {
			events /= 2 // two disruptions per failure event
		}
		return ComponentLoss{
			Component:        c,
			EventsPerYear:    events / horizonYears,
			LossHoursPerYear: (1 - float64(aor)) * hoursPerYear,
		}
	})
}

// AOR computes the availability of redundancy over the horizon for a given
// battery charging time: one minus the fraction of time covered by the union
// of [disruption start, disruption end + charge time] intervals. Each
// disruption leaves the battery needing a full recharge; a disruption
// arriving mid-recharge restarts the charge (the union extension models
// exactly that).
func AOR(ds []Disruption, chargeTime time.Duration, horizonYears float64) units.Fraction {
	horizon := horizonYears * hoursPerYear
	ct := chargeTime.Hours()
	unavailable := 0.0
	curStart, curEnd := 0.0, -1.0
	for _, d := range ds {
		if d.Start >= horizon {
			break
		}
		end := d.End + ct
		if d.Start > curEnd {
			if curEnd > curStart {
				unavailable += minf(curEnd, horizon) - curStart
			}
			curStart, curEnd = d.Start, end
			continue
		}
		if end > curEnd {
			curEnd = end
		}
	}
	if curEnd > curStart {
		unavailable += minf(curEnd, horizon) - curStart
	}
	return units.Fraction(1 - unavailable/horizon)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// SweepPoint is one sample of the Fig 9a curve.
type SweepPoint struct {
	ChargeTime time.Duration
	AOR        units.Fraction
	// LossHoursPerYear is the expected loss-of-redundancy time (Table II's
	// middle column).
	LossHoursPerYear float64
}

// Sweep runs the Monte Carlo once and evaluates AOR at each charging time
// (Fig 9a). The disruption stream is shared across charge times, which both
// matches the paper's methodology (one failure model, varying charger) and
// removes sampling noise from the comparison.
func (s *Simulator) Sweep(horizonYears float64, chargeTimes []time.Duration) []SweepPoint {
	ds := s.Disruptions(horizonYears)
	out := make([]SweepPoint, 0, len(chargeTimes))
	for _, ct := range chargeTimes {
		aor := AOR(ds, ct, horizonYears)
		out = append(out, SweepPoint{
			ChargeTime:       ct,
			AOR:              aor,
			LossHoursPerYear: (1 - float64(aor)) * hoursPerYear,
		})
	}
	return out
}

// SLARow is one row of Table II: a priority's AOR target and the charging
// time that achieves it.
type SLARow struct {
	Priority         string
	AOR              units.Fraction
	LossHoursPerYear float64
	ChargeTimeSLA    time.Duration
}

// TableII evaluates the paper's Table II: the AOR each priority's
// charging-time SLA achieves under the Table I failure model.
func (s *Simulator) TableII(horizonYears float64) []SLARow {
	slas := []struct {
		name string
		ct   time.Duration
	}{
		{"P1 (high)", 30 * time.Minute},
		{"P2 (normal)", 60 * time.Minute},
		{"P3 (low)", 90 * time.Minute},
	}
	ds := s.Disruptions(horizonYears)
	out := make([]SLARow, 0, len(slas))
	for _, row := range slas {
		aor := AOR(ds, row.ct, horizonYears)
		out = append(out, SLARow{
			Priority:         row.name,
			AOR:              aor,
			LossHoursPerYear: (1 - float64(aor)) * hoursPerYear,
			ChargeTimeSLA:    row.ct,
		})
	}
	return out
}
