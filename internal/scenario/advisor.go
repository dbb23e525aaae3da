package scenario

import (
	"fmt"
	"time"

	"coordcharge/internal/battery"
	"coordcharge/internal/charger"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/par"
	"coordcharge/internal/rack"
	"coordcharge/internal/report"
	"coordcharge/internal/trace"
	"coordcharge/internal/units"
)

// AdvisorSpec asks the capacity question behind the paper's introduction:
// how much breaker capacity does this rack population actually need? The
// naive answer reserves the worst-case recharge spike on top of peak IT load
// ("expensive and wasteful ... 25 % of the data center power budget ...
// stranded most of the time", §I); the advisor finds the minimum limit at
// which a charging strategy protects the breaker (zero capping) and, with
// more headroom, satisfies every feasible charging-time SLA.
type AdvisorSpec struct {
	// NumP1, NumP2, NumP3 give the rack distribution.
	NumP1, NumP2, NumP3 int
	// AvgDOD is the discharge level to provision for (default 0.7, the
	// paper's high-discharge case).
	AvgDOD units.Fraction
	// Mode and LocalPolicy select the charging strategy being sized.
	Mode        dynamo.Mode
	LocalPolicy charger.Policy
	// Seed drives trace synthesis.
	Seed int64
	// Resolution is the limit-search grid (default 10 kW).
	Resolution units.Power
	// HardStop, when non-nil, is polled before every tick of every probe
	// simulation; returning true aborts the sizing with ErrAborted. The
	// service layer wires a request deadline here as the advisor
	// run-watchdog, so an abandoned or stuck query stops consuming CPU at
	// the next tick boundary instead of bisecting to completion.
	HardStop func() bool
}

func (s *AdvisorSpec) fillDefaults() error {
	if s.NumP1+s.NumP2+s.NumP3 <= 0 {
		return fmt.Errorf("scenario: no racks in advisor spec")
	}
	if s.NumP1 < 0 || s.NumP2 < 0 || s.NumP3 < 0 {
		return fmt.Errorf("scenario: negative rack count")
	}
	if s.AvgDOD == 0 {
		s.AvgDOD = 0.7
	}
	if s.AvgDOD < 0 || s.AvgDOD > 1 {
		return fmt.Errorf("scenario: AvgDOD %v out of (0, 1]", s.AvgDOD)
	}
	if s.LocalPolicy == nil {
		s.LocalPolicy = charger.Variable{}
	}
	if s.Resolution == 0 {
		s.Resolution = 10 * units.Kilowatt
	}
	if s.Resolution <= 0 {
		return fmt.Errorf("scenario: non-positive resolution")
	}
	return nil
}

// Advice is the advisor's sizing result.
type Advice struct {
	Spec AdvisorSpec
	// PeakITLoad is the trace's aggregate peak (the floor of any limit).
	PeakITLoad units.Power
	// StaticLimit is the naive provisioning: peak IT plus the worst-case
	// simultaneous recharge (1.9 kW per rack).
	StaticLimit units.Power
	// MinNoCapLimit is the smallest limit at which the strategy needs no
	// server power capping for the specified discharge event.
	MinNoCapLimit units.Power
	// MinFullSLALimit is the smallest limit at which every rack whose SLA is
	// physically feasible meets it (≥ MinNoCapLimit).
	MinFullSLALimit units.Power
	// FeasibleSLAs counts, per priority, the racks whose SLA is achievable
	// with unconstrained power (high-DOD P1 racks may be hardware-limited).
	FeasibleSLAs map[rack.Priority]int
	// SavedPower is StaticLimit − MinFullSLALimit: capacity the coordinated
	// strategy un-strands.
	SavedPower units.Power
	// SavedCostLowUSD/HighUSD price the saving at the paper's $10–$20 per
	// watt of data-center power infrastructure.
	SavedCostLowUSD, SavedCostHighUSD float64
	// Nameplate is the population's aggregate rack rating; OversubRatio is
	// Nameplate over the advised limit (the §II-B deployment metric — the
	// fleet averaged 1.47).
	Nameplate    units.Power
	OversubRatio float64
}

// advisorProbe runs one experiment at a candidate limit.
func advisorProbe(spec AdvisorSpec, limit units.Power) (*CoordResult, error) {
	cs := CoordSpec{
		NumP1: spec.NumP1, NumP2: spec.NumP2, NumP3: spec.NumP3,
		Seed:        spec.Seed,
		MSBLimit:    limit,
		Mode:        spec.Mode,
		LocalPolicy: spec.LocalPolicy,
		AvgDOD:      spec.AvgDOD,
	}
	if spec.HardStop != nil {
		cs.HardStop = func(time.Duration) bool { return spec.HardStop() }
	}
	return RunCoordinated(cs)
}

// Advise sizes the breaker for the population and strategy. It bisects the
// power limit between the trace's IT peak and the static worst case; both
// "no capping" and "all feasible SLAs met" are monotone in the limit, so
// seven or eight probes per criterion suffice.
func Advise(spec AdvisorSpec) (*Advice, error) {
	if err := spec.fillDefaults(); err != nil {
		return nil, err
	}
	n := spec.NumP1 + spec.NumP2 + spec.NumP3
	scale := float64(n) / 316
	gen, err := trace.NewGenerator(trace.Spec{
		NumRacks:    n,
		Seed:        spec.Seed,
		TroughPower: units.Power(1.9e6 * scale),
		PeakPower:   units.Power(2.1e6 * scale),
	})
	if err != nil {
		return nil, err
	}
	peakT := trace.FirstPeak(gen, 24*time.Hour, time.Minute)
	adv := &Advice{Spec: spec, FeasibleSLAs: map[rack.Priority]int{}}
	adv.PeakITLoad = trace.Aggregate(gen, peakT)
	worstRecharge := units.Power(float64(n) * float64(battery.RackWattsPerAmp) * 5)
	adv.StaticLimit = adv.PeakITLoad + worstRecharge

	grid := func(p units.Power) units.Power {
		steps := (p + spec.Resolution - 1) / spec.Resolution
		return units.Power(int64(steps)) * spec.Resolution
	}

	// The reference run (unconstrained power: the feasible SLA ceiling) and
	// the static-limit probe both bisections open with are independent, so
	// they run as one parallel batch — the shared hi-probe is evaluated once
	// instead of once per criterion.
	probes, err := par.MapErr(2, runnerWorkers(), func(i int) (*CoordResult, error) {
		if i == 0 {
			return advisorProbe(spec, adv.StaticLimit*2)
		}
		return advisorProbe(spec, grid(adv.StaticLimit))
	})
	if err != nil {
		return nil, err
	}
	ref, hiRes := probes[0], probes[1]
	for p, c := range ref.SLAMet {
		adv.FeasibleSLAs[p] = c
	}

	bisect := func(ok func(*CoordResult) bool) (units.Power, error) {
		lo, hi := grid(adv.PeakITLoad), grid(adv.StaticLimit)
		if !ok(hiRes) {
			// Even static provisioning fails the criterion (should not
			// happen); report the static limit.
			return hi, nil
		}
		for hi-lo > spec.Resolution {
			mid := grid(lo + (hi-lo)/2)
			res, err := advisorProbe(spec, mid)
			if err != nil {
				return 0, err
			}
			if ok(res) {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi, nil
	}

	// The two criteria bisect independently (each probe depends only on its
	// own bisection's history), so they run as parallel jobs with a
	// deterministic merge.
	criteria := []func(*CoordResult) bool{
		func(r *CoordResult) bool {
			return r.Metrics.MaxCapping == 0
		},
		func(r *CoordResult) bool {
			if r.Metrics.MaxCapping != 0 {
				return false
			}
			for p, want := range adv.FeasibleSLAs {
				if r.SLAMet[p] < want {
					return false
				}
			}
			return true
		},
	}
	limits, err := par.MapErr(len(criteria), runnerWorkers(), func(i int) (units.Power, error) {
		return bisect(criteria[i])
	})
	if err != nil {
		return nil, err
	}
	adv.MinNoCapLimit, adv.MinFullSLALimit = limits[0], limits[1]
	if adv.MinFullSLALimit < adv.MinNoCapLimit {
		adv.MinFullSLALimit = adv.MinNoCapLimit
	}
	adv.SavedPower = adv.StaticLimit - adv.MinFullSLALimit
	adv.SavedCostLowUSD = float64(adv.SavedPower) * 10
	adv.SavedCostHighUSD = float64(adv.SavedPower) * 20
	adv.Nameplate = units.Power(n) * rack.MaxITLoad
	if adv.MinFullSLALimit > 0 {
		adv.OversubRatio = float64(adv.Nameplate) / float64(adv.MinFullSLALimit)
	}
	return adv, nil
}

// AdviceTable renders the sizing result.
func AdviceTable(a *Advice) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Capacity advice: %d racks, %s mode, %s charger, %.0f%% avg DOD",
			a.Spec.NumP1+a.Spec.NumP2+a.Spec.NumP3, a.Spec.Mode, a.Spec.LocalPolicy.Name(),
			float64(a.Spec.AvgDOD)*100),
		"Quantity", "Value")
	t.Add("peak IT load", a.PeakITLoad.String())
	t.Add("static provisioning (worst-case recharge)", a.StaticLimit.String())
	t.Add("min limit, breaker protected (no capping)", a.MinNoCapLimit.String())
	t.Add("min limit, all feasible SLAs met", a.MinFullSLALimit.String())
	t.Add("capacity un-stranded", a.SavedPower.String())
	t.Add("capital saving at $10-20/W", fmt.Sprintf("$%.1fM - $%.1fM",
		a.SavedCostLowUSD/1e6, a.SavedCostHighUSD/1e6))
	t.Add("oversubscription at advised limit", fmt.Sprintf("%.2fx nameplate (%v)",
		a.OversubRatio, a.Nameplate))
	return t
}
