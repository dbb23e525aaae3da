package scenario

import (
	"fmt"
	"time"

	"coordcharge/internal/charger"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/rack"
	"coordcharge/internal/report"
	"coordcharge/internal/units"
)

// ServersPerRack is the nominal web-tier machine count per rack used to
// count Case II's capped servers.
const ServersPerRack = 30

// CaseIIResult summarises the Case II replay (§II-D): a tripped utility feed
// sends every MSB of a data-center building to its diesel generator; the
// battery recharge after the open transition lifts each MSB by more than
// 20 %, and Dynamo must cap thousands of servers.
type CaseIIResult struct {
	Table *report.Table
	// TotalCapped is the building-wide peak server power capping.
	TotalCapped units.Power
	// ServersCapped counts the servers Dynamo had to cap: ServersPerRack
	// machines per rack share each MSB's load, and each capped server gives
	// up at most half its draw (see cappedServers). The paper reports more
	// than ten thousand across the building.
	ServersCapped int
	// MaxIncrease is the largest per-MSB relative power increase.
	MaxIncrease units.Fraction
}

// RunCaseII replays the Case II event across numMSB 316-rack MSBs (a
// building; the paper's buildings carry on the order of a dozen MSBs worth
// of IT load) with the original charger — the hardware deployed when the
// event occurred. Each MSB experiences a short open transition as it
// switches to its generator, then the simultaneous recharge.
func RunCaseII(numMSB int, seed int64) (*CaseIIResult, error) {
	if numMSB <= 0 {
		numMSB = 12
	}
	res := &CaseIIResult{
		Table: report.NewTable("Case II: building-wide open transition to diesel generators (original charger)",
			"MSB", "Load before", "Peak would-be draw", "Increase", "Max capping"),
	}
	p1, p2, p3 := ProductionDistribution()
	for i := 0; i < numMSB; i++ {
		run, err := RunCoordinated(CoordSpec{
			NumP1: p1, NumP2: p2, NumP3: p3,
			Seed:        seed + int64(i), // each MSB hosts different services
			MSBLimit:    2.5 * units.Megawatt,
			Mode:        dynamo.ModeNone,
			LocalPolicy: charger.Original{},
			AvgDOD:      0.1, // a ~15 s generator transfer at typical load
			// The transfer happens when it happens, not at the trace peak;
			// keep the default peak injection as the conservative case.
			MaxChargeDuration: 90 * time.Minute,
		})
		if err != nil {
			return nil, err
		}
		// Load just before the transition: the last pre-transition sample.
		var before units.Power
		for _, s := range run.Samples {
			if s.T < 0 {
				before = s.Total
			}
		}
		var peak units.Power
		for _, s := range run.Samples {
			if s.T > 0 && s.Total+s.Capped > peak {
				peak = s.Total + s.Capped
			}
		}
		inc := units.Fraction(0)
		if before > 0 {
			inc = units.Fraction(float64(peak-before) / float64(before))
		}
		if inc > res.MaxIncrease {
			res.MaxIncrease = inc
		}
		res.TotalCapped += run.Metrics.MaxCapping
		// Per-server accounting: ServersPerRack machines per rack share
		// the MSB's load before the transition.
		servers := (run.Racks[rack.P1] + run.Racks[rack.P2] + run.Racks[rack.P3]) * ServersPerRack
		res.ServersCapped += cappedServers(servers, before, run.Metrics.MaxCapping)
		res.Table.Add(
			fmt.Sprintf("msb%02d", i),
			before.String(),
			peak.String(),
			fmt.Sprintf("+%.0f%%", float64(inc)*100),
			run.Metrics.MaxCapping.String(),
		)
	}
	res.Table.Add("TOTAL", "", "", "", res.TotalCapped.String())
	return res, nil
}

// cappedServers counts the servers Dynamo caps to take capping out of an
// MSB of n servers that share load equally (so which priority goes first
// does not change the count): in turn, each server is cut by at most half
// its draw until the cuts cover the capping. A server counts when its cut
// lowers its draw, so a cut below half an ulp of the draw caps nobody. The
// float operations and their order are those of shedding through a
// per-server ledger with a 50 % floor.
func cappedServers(n int, load, capping units.Power) int {
	if n <= 0 || capping <= 0 {
		return 0
	}
	perServer := units.Power(float64(load) / float64(n))
	reducible := perServer - perServer*0.5
	capped := 0
	var shed units.Power
	for i := 0; i < n && shed < capping; i++ {
		cut := min(reducible, capping-shed)
		if perServer-cut < perServer {
			capped++
		}
		shed += cut
	}
	return capped
}
