package scenario

import (
	"flag"
	"testing"
	"time"

	"coordcharge/internal/charger"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/faults"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/storm"
	"coordcharge/internal/units"
)

var updateSyncGolden = flag.Bool("update-sync-golden", false,
	"rewrite testdata/syncgolden.json from the current synchronous plane")

const syncGoldenPath = "testdata/syncgolden.json"

// syncGoldenArms are the synchronous plane's 30-rack arms, one per control
// path: server capping without coordination, the global baseline's uniform
// re-plan, postponement, override retries driven by the tick and by engine
// deadlines, the heartbeat watchdog, a recharge storm under admission and
// guards, and a 35% grid cap-shrink.
func syncGoldenArms(seed int64) ([]goldenArm, error) {
	base := CoordSpec{
		NumP1: 10, NumP2: 10, NumP3: 10, Seed: seed,
		MSBLimit: 205 * units.Kilowatt, Mode: dynamo.ModePriorityAware,
		AvgDOD: 0.5, Step: 3 * time.Second,
	}
	none := base
	none.Mode = dynamo.ModeNone
	none.MSBLimit = 215 * units.Kilowatt
	none.LocalPolicy = charger.Original{}
	global := base
	global.Mode = dynamo.ModeGlobal
	postpone := base
	postpone.Mode = dynamo.ModePostpone

	faulty := base
	faulty.Faults = faults.Default()
	faulty.Faults.Seed = seed
	faulty.StaleAfter = 10 * time.Second
	faulty.Retry = dynamo.DefaultRetryPolicy()
	settle := faulty
	settle.CommandLatency = 20 * time.Second
	watchdog := faulty
	watchdog.WatchdogTTL = 30 * time.Second

	stormy := CoordSpec{
		NumP1: 10, NumP2: 10, NumP3: 10, Seed: seed,
		MSBLimit:          205 * units.Kilowatt,
		Mode:              dynamo.ModePriorityAware,
		OutageLen:         90 * time.Second,
		TripRule:          &power.TripRule{Fraction: 0.05, Sustain: 30 * time.Second},
		MaxChargeDuration: 6 * time.Hour,
	}
	sc := storm.Default()
	sc.Reserve = 0.01
	stormy.Storm = &sc
	g := storm.DefaultGuardConfig()
	stormy.Guard = &g

	shrink, err := GridStormSpec(seed, 0.35)
	if err != nil {
		return nil, err
	}

	// Default fault rates rarely leave an override unconfirmed long enough
	// to retransmit, so the retry arms count every tracked override the
	// tracker resolved.
	resolved := func(_ *CoordResult, flight []obs.Event) int {
		return countKind(flight, "confirm") + countKind(flight, "retry") + countKind(flight, "abandon")
	}
	return []goldenArm{
		{name: "none", spec: none, target: func(res *CoordResult, _ []obs.Event) int {
			return int(res.Metrics.MaxCapping)
		}},
		{name: "global", spec: global, target: func(res *CoordResult, _ []obs.Event) int {
			return res.Metrics.ThrottleEvents
		}},
		{name: "postpone", spec: postpone, target: func(_ *CoordResult, flight []obs.Event) int {
			return countKind(flight, "resume")
		}},
		{name: "faults", spec: faulty, target: resolved},
		{name: "settle", spec: settle, target: resolved},
		{name: "watchdog", spec: watchdog, target: func(_ *CoordResult, flight []obs.Event) int {
			return countKind(flight, "failsafe")
		}},
		{name: "storm", spec: stormy, target: func(res *CoordResult, _ []obs.Event) int {
			return res.Storm.Admitted
		}},
		{name: "gridshrink", spec: shrink, target: func(res *CoordResult, _ []obs.Event) int {
			return res.Grid.CapChanges
		}},
	}, nil
}

// countKind counts journal entries of one kind.
func countKind(flight []obs.Event, kind string) int {
	n := 0
	for _, e := range flight {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestSyncPlaneGolden pins the synchronous plane's outputs across commits,
// the twin of TestDistributedPlaneGolden: a controller change that moves a
// journal entry, a fault draw or a float sum fails here. Regenerate with
// -update-sync-golden only when a change is meant to alter behaviour.
func TestSyncPlaneGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sixteen full charging-period simulations")
	}
	checkGoldenFile(t, syncGoldenPath, *updateSyncGolden, syncGoldenArms)
}
