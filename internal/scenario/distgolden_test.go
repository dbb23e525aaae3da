package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"coordcharge/internal/dynamo"
	"coordcharge/internal/faults"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/storm"
	"coordcharge/internal/units"
)

var updateDistGolden = flag.Bool("update-dist-golden", false,
	"rewrite testdata/distgolden.json from the current distributed plane")

const distGoldenPath = "testdata/distgolden.json"

// golden pins one run: a hash of its Summary plus the flight recorder's
// digest and event total.
type golden struct {
	Summary string `json:"summary_sha256"`
	Digest  string `json:"flight_digest"`
	Events  uint64 `json:"flight_events"`
}

// goldenArm is one pinned experiment. target, when set, reads the counter of
// the control path the arm exists to exercise; the test fails if it is zero,
// so an arm cannot silently stop covering its path.
type goldenArm struct {
	name   string
	spec   CoordSpec
	target func(res *CoordResult, flight []obs.Event) int
}

// goldenFlightCap retains every event of a 30-rack golden run, so targets can
// count journal entries.
const goldenFlightCap = 1 << 16

// distGoldenArms are the message-passing plane's 30-rack arms: clean, default
// bus faults with staleness and retries armed, a recharge storm under
// admission and guards, a 35% grid cap-shrink, 20 s command settling, and the
// global and postpone modes at a limit that binds.
func distGoldenArms(seed int64) ([]goldenArm, error) {
	base := CoordSpec{
		NumP1: 10, NumP2: 10, NumP3: 10, Seed: seed,
		MSBLimit: 225 * units.Kilowatt, Mode: dynamo.ModePriorityAware,
		AvgDOD: 0.5, Distributed: true, Step: 3 * time.Second,
	}
	faulty := base
	faulty.Faults = faults.Default()
	faulty.Faults.Seed = seed
	faulty.StaleAfter = 10 * time.Second
	faulty.Retry = dynamo.DefaultRetryPolicy()

	stormy := CoordSpec{
		NumP1: 10, NumP2: 10, NumP3: 10, Seed: seed,
		MSBLimit:          205 * units.Kilowatt,
		Mode:              dynamo.ModePriorityAware,
		OutageLen:         90 * time.Second,
		TripRule:          &power.TripRule{Fraction: 0.05, Sustain: 30 * time.Second},
		MaxChargeDuration: 6 * time.Hour,
		Distributed:       true,
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
	shrink.Distributed = true

	settle := base
	settle.CommandLatency = 20 * time.Second

	global := base
	global.Mode = dynamo.ModeGlobal
	global.MSBLimit = 205 * units.Kilowatt
	postpone := base
	postpone.Mode = dynamo.ModePostpone
	postpone.MSBLimit = 205 * units.Kilowatt

	return []goldenArm{
		{name: "clean", spec: base}, {name: "faults", spec: faulty}, {name: "storm", spec: stormy},
		{name: "gridshrink", spec: shrink}, {name: "settle", spec: settle},
		{name: "global", spec: global, target: planCount},
		{name: "postpone", spec: postpone, target: planCount},
	}, nil
}

func planCount(res *CoordResult, _ []obs.Event) int { return res.Metrics.PlansComputed }

func runGolden(spec CoordSpec) (golden, *CoordResult, []obs.Event, error) {
	sink := obs.NewSink(goldenFlightCap)
	spec.Obs = sink
	res, err := RunCoordinated(spec)
	if err != nil {
		return golden{}, nil, nil, err
	}
	if sink.Flight.Dropped() > 0 {
		return golden{}, nil, nil, fmt.Errorf("flight ring of %d dropped %d events", goldenFlightCap, sink.Flight.Dropped())
	}
	sum := sha256.Sum256([]byte(res.Summary()))
	return golden{
		Summary: hex.EncodeToString(sum[:]),
		Digest:  sink.Flight.Digest(),
		Events:  sink.Flight.Total(),
	}, res, sink.Flight.Last(0), nil
}

// checkGoldenFile runs every arm at seeds 1 and 2 and compares each run with
// the record at path, or rewrites the record when update is set.
func checkGoldenFile(t *testing.T, path string, update bool, arms func(seed int64) ([]goldenArm, error)) {
	t.Helper()
	want := map[string]golden{}
	if !update {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]golden{}
	for _, seed := range []int64{1, 2} {
		set, err := arms(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, arm := range set {
			key := fmt.Sprintf("%s/seed%d", arm.name, seed)
			g, res, flight, err := runGolden(arm.spec)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if arm.target != nil && arm.target(res, flight) == 0 {
				t.Errorf("%s: the path this arm targets never ran", key)
			}
			got[key] = g
			if update {
				continue
			}
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no golden recorded", key)
			} else if g != w {
				t.Errorf("%s: got %+v, golden %+v", key, g, w)
			}
		}
	}
	if !update {
		if len(want) != len(got) {
			t.Errorf("golden file has %d arms, test ran %d", len(want), len(got))
		}
		return
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDistributedPlaneGolden pins the message-passing plane's outputs across
// commits. The determinism tests compare a run with itself; this compares it
// with the committed record, so an engine, bus or async-controller change
// that moves an event, a fault draw or a counter fails here. Regenerate with
// -update-dist-golden only when a change is meant to alter behaviour.
func TestDistributedPlaneGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fourteen full charging-period simulations")
	}
	checkGoldenFile(t, distGoldenPath, *updateDistGolden, distGoldenArms)
}
