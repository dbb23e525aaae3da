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

// distGolden pins one distributed-plane run: a hash of its Summary plus the
// flight recorder's digest and event total.
type distGolden struct {
	Summary string `json:"summary_sha256"`
	Digest  string `json:"flight_digest"`
	Events  uint64 `json:"flight_events"`
}

// distGoldenArms are the message-passing plane's 30-rack arms: clean, default
// bus faults with staleness and retries armed, a recharge storm under
// admission and guards, a 35% grid cap-shrink, and 20 s command settling.
func distGoldenArms(seed int64) ([]distArm, error) {
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

	return []distArm{
		{"clean", base}, {"faults", faulty}, {"storm", stormy},
		{"gridshrink", shrink}, {"settle", settle},
	}, nil
}

type distArm struct {
	name string
	spec CoordSpec
}

func runDistGolden(spec CoordSpec) (distGolden, error) {
	sink := obs.NewSink(obs.DefaultFlightCap)
	spec.Obs = sink
	res, err := RunCoordinated(spec)
	if err != nil {
		return distGolden{}, err
	}
	sum := sha256.Sum256([]byte(res.Summary()))
	return distGolden{
		Summary: hex.EncodeToString(sum[:]),
		Digest:  sink.Flight.Digest(),
		Events:  sink.Flight.Total(),
	}, nil
}

// TestDistributedPlaneGolden pins the message-passing plane's outputs across
// commits. The determinism tests compare a run with itself; this compares it
// with the committed record, so an engine, bus or async-controller change
// that moves an event, a fault draw or a counter fails here. Regenerate with
// -update-dist-golden only when a change is meant to alter behaviour.
func TestDistributedPlaneGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("ten full charging-period simulations")
	}
	want := map[string]distGolden{}
	if !*updateDistGolden {
		raw, err := os.ReadFile(distGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]distGolden{}
	for _, seed := range []int64{1, 2} {
		arms, err := distGoldenArms(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, arm := range arms {
			key := fmt.Sprintf("%s/seed%d", arm.name, seed)
			g, err := runDistGolden(arm.spec)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got[key] = g
			if *updateDistGolden {
				continue
			}
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no golden recorded", key)
			} else if g != w {
				t.Errorf("%s: got %+v, golden %+v", key, g, w)
			}
		}
	}
	if !*updateDistGolden {
		if len(want) != len(got) {
			t.Errorf("golden file has %d arms, test ran %d", len(want), len(got))
		}
		return
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(distGoldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(distGoldenPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
