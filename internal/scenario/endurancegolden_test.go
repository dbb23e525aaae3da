package scenario

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"coordcharge/internal/dynamo"
	"coordcharge/internal/units"
)

var updateEnduranceGolden = flag.Bool("update-endurance-golden", false,
	"rewrite testdata/endurancegolden.json from the current endurance simulator")

const enduranceGoldenPath = "testdata/endurancegolden.json"

// enduranceGolden is every EnduranceResult field except the spec, in a form
// JSON round-trips exactly (Go encodes float64 in its shortest exact form),
// so the committed file pins results bit for bit and its diff shows what a
// behaviour change moved.
type enduranceGolden struct {
	Events           int                `json:"events"`
	Outages          int                `json:"outages"`
	AOR              map[string]float64 `json:"aor"`
	LossHoursPerYear map[string]float64 `json:"loss_hours_per_year"`
	Metrics          dynamo.Metrics     `json:"metrics"`
	UnservedEnergy   float64            `json:"unserved_energy_j"`
	LoadDropEvents   int                `json:"load_drop_events"`
	Tripped          []string           `json:"tripped"`
	Interrupted      bool               `json:"interrupted"`
}

func enduranceGoldenOf(res *EnduranceResult) enduranceGolden {
	g := enduranceGolden{
		Events:           res.Events,
		Outages:          res.Outages,
		AOR:              map[string]float64{},
		LossHoursPerYear: map[string]float64{},
		Metrics:          res.Metrics,
		UnservedEnergy:   float64(res.UnservedEnergy),
		LoadDropEvents:   res.LoadDropEvents,
		Tripped:          append([]string{}, res.Tripped...),
		Interrupted:      res.Interrupted,
	}
	for p, a := range res.AOR {
		g.AOR[p.String()] = float64(a)
	}
	for p, l := range res.LossHoursPerYear {
		g.LossHoursPerYear[p.String()] = l
	}
	return g
}

// enduranceGoldenSpecs are ten-year runs, one per coordination path: no
// coordination, priority-aware with ample and with tight power, the global
// baseline under a tight limit (the spec with an outage), and postponement.
func enduranceGoldenSpecs() map[string]EnduranceSpec {
	tight := 205 * units.Kilowatt
	return map[string]EnduranceSpec{
		"none/seed1":           {Years: 10, Seed: 1, Mode: dynamo.ModeNone},
		"priority/seed2":       {Years: 10, Seed: 2, Mode: dynamo.ModePriorityAware},
		"priority-205kw/seed3": {Years: 10, Seed: 3, Mode: dynamo.ModePriorityAware, MSBLimit: tight},
		"global-205kw/seed4":   {Years: 10, Seed: 4, Mode: dynamo.ModeGlobal, MSBLimit: tight},
		"postpone-200kw/seed3": {Years: 10, Seed: 3, Mode: dynamo.ModePostpone, MSBLimit: 200 * units.Kilowatt},
	}
}

// TestEnduranceGolden pins every endurance result field across commits: a
// change to event replay, redundancy accounting or the control plane that
// moves a count or a float fails here. Regenerate with
// -update-endurance-golden only when a change is meant to alter behaviour.
func TestEnduranceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("five ten-year endurance runs")
	}
	want := map[string]enduranceGolden{}
	if !*updateEnduranceGolden {
		raw, err := os.ReadFile(enduranceGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]enduranceGolden{}
	for name, spec := range enduranceGoldenSpecs() {
		res, err := RunEndurance(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.AOR) != 3 {
			t.Fatalf("%s: AOR covers %d priorities, want 3", name, len(res.AOR))
		}
		got[name] = enduranceGoldenOf(res)
	}
	if *updateEnduranceGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(enduranceGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden recorded", name)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n  got    %+v\n  golden %+v", name, g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d specs, test ran %d", len(want), len(got))
	}
}
