// Package config reads experiment files: JSON envelopes that version a set
// of experiments so they can be replayed without recompiling. A file holds
// any combination of three sections. "coordinated" is an svc.RunRequest and
// "advisor" an svc.AdvisorRequest, with exactly the keys the HTTP API takes
// (see internal/svc); "endurance" is the Endurance section below. Read
// rejects unknown keys and validates every section it finds, so a typo or
// an out-of-range value fails before anything runs. A coordinated section's
// "trace" is a CSV path (tracegen format), which coordsim -config resolves.
//
// Example file:
//
//	{
//	  "coordinated": {
//	    "p1": 89, "p2": 142, "p3": 85,
//	    "mode": "priority-aware",
//	    "policy": "variable",
//	    "limit_mw": 2.3,
//	    "avg_dod": 0.5,
//	    "latency_s": 20,
//	    "seed": 1
//	  }
//	}
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"coordcharge/internal/charger"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/scenario"
	"coordcharge/internal/svc"
	"coordcharge/internal/units"
)

// File is a complete experiment specification: any combination of sections.
type File struct {
	Coordinated *svc.RunRequest     `json:"coordinated,omitempty"`
	Endurance   *Endurance          `json:"endurance,omitempty"`
	Advisor     *svc.AdvisorRequest `json:"advisor,omitempty"`
}

// Endurance is the JSON shape of a scenario.EnduranceSpec; coordsim
// -endurance lowers its flags through it too. Zero fields take the
// scenario defaults.
type Endurance struct {
	Years   float64 `json:"years"`
	P1      int     `json:"p1,omitempty"`
	P2      int     `json:"p2,omitempty"`
	P3      int     `json:"p3,omitempty"`
	Mode    string  `json:"mode"`
	Policy  string  `json:"policy,omitempty"`
	LimitMW float64 `json:"limit_mw,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
}

// Read parses a File from JSON, rejecting unknown fields so that typos in
// experiment files fail loudly, and validates every section.
func Read(r io.Reader) (*File, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if f.Coordinated == nil && f.Endurance == nil && f.Advisor == nil {
		return nil, fmt.Errorf("config: file has no experiment sections")
	}
	if f.Coordinated != nil {
		if err := f.Coordinated.Validate(); err != nil {
			return nil, fmt.Errorf("config: coordinated: %w", err)
		}
	}
	if f.Endurance != nil {
		if _, err := f.Endurance.EnduranceSpec(); err != nil {
			return nil, fmt.Errorf("config: endurance: %w", err)
		}
	}
	if f.Advisor != nil {
		if err := f.Advisor.Validate(); err != nil {
			return nil, fmt.Errorf("config: advisor: %w", err)
		}
	}
	return &f, nil
}

// Load reads a File from disk.
func Load(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer fh.Close()
	return Read(fh)
}

// EnduranceSpec converts the section into a runnable spec.
func (e *Endurance) EnduranceSpec() (scenario.EnduranceSpec, error) {
	mode, err := dynamo.ParseMode(e.Mode)
	if err != nil {
		return scenario.EnduranceSpec{}, err
	}
	var pol charger.Policy // nil takes the scenario default, variable
	if e.Policy != "" {
		if pol, err = charger.ByName(e.Policy); err != nil {
			return scenario.EnduranceSpec{}, err
		}
	}
	return scenario.EnduranceSpec{
		Years: e.Years,
		NumP1: e.P1, NumP2: e.P2, NumP3: e.P3,
		Seed:        e.Seed,
		MSBLimit:    units.Power(e.LimitMW) * units.Megawatt,
		Mode:        mode,
		LocalPolicy: pol,
	}, nil
}
