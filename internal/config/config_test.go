package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coordcharge/internal/dynamo"
	"coordcharge/internal/units"
)

const sample = `{
  "coordinated": {
    "p1": 89, "p2": 142, "p3": 85,
    "mode": "priority-aware",
    "policy": "variable",
    "limit_mw": 2.3,
    "avg_dod": 0.5,
    "seed": 7,
    "latency_s": 20
  },
  "endurance": {
    "years": 30,
    "mode": "global",
    "limit_mw": 0.205,
    "seed": 2
  },
  "advisor": {
    "p1": 10, "p2": 10, "p3": 10,
    "mode": "none",
    "policy": "original",
    "avg_dod": 0.7
  }
}`

func TestReadFullFile(t *testing.T) {
	f, err := Read(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := f.Coordinated.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumP1 != 89 || cs.NumP2 != 142 || cs.NumP3 != 85 {
		t.Errorf("rack counts: %d/%d/%d", cs.NumP1, cs.NumP2, cs.NumP3)
	}
	if cs.Mode != dynamo.ModePriorityAware {
		t.Errorf("mode = %v", cs.Mode)
	}
	if cs.MSBLimit != 2.3*units.Megawatt {
		t.Errorf("limit = %v", cs.MSBLimit)
	}
	if cs.AvgDOD != 0.5 || cs.Seed != 7 {
		t.Errorf("dod/seed = %v/%d", cs.AvgDOD, cs.Seed)
	}
	if cs.CommandLatency != 20*time.Second {
		t.Errorf("latency = %v", cs.CommandLatency)
	}
	if cs.LocalPolicy.Name() != "variable" {
		t.Errorf("policy = %s", cs.LocalPolicy.Name())
	}

	es, err := f.Endurance.EnduranceSpec()
	if err != nil {
		t.Fatal(err)
	}
	if es.Years != 30 || es.Mode != dynamo.ModeGlobal || es.MSBLimit != 205*units.Kilowatt {
		t.Errorf("endurance spec: %+v", es)
	}

	as, err := f.Advisor.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if as.Mode != dynamo.ModeNone || as.LocalPolicy.Name() != "original" || as.AvgDOD != 0.7 {
		t.Errorf("advisor spec: %+v", as)
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"coordinated": {"p1": 1, "typo_field": 2}}`)); err == nil {
		t.Error("unknown field accepted")
	}
	// The keys renamed to match the API are gone, not aliased.
	for _, old := range []string{
		`{"coordinated": {"p1": 1, "avg_dod": 0.5, "charger": "variable"}}`,
		`{"coordinated": {"p1": 1, "avg_dod": 0.5, "latency_sec": 20}}`,
		`{"coordinated": {"p1": 1, "avg_dod": 0.5, "trace_csv": "t.csv"}}`,
		`{"endurance": {"years": 1, "charger": "variable"}}`,
		`{"advisor": {"p1": 1, "charger": "variable"}}`,
	} {
		if _, err := Read(strings.NewReader(old)); err == nil {
			t.Errorf("pre-rename key accepted: %s", old)
		}
	}
}

func TestReadRejectsEmptyFile(t *testing.T) {
	if _, err := Read(strings.NewReader(`{}`)); err == nil {
		t.Error("empty file accepted")
	}
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed file accepted")
	}
}

func TestBadModeOrChargerInSections(t *testing.T) {
	for _, bad := range []string{
		`{"coordinated": {"p1": 1, "avg_dod": 0.5, "mode": "bogus"}}`,
		`{"coordinated": {"p1": 1, "avg_dod": 0.5, "policy": "bogus"}}`,
		`{"coordinated": {"p1": 1, "avg_dod": 0.5, "sample_s": 1e-6}}`,
		`{"advisor": {"p1": 1, "policy": "bogus"}}`,
		`{"endurance": {"years": 1, "mode": "bogus"}}`,
		`{"endurance": {"years": 1, "policy": "bogus"}}`,
	} {
		if _, err := Read(strings.NewReader(bad)); err == nil {
			t.Errorf("Read accepted an invalid section: %s", bad)
		}
	}
}

func TestLoadFromDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "exp.json")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Coordinated == nil || f.Endurance == nil || f.Advisor == nil {
		t.Error("sections missing after disk round trip")
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
