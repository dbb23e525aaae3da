package main

import (
	"path/filepath"
	"strings"
	"testing"

	"coordcharge/internal/ckpt"
)

func mkSet(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

func TestValidateCombination(t *testing.T) {
	// A real checkpoint file for the -resume content rules.
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "run.ckpt")
	if err := ckpt.WriteFileAtomic(ckptPath, map[string]any{"kind": "coordinated", "seed": 7}); err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "torn.ckpt")
	data := []byte("coordcharge-ckpt not json")
	if err := ckpt.WriteAtomic(truncated, data); err != nil {
		t.Fatal(err)
	}
	// A torn latest generation whose rotated previous one is valid: a resume
	// restores the previous one, so its seed is the one to check.
	rotated := filepath.Join(dir, "rotated.ckpt")
	if err := ckpt.WriteFileAtomic(ckpt.PrevPath(rotated), map[string]any{"kind": "coordinated", "seed": 7}); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.WriteAtomic(rotated, data); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		v       flagValues
		wantErr string // substring; empty = valid
	}{
		{"bare", flagValues{set: mkSet()}, "pass -run, -config or -endurance; the paper's figures and tables come from reproduce"},
		{"seed alone", flagValues{set: mkSet("seed")}, "pass -run, -config or -endurance"},
		{"run alone", flagValues{set: mkSet("run")}, ""},
		{"config alone", flagValues{set: mkSet("config")}, ""},
		{"endurance with config", flagValues{set: mkSet("endurance", "config")}, "exclusive"},
		{"run with config", flagValues{set: mkSet("run", "config")}, "exclusive"},
		{"storm without run", flagValues{set: mkSet("storm")}, "-storm requires -run"},
		{"csv with run", flagValues{set: mkSet("run", "csv")}, "-csv requires -config or -endurance"},
		{"csv alone", flagValues{set: mkSet("csv")}, "-csv requires -config or -endurance"},
		{"csv with endurance", flagValues{set: mkSet("endurance", "csv")}, ""},
		{"csv with config", flagValues{set: mkSet("config", "csv")}, ""},
		{"admission without storm", flagValues{set: mkSet("run", "admission")}, "-admission requires -storm"},
		{"years without endurance", flagValues{set: mkSet("years")}, "-years requires -endurance"},

		{"grid without run", flagValues{set: mkSet("grid")}, "-grid requires -run"},
		{"grid with run", flagValues{set: mkSet("run", "grid")}, ""},
		{"grid cap csv without grid", flagValues{set: mkSet("run", "grid-cap-csv")}, "-grid-cap-csv requires -grid"},
		{"grid price csv without grid", flagValues{set: mkSet("run", "grid-price-csv")}, "-grid-price-csv requires -grid"},
		{"grid carbon csv with grid", flagValues{set: mkSet("run", "grid", "grid-carbon-csv")}, ""},

		{"interval without checkpoint", flagValues{set: mkSet("run", "checkpoint-interval")}, "-checkpoint-interval requires -checkpoint"},
		{"checkpoint without run", flagValues{set: mkSet("checkpoint")}, "-checkpoint requires -run or -endurance"},
		{"checkpoint with run", flagValues{set: mkSet("run", "checkpoint")}, ""},
		{"checkpoint with endurance", flagValues{set: mkSet("endurance", "checkpoint", "checkpoint-interval")}, ""},
		{"resume without run", flagValues{set: mkSet("resume"), resume: ckptPath, seed: 7}, "-resume requires -run or -endurance"},
		{"resume with config", flagValues{set: mkSet("endurance", "resume", "config"), resume: ckptPath, seed: 7}, "-run, -endurance and -config are exclusive"},
		{"resume seed match", flagValues{set: mkSet("run", "resume", "seed"), resume: ckptPath, seed: 7}, ""},
		{"resume seed mismatch", flagValues{set: mkSet("run", "resume", "seed"), resume: ckptPath, seed: 8}, "checkpointed with -seed 7"},
		{"resume default seed mismatch", flagValues{set: mkSet("run", "resume"), resume: ckptPath, seed: 1}, "checkpointed with -seed 7"},
		{"resume missing file", flagValues{set: mkSet("run", "resume"), resume: filepath.Join(dir, "nope.ckpt"), seed: 1}, "-resume"},
		{"resume corrupt file", flagValues{set: mkSet("run", "resume"), resume: truncated, seed: 1}, "-resume"},
		{"resume torn latest, valid prev", flagValues{set: mkSet("run", "resume", "seed"), resume: rotated, seed: 7}, ""},
		{"resume torn latest, prev seed mismatch", flagValues{set: mkSet("run", "resume", "seed"), resume: rotated, seed: 8}, "checkpointed with -seed 7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateCombination(tc.v)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
