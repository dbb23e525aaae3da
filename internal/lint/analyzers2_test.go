package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCkptParityGolden(t *testing.T) {
	runGolden(t, "ckptparity", []*Analyzer{CkptParity}, "coordcharge/internal/ckptfix")
}

// TestCkptParityMissingWhy: a reasonless //coordvet:transient suppresses the
// parity finding but earns its own diagnostic. Asserted directly because the
// finding lands on the annotation comment, where a `want` would become the
// justification.
func TestCkptParityMissingWhy(t *testing.T) {
	diags := runFixture(t, "ckptparity", []*Analyzer{CkptParity}, "coordcharge/internal/ckptannot")
	if len(diags) != 1 {
		t.Fatalf("want exactly the missing-why diagnostic, got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "//coordvet:transient needs a justification after the marker") {
		t.Errorf("unexpected diagnostic: %s", diags[0])
	}
}

func TestUnitSafetyGolden(t *testing.T) {
	runGolden(t, "unitsafety", []*Analyzer{UnitSafety}, "coordcharge/internal/unitfix")
}

func TestGoroutineDisciplineGolden(t *testing.T) {
	runGolden(t, "goroutinediscipline", []*Analyzer{GoroutineDiscipline}, "coordcharge/internal/gofix")
}

// TestGoroutineDisciplineMissingWhy mirrors the ckptparity case for
// //coordvet:detached.
func TestGoroutineDisciplineMissingWhy(t *testing.T) {
	diags := runFixture(t, "goroutinediscipline", []*Analyzer{GoroutineDiscipline}, "coordcharge/internal/goannot")
	if len(diags) != 1 {
		t.Fatalf("want exactly the missing-why diagnostic, got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "//coordvet:detached needs a justification after the marker") {
		t.Errorf("unexpected diagnostic: %s", diags[0])
	}
}

// TestLoaderGenerics: generic declarations and the go1.21 min/max builtins
// must load and type-check, and the loader must carry go.mod's language
// version so its accept set matches `go build`.
func TestLoaderGenerics(t *testing.T) {
	loader, scanned, diags := loadFixture(t, "generics", All(), "coordcharge/internal/genfix")
	if loader.GoVersion == "" {
		t.Error("loader did not pick up the go.mod language version")
	}
	if len(scanned) != 1 {
		t.Fatalf("scanned %d packages, want 1", len(scanned))
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestApplyFixes applies ckptparity's suggested annotations to the fixture
// and checks the insertion — before the existing trailing comment, without
// touching the disk copy.
func TestApplyFixes(t *testing.T) {
	loader, scanned, diags := loadFixture(t, "ckptparity", []*Analyzer{CkptParity}, "coordcharge/internal/ckptfix")
	fixed, applied, skipped, err := ApplyFixes(loader.Program(scanned), diags)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Errorf("unexpected conflicts: %v", skipped)
	}
	if applied == 0 {
		t.Fatal("no fixes applied")
	}
	if len(fixed) != 1 {
		t.Fatalf("fixed %d files, want 1", len(fixed))
	}
	for name, content := range fixed {
		if !strings.HasSuffix(name, "ckptfix.go") {
			t.Errorf("unexpected fixed file %s", name)
		}
		annotated := false
		for _, line := range strings.Split(string(content), "\n") {
			if strings.Contains(line, "lost int") &&
				strings.Contains(line, TransientMarker+" TODO(coordvet)") {
				annotated = true
			}
		}
		if !annotated {
			t.Error("Leaky.lost did not gain a transient annotation")
		}
		orig, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(orig, content) {
			t.Error("fixed content identical to original")
		}
		if strings.Contains(string(orig), "TODO(coordvet)") {
			t.Error("ApplyFixes wrote to disk (fixture contains the placeholder)")
		}
	}
}

// TestApplyFixesDetached applies the goroutinediscipline fix: the detached
// annotation is appended after the go statement.
func TestApplyFixesDetached(t *testing.T) {
	loader, scanned, diags := loadFixture(t, "goroutinediscipline", []*Analyzer{GoroutineDiscipline}, "coordcharge/internal/gofix")
	fixed, applied, _, err := ApplyFixes(loader.Program(scanned), diags)
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("no fixes applied")
	}
	for _, content := range fixed {
		if !strings.Contains(string(content), "go func() {}() //"+DetachedMarker+" TODO(coordvet)") {
			t.Errorf("unjoined goroutine did not gain a detached annotation")
		}
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	modRoot := t.TempDir()
	mk := func(file, analyzer, msg string) Diagnostic {
		return Diagnostic{
			Analyzer: analyzer,
			Pos:      token.Position{Filename: filepath.Join(modRoot, file), Line: 1, Column: 1},
			Message:  msg,
		}
	}
	diags := []Diagnostic{
		mk("a/a.go", "ckptparity", "A.x is mutated"),
		mk("a/a.go", "ckptparity", "A.x is mutated"), // duplicate: Count 2
		mk("b/b.go", "unitsafety", "mixes W and Wh"),
	}
	b := NewBaseline(modRoot, diags)
	if len(b.Findings) != 2 {
		t.Fatalf("want 2 deduplicated entries, got %d", len(b.Findings))
	}
	path := filepath.Join(modRoot, "baseline.json")
	if err := WriteBaseline(path, b); err != nil {
		t.Fatal(err)
	}
	rb, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	// Full coverage: nothing fresh, nothing retired.
	fresh, retired := rb.Filter(modRoot, diags)
	if len(fresh) != 0 || len(retired) != 0 {
		t.Errorf("full coverage: fresh=%v retired=%v", fresh, retired)
	}

	// A third duplicate exceeds the budgeted count: fresh.
	fresh, _ = rb.Filter(modRoot, append(diags, mk("a/a.go", "ckptparity", "A.x is mutated")))
	if len(fresh) != 1 {
		t.Errorf("over-budget duplicate not fresh: %v", fresh)
	}

	// Fixing the unitsafety finding retires its entry without failing.
	fresh, retired = rb.Filter(modRoot, diags[:2])
	if len(fresh) != 0 {
		t.Errorf("unexpected fresh findings: %v", fresh)
	}
	if len(retired) != 1 || retired[0].Analyzer != "unitsafety" {
		t.Errorf("want the unitsafety entry retired, got %v", retired)
	}

	// A new finding is always fresh, and line moves don't matter.
	moved := mk("a/a.go", "ckptparity", "A.y is mutated")
	moved.Pos.Line = 99
	fresh, _ = rb.Filter(modRoot, []Diagnostic{moved})
	if len(fresh) != 1 {
		t.Errorf("new finding not fresh: %v", fresh)
	}

	// Missing file is an empty ledger; wrong version is an error.
	empty, err := ReadBaseline(filepath.Join(modRoot, "nope.json"))
	if err != nil || len(empty.Findings) != 0 {
		t.Errorf("missing baseline: %v %v", empty, err)
	}
	if err := os.WriteFile(path, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBaseline(path); err == nil {
		t.Error("version mismatch not rejected")
	}
}

func TestWriteSARIF(t *testing.T) {
	modRoot := t.TempDir()
	diags := []Diagnostic{
		{
			Analyzer: "ckptparity",
			Pos:      token.Position{Filename: filepath.Join(modRoot, "internal", "grid", "policy.go"), Line: 12, Column: 3},
			Message:  "Policy.x is mutated but not read by ExportState",
		},
		{
			Analyzer: "ignore",
			Pos:      token.Position{Filename: filepath.Join(modRoot, "a.go"), Line: 1, Column: 1},
			Message:  "stale //coordvet:ignore",
		},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, modRoot, All(), diags); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("invalid SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("bad log shape: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "coordvet" {
		t.Errorf("driver name %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) < len(All())+1 {
		t.Errorf("want a rule per analyzer plus the ignore meta rule, got %d", len(run.Tool.Driver.Rules))
	}
	if len(run.Results) != 2 {
		t.Fatalf("want 2 results, got %d", len(run.Results))
	}
	for _, r := range run.Results {
		if r.Level != "error" {
			t.Errorf("result level %q", r.Level)
		}
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) ||
			run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
			t.Errorf("ruleIndex %d does not resolve to %s", r.RuleIndex, r.RuleID)
		}
	}
	uri := run.Results[0].Locations[0].PhysicalLocation.ArtifactLocation.URI
	if uri != "internal/grid/policy.go" {
		t.Errorf("URI not module-relative slash form: %q", uri)
	}
	if run.Results[0].Locations[0].PhysicalLocation.Region.StartLine != 12 {
		t.Errorf("startLine lost")
	}
}
