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

func TestUnitSafetyGolden(t *testing.T) {
	runGolden(t, "unitsafety", []*Analyzer{UnitSafety}, "coordcharge/internal/unitfix")
}

func TestGoroutineDisciplineGolden(t *testing.T) {
	runGolden(t, "goroutinediscipline", []*Analyzer{GoroutineDiscipline}, "coordcharge/internal/gofix")
}

// TestGoroutineDisciplineMissingWhy: a reasonless //coordvet:detached
// suppresses the finding but earns its own diagnostic. Asserted directly
// because the finding lands on the annotation comment, where a `want` would
// become the justification.
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

// TestApplyFixes exercises ApplyFixes' conflict rule on the gofix fixture's
// real fixes plus two synthesized ones: an edit that overlaps an insertion
// point wins over the later-starting insertion, a diagnostic with one
// conflicting edit is dropped whole (its clean edit is not half-applied),
// unrelated fixes still apply, and nothing is written to disk.
func TestApplyFixes(t *testing.T) {
	loader, scanned, diags := loadFixture(t, "goroutinediscipline", []*Analyzer{GoroutineDiscipline}, "coordcharge/internal/gofix")
	prog := loader.Program(scanned)
	var unjoined, named *Diagnostic
	for i := range diags {
		d := &diags[i]
		if d.Fix == nil {
			continue
		}
		switch {
		case strings.Contains(d.Message, "no provable join") && unjoined == nil:
			unjoined = d
		case strings.Contains(d.Message, "no provable join"):
			named = d
		default:
			t.Fatalf("unexpected fix on %s", d)
		}
	}
	if unjoined == nil || named == nil {
		t.Fatalf("want fixes on both unjoined goroutines, got %v", diags)
	}
	at := unjoined.Fix.Edits[0].Pos // just after `go func() {}()`

	// winner replaces "() " around the insertion point: it starts first.
	winner := Diagnostic{Analyzer: "test", Pos: unjoined.Pos, Message: "winner", Fix: &SuggestedFix{
		Edits: []TextEdit{{Pos: at - 2, End: at + 1, NewText: "()/*kept*/ "}},
	}}
	// half has a clean edit at the package clause and one inside winner's span.
	half := Diagnostic{Analyzer: "test", Pos: unjoined.Pos, Message: "half", Fix: &SuggestedFix{
		Edits: []TextEdit{
			{Pos: scanned[0].Files[0].Package, End: scanned[0].Files[0].Package, NewText: "/*half*/"},
			{Pos: at - 1, End: at - 1, NewText: "/*half*/"},
		},
	}}
	all := append(append([]Diagnostic(nil), diags...), winner, half)

	fixed, applied, skipped, err := ApplyFixes(prog, all)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Errorf("applied %d fixes, want 2 (winner and the named goroutine's)", applied)
	}
	if len(skipped) != 2 || skipped[0].Message != unjoined.Message || skipped[1].Message != "half" {
		t.Errorf("skipped %v, want the overlapped insertion then half", skipped)
	}
	if len(fixed) != 1 {
		t.Fatalf("fixed %d files, want 1", len(fixed))
	}
	for name, content := range fixed {
		out := string(content)
		if !strings.Contains(out, "go func() {}()/*kept*/ // want ") {
			t.Error("winning edit not applied in place")
		}
		if strings.Contains(out, "/*half*/") {
			t.Error("a conflicted diagnostic was half-applied")
		}
		if !strings.Contains(out, "go pump() //"+DetachedMarker+" TODO(coordvet)") {
			t.Error("the non-conflicting fix on the named goroutine was not applied")
		}
		if n := strings.Count(out, "TODO(coordvet)"); n != 1 {
			t.Errorf("%d placeholder annotations, want 1", n)
		}
		orig, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(orig), "/*kept*/") || strings.Contains(string(orig), "TODO(coordvet)") {
			t.Error("ApplyFixes wrote to disk")
		}
	}
}

// TestApplyFixesDetached applies the goroutinediscipline fixes to the
// fixture: each detached annotation is inserted right after its go
// statement, before the statement's existing trailing comment, without a
// conflict and without touching the disk copy.
func TestApplyFixesDetached(t *testing.T) {
	loader, scanned, diags := loadFixture(t, "goroutinediscipline", []*Analyzer{GoroutineDiscipline}, "coordcharge/internal/gofix")
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
		if !strings.HasSuffix(name, "gofix.go") {
			t.Errorf("unexpected fixed file %s", name)
		}
		// The unjoined goroutine's line already trails a `// want` comment;
		// the annotation must land between the statement and that comment.
		annotated := false
		for _, line := range strings.Split(string(content), "\n") {
			if strings.Contains(line, "go func() {}() //"+DetachedMarker+" TODO(coordvet)") &&
				strings.Contains(line, "// want ") {
				annotated = true
			}
		}
		if !annotated {
			t.Error("unjoined goroutine did not gain a detached annotation before its trailing comment")
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
		mk("a/a.go", "obsnil", "exported method (*A) X must begin with `if a == nil`"),
		mk("a/a.go", "obsnil", "exported method (*A) X must begin with `if a == nil`"), // duplicate: Count 2
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
	fresh, _ = rb.Filter(modRoot, append(diags, mk("a/a.go", "obsnil", "exported method (*A) X must begin with `if a == nil`")))
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
	moved := mk("a/a.go", "obsnil", "exported method (*A) Y must begin with `if a == nil`")
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
			Analyzer: "unitsafety",
			Pos:      token.Position{Filename: filepath.Join(modRoot, "internal", "grid", "policy.go"), Line: 12, Column: 3},
			Message:  "headroom - used mixes units.Power and units.Energy; convert through internal/units first",
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
