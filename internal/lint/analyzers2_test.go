package lint

import (
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
