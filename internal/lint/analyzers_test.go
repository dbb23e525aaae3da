package lint

import (
	"strings"
	"testing"
)

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, "determinism", []*Analyzer{Determinism},
		"coordcharge/internal/simfix",
		"coordcharge/cmd/reproduce",
		"coordcharge/toolfix",
	)
}

func TestMapOrderGolden(t *testing.T) {
	runGolden(t, "maporder", []*Analyzer{MapOrder},
		"coordcharge/internal/mapfix",
		"coordcharge/internal/obs",
	)
}

func TestObsNilGolden(t *testing.T) {
	runGolden(t, "obsnil", []*Analyzer{ObsNil},
		"coordcharge/internal/obs",
		"coordcharge/internal/usefix",
	)
}

func TestLockDisciplineGolden(t *testing.T) {
	runGolden(t, "lockdiscipline", []*Analyzer{LockDiscipline},
		"coordcharge/internal/lockfix",
		"coordcharge/internal/lockext",
		"coordcharge/internal/lockuse",
	)
}

func TestErrDropGolden(t *testing.T) {
	runGolden(t, "errdrop", []*Analyzer{ErrDrop},
		"coordcharge/internal/errfix",
	)
}

// TestIgnoreSuppression covers the //coordvet:ignore contract end to end:
// a justified ignore silences exactly its finding, and a stale ignore is
// reported as a finding of its own (golden side), while malformed markers
// are asserted directly (they occupy their whole line, leaving no room for
// a want comment).
func TestIgnoreSuppression(t *testing.T) {
	diags := runGolden(t, "ignore", []*Analyzer{Determinism},
		"coordcharge/internal/ignfix",
	)
	// The fixture contains three time.Now violations; two are suppressed,
	// none may leak through as determinism findings.
	for _, d := range diags {
		if d.Analyzer == "determinism" {
			t.Errorf("suppressed finding leaked: %s", d)
		}
	}
}

func TestIgnoreMalformed(t *testing.T) {
	diags := runFixture(t, "ignore", []*Analyzer{Determinism},
		"coordcharge/internal/ignbad",
	)
	var sawReasonless, sawUnknown bool
	for _, d := range diags {
		if d.Analyzer != "ignore" {
			t.Errorf("unexpected non-ignore diagnostic: %s", d)
			continue
		}
		switch {
		case strings.Contains(d.Message, "needs a justification"):
			sawReasonless = true
			if want := "ignbad.go:12"; mustPos(t, d) != want {
				t.Errorf("reasonless ignore reported at %s, want %s", mustPos(t, d), want)
			}
		case strings.Contains(d.Message, `unknown analyzer "nosuchanalyzer"`):
			sawUnknown = true
		default:
			t.Errorf("unexpected ignore diagnostic: %s", d)
		}
	}
	if !sawReasonless {
		t.Error("reasonless //coordvet:ignore was not reported")
	}
	if !sawUnknown {
		t.Error("unknown-analyzer //coordvet:ignore was not reported")
	}
}

// TestStaleIgnoreNotReportedOnPartialRun: an ignore naming an analyzer that
// did not run must not be called stale — a -run subset cannot know.
func TestStaleIgnoreNotReportedOnPartialRun(t *testing.T) {
	diags := runFixture(t, "ignore", []*Analyzer{ErrDrop},
		"coordcharge/internal/ignfix",
	)
	for _, d := range diags {
		if strings.Contains(d.Message, "stale") {
			t.Errorf("stale ignore reported although determinism did not run: %s", d)
		}
	}
}

func TestByName(t *testing.T) {
	got, err := ByName("determinism, errdrop")
	if err != nil || len(got) != 2 || got[0].Name != "determinism" || got[1].Name != "errdrop" {
		t.Fatalf("ByName = %v, %v", got, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

// TestLoadPatterns sanity-checks ./... expansion against the real module,
// from the lint package's own directory: the lint package itself must be
// found, testdata must not be.
func TestLoadPatterns(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "coordcharge/internal/lint" {
		t.Fatalf("LoadPatterns(./...) = %v", pkgs)
	}
	for _, p := range pkgs {
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("testdata package leaked into scan: %s", p.Path)
		}
	}
	if loader.ModPath != "coordcharge" {
		t.Errorf("unexpected module path %s (root %s)", loader.ModPath, loader.ModRoot)
	}
}
