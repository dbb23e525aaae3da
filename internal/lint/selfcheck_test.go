package lint

import "testing"

// TestRepoIsClean runs the full suite over the whole module — the same gate
// CI uses (`go run ./cmd/coordvet ./...`): the tree must stay burned down,
// every contract violation fixed or explicitly annotated with a
// justification. A failure here is a new finding; run coordvet locally for
// positions.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := NewLoader("../..") // the module root: patterns resolve against it
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 30 {
		t.Fatalf("suspiciously few packages scanned: %d", len(pkgs))
	}
	for _, d := range Run(loader.Program(pkgs), All()) {
		t.Errorf("%s", d)
	}
}
