package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module: go.mod plus the given files,
// keyed by slash path relative to the module root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module vetmod\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestExitStatus pins the gate's contract: 0 and silence on a clean module,
// 1 with the finding on stdout, 2 on a usage error. Patterns resolve against
// the working directory, and one that leaves the module is a usage error.
func TestExitStatus(t *testing.T) {
	clean := writeModule(t, map[string]string{
		"internal/ok/ok.go": "package ok\n\nfunc Joined() {\n\tdone := make(chan struct{})\n\tgo func() { close(done) }()\n\t<-done\n}\n",
	})
	leaky := writeModule(t, map[string]string{
		"internal/leak/leak.go": "package leak\n\nfunc Spawn() {\n\tgo func() {}()\n}\n",
	})
	for _, tc := range []struct {
		name       string
		wd         string
		args       []string
		want       int
		wantStdout string // substring; "" means stdout must be empty
		wantStderr string // substring; "" means stderr must be empty
	}{
		{"clean", clean, []string{"./..."}, 0, "", ""},
		{"finding", leaky, []string{"./..."}, 1,
			filepath.Join("internal", "leak", "leak.go") + ":4:2: [goroutinediscipline] goroutine has no provable join",
			"coordvet: 1 finding(s) in 1 package(s)"},
		{"package directory", filepath.Join(leaky, "internal", "leak"), []string{"."}, 1,
			"leak.go:4:2: [goroutinediscipline] goroutine has no provable join",
			"coordvet: 1 finding(s) in 1 package(s)"},
		{"outside the module", filepath.Join(leaky, "internal"), []string{"../../..."}, 2, "", "is outside the module"},
		{"unknown analyzer", clean, []string{"-run", "nosuch", "./..."}, 2, "", `unknown analyzer "nosuch"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.wd, tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("exit %d, want %d (stdout %q, stderr %q)", got, tc.want, stdout.String(), stderr.String())
			}
			for _, out := range []struct {
				name, got, want string
			}{{"stdout", stdout.String(), tc.wantStdout}, {"stderr", stderr.String(), tc.wantStderr}} {
				if out.want == "" && out.got != "" {
					t.Errorf("%s = %q, want nothing", out.name, out.got)
				}
				if !strings.Contains(out.got, out.want) {
					t.Errorf("%s = %q, want it to contain %q", out.name, out.got, out.want)
				}
			}
		})
	}
}
