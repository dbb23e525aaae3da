package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReproduceWritesEveryArtifact runs every artifact at a short Monte
// Carlo horizon and checks the index against the directory: each artifact
// has a line, each file it names has its .txt and .csv, no two outputs share
// a name (report.SaveChart and SaveTable would overwrite each other), and
// the artifacts that pair a chart with a table or headline keep both.
func TestReproduceWritesEveryArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every paper artifact")
	}
	dir := t.TempDir()
	if err := reproduce(dir, 200, 1, io.Discard); err != nil {
		t.Fatal(err)
	}
	index, err := os.ReadFile(filepath.Join(dir, "INDEX.txt"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]string{} // artifact → files it wrote
	for _, line := range strings.Split(string(index), "\n")[2:] {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		files[fields[0]] = fields[2:]
	}
	arts := artifacts(200, 1)
	writtenBy := map[string]string{}
	for _, a := range arts {
		names, ok := files[a.name]
		if !ok {
			t.Errorf("INDEX.txt lacks %s:\n%s", a.name, index)
			continue
		}
		for _, n := range names {
			if prev, dup := writtenBy[n]; dup {
				t.Errorf("%s and %s both write %s", prev, a.name, n)
			}
			writtenBy[n] = a.name
			for _, ext := range []string{".txt", ".csv"} {
				if _, err := os.Stat(filepath.Join(dir, n+ext)); err != nil {
					t.Errorf("%s: %v", a.name, err)
				}
			}
		}
	}
	if len(files) != len(arts) {
		t.Errorf("INDEX.txt lists %d artifacts, want %d", len(files), len(arts))
	}

	// Each of these pairs must keep both files, with the content it claims.
	for _, tc := range []struct{ file, want string }{
		{"grid_shrink.csv", "P1,"},
		{"grid_shrink_table.csv", "Shrink,SLA met,Trips"},
		{"grid_shave.csv", "shave target,"},
		{"grid_shave_table.csv", "Starts,Rotations,Carried by batteries"},
		{"case2_building.csv", "MSB,Load before"},
		{"case2_headline.csv", "Servers capped,Max per-MSB increase"},
	} {
		b, err := os.ReadFile(filepath.Join(dir, tc.file))
		if err != nil {
			t.Error(err)
			continue
		}
		if !strings.Contains(string(b), tc.want) {
			t.Errorf("%s lacks %q:\n%s", tc.file, tc.want, b)
		}
	}
}
