package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"coordcharge/internal/config"
	"coordcharge/internal/scenario"
	"coordcharge/internal/svc"
	"coordcharge/internal/trace"
)

func TestCoordinatedTraceAndDistributed(t *testing.T) {
	// Write a valid trace file and reference it.
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	gen, err := trace.NewGenerator(trace.Spec{NumRacks: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := trace.Materialize(gen, 0, time.Minute, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfgJSON := `{"coordinated": {"p1": 1, "p2": 1, "p3": 1, "mode": "priority-aware",
		"limit_mw": 0.05, "avg_dod": 0.5, "distributed": true, "trace": ` + strconv.Quote(path) + `}}`
	file, err := config.Read(strings.NewReader(cfgJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := runSpec(file.Coordinated)
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Distributed {
		t.Error("distributed flag lost")
	}
	if spec.Trace == nil || spec.Trace.NumRacks() != 3 {
		t.Error("trace not loaded")
	}
	// A missing trace file errors cleanly.
	file, err = config.Read(strings.NewReader(`{"coordinated": {"p1": 1, "avg_dod": 0.5, "trace": "/no/such/file.csv"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSpec(file.Coordinated); err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestOneRunSurface runs each request through coordsim's flags, an
// experiment file and POST /api/v1/run. All three surfaces decode into one
// svc.RunRequest, so their svc.Summarize JSON must be byte-identical.
func TestOneRunSurface(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		body string
	}{
		{"distributed with latency",
			[]string{"-p1", "3", "-p2", "3", "-p3", "3", "-limit", "0.08", "-distributed", "-latency", "20s"},
			`{"p1":3,"p2":3,"p3":3,"seed":1,"limit_mw":0.08,"avg_dod":0.5,"distributed":true,"latency_s":20}`},
		{"storm admission guard faults watchdog",
			[]string{"-p1", "4", "-p2", "4", "-p3", "4", "-limit", "0.105", "-storm", "90s", "-admission", "-guard", "-faults", "default", "-watchdog", "30s"},
			`{"p1":4,"p2":4,"p3":4,"seed":1,"limit_mw":0.105,"avg_dod":0.5,"outage_s":90,"admission":true,"guard":true,"faults":"default","watchdog_s":30}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := svc.PaperRun()
			fs := flag.NewFlagSet("coordsim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			q.Flags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			fromFlags := summaryJSON(t, &q)

			file, err := config.Read(strings.NewReader(`{"coordinated": ` + tc.body + `}`))
			if err != nil {
				t.Fatal(err)
			}
			fromFile := summaryJSON(t, file.Coordinated)

			s, err := svc.New(svc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown(context.Background())
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/run", strings.NewReader(tc.body)))
			if w.Code != http.StatusOK {
				t.Fatalf("POST /api/v1/run: %d %s", w.Code, w.Body)
			}

			if !bytes.Equal(fromFlags, fromFile) {
				t.Errorf("flags and experiment file differ:\n%s\n%s", fromFlags, fromFile)
			}
			if !bytes.Equal(fromFlags, w.Body.Bytes()) {
				t.Errorf("flags and API differ:\n%s\n%s", fromFlags, w.Body)
			}
		})
	}
}

// summaryJSON runs q the way coordsim does and encodes its summary the way
// the API writes it.
func summaryJSON(t *testing.T, q *svc.RunRequest) []byte {
	t.Helper()
	spec, err := runSpec(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.RunCoordinated(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(svc.Summarize(res)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestKernelLine: every -run summary names the tick loop that ran — the
// event kernel with its tick accounting, or the dense loop with the reason.
func TestKernelLine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		kernel string
		want   string
	}{
		{"default", nil, "", "  kernel:                   event, "},
		{"requested dense", nil, scenario.KernelDense, "  kernel:                   dense (requested)\n"},
		{"grid runs event", []string{"-storm", "90s", "-grid", "capshrink=10m+20m(0.3)"}, scenario.KernelEvent,
			"  kernel:                   event, "},
		{"faults force dense", []string{"-faults", "default"}, scenario.KernelEvent,
			"  kernel:                   dense (fault injection)\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := svc.PaperRun()
			fs := flag.NewFlagSet("coordsim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			q.Flags(fs)
			if err := fs.Parse(append([]string{"-p1", "3", "-p2", "3", "-p3", "3", "-limit", "0.08"}, tc.args...)); err != nil {
				t.Fatal(err)
			}
			spec, err := runSpec(&q)
			if err != nil {
				t.Fatal(err)
			}
			spec.Kernel = tc.kernel
			res, err := scenario.RunCoordinated(spec)
			if err != nil {
				t.Fatal(err)
			}
			out := captureStdout(t, func() { printCoordSummary(spec, res) })
			if !strings.Contains(out, tc.want) {
				t.Errorf("summary lacks %q:\n%s", tc.want, out)
			}
			if strings.Count(out, "  kernel:") != 1 {
				t.Errorf("want exactly one kernel line:\n%s", out)
			}
		})
	}
}

// captureStdout returns what f writes to os.Stdout.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	f()
	w.Close()
	return string(<-done)
}
