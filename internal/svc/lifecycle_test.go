package svc

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"coordcharge/internal/obs"
	"coordcharge/internal/scenario"
)

// smallResident is a fleet small enough that a full run takes well under a
// second free-running.
func smallResident() *RunRequest {
	return &RunRequest{P1: 1, P2: 1, P3: 1, Seed: 3, AvgDOD: 0.3, LimitMW: 0.2}
}

// waitState polls until the service reaches the wanted lifecycle state.
func waitState(t *testing.T, s *Service, want string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if s.State() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("state = %q, never reached %q within %v", s.State(), want, within)
}

// controlDigest runs the resident spec uninterrupted through the scenario
// layer and returns its flight digest and summary — the ground truth any
// service-hosted (and resumed) run must reproduce byte-for-byte.
func controlDigest(t *testing.T, req *RunRequest) (digest, summary string) {
	t.Helper()
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Obs = obs.NewSink(0)
	res, err := scenario.RunCoordinated(spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Obs.Flight.Digest(), res.Summary()
}

func TestResidentRunsToIdle(t *testing.T) {
	s := newTestService(t, Options{Resident: smallResident()})
	waitState(t, s, StateIdle, 30*time.Second)
	w := do(s.Handler(), http.MethodGet, "/api/v1/status", "")
	var resp StatusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Resident == nil || resp.Resident.Summary == nil {
		t.Fatalf("no resident summary in %s", w.Body)
	}
	if resp.Resident.Summary.Racks["P1"] != 1 {
		t.Errorf("summary = %+v", resp.Resident.Summary)
	}
	want, _ := controlDigest(t, smallResident())
	if got := s.SimSink().Flight.Digest(); got != want {
		t.Errorf("service-hosted digest %s != control %s", got, want)
	}
}

// TestResidentSkipsTicks: the resident's progress and pacing ride HardStop,
// which the run polls on skipped ticks too, so the resident runs on the
// event kernel like any other run and a quiet resident skips ticks.
func TestResidentSkipsTicks(t *testing.T) {
	s := newTestService(t, Options{Resident: smallResident()})
	waitState(t, s, StateIdle, 30*time.Second)
	if skipped := s.SimSink().Reg.Snapshot().Gauges["sim.ticks_skipped"]; skipped <= 0 {
		t.Fatalf("sim.ticks_skipped = %v, want > 0", skipped)
	}
}

// drainMidRun boots a paced service, waits for some resident progress, and
// drains it so a final checkpoint lands in dir.
func drainMidRun(t *testing.T, dir string, fresh bool) {
	t.Helper()
	opt := Options{
		Resident:        smallResident(),
		CheckpointDir:   dir,
		CheckpointEvery: 2 * time.Minute, // virtual time: several cadence writes per run
		Fresh:           fresh,
		Pace:            1500, // 3 s ticks at 2 ms wall each
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Virtual time starts at the trace's transition offset, not zero: wait
	// for ten minutes of progress past the first observed tick so several
	// cadence checkpoints (and thus a rotated previous generation) exist.
	deadline := time.Now().Add(30 * time.Second)
	first := time.Duration(-1)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("resident never advanced 10m of virtual time (first %v, at %v)",
				first, time.Duration(s.lastTickNS.Load()))
		}
		if s.lastBeatNS.Load() != 0 {
			tick := time.Duration(s.lastTickNS.Load())
			if first < 0 {
				first = tick
			}
			if tick-first >= 10*time.Minute {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ResidentCheckpointFile)); err != nil {
		t.Fatalf("drain left no checkpoint: %v", err)
	}
}

// resumeToIdle boots a service over dir and lets the resumed resident run to
// completion, returning its flight digest and summary.
func resumeToIdle(t *testing.T, dir string) (digest string, summary *RunSummary) {
	t.Helper()
	s := newTestService(t, Options{Resident: smallResident(), CheckpointDir: dir})
	// Resume discovery is journaled synchronously in New, before the
	// resident goroutine can race the state machine forward.
	discovered := false
	for _, e := range s.ServiceFlight().Last(8) {
		if e.Kind == "resume-discovered" {
			discovered = true
		}
	}
	if !discovered {
		t.Fatal("checkpoint not discovered for auto-resume")
	}
	waitState(t, s, StateIdle, 30*time.Second)
	s.mu.Lock()
	summary = s.residentSummary
	s.mu.Unlock()
	return s.SimSink().Flight.Digest(), summary
}

// TestAutoResumeBitExact is the lifecycle acceptance: drain a paced resident
// run mid-flight, restart over the same checkpoint directory, and require
// the resumed run's flight digest to match an uninterrupted control run
// byte-for-byte.
func TestAutoResumeBitExact(t *testing.T) {
	dir := t.TempDir()
	wantDigest, _ := controlDigest(t, smallResident())
	drainMidRun(t, dir, true)
	gotDigest, summary := resumeToIdle(t, dir)
	if gotDigest != wantDigest {
		t.Errorf("resumed digest %s != control %s", gotDigest, wantDigest)
	}
	if summary == nil {
		t.Error("no resident summary after resume")
	}
}

// TestAutoResumeCorruptedLatestFallsBack corrupts the newest checkpoint
// generation after the drain; the restart must restore from the
// previous-good generation and still converge to the control digest.
func TestAutoResumeCorruptedLatestFallsBack(t *testing.T) {
	dir := t.TempDir()
	wantDigest, _ := controlDigest(t, smallResident())
	drainMidRun(t, dir, true)
	path := filepath.Join(dir, ResidentCheckpointFile)
	if _, err := os.Stat(path + ".prev"); err != nil {
		t.Fatalf("no previous generation on disk: %v", err)
	}
	corruptCheckpoint(t, path)
	gotDigest, _ := resumeToIdle(t, dir)
	if gotDigest != wantDigest {
		t.Errorf("fallback-resumed digest %s != control %s", gotDigest, wantDigest)
	}
}

// corruptCheckpoint flips one payload byte so envelope verification fails.
func corruptCheckpoint(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogAbortsStalledResident slows the resident's pacing far past the
// stall TTL; the watchdog must abort the run and mark the service degraded —
// and the API plane must keep serving.
func TestWatchdogAbortsStalledResident(t *testing.T) {
	s := newTestService(t, Options{
		Resident:    smallResident(),
		Pace:        6, // 3 s ticks at 500 ms wall each: a stall at TTL 50 ms
		WatchdogTTL: 50 * time.Millisecond,
	})
	waitState(t, s, StateDegraded, 30*time.Second)
	s.mu.Lock()
	err := s.residentErr
	s.mu.Unlock()
	if err == nil {
		t.Fatal("degraded without a resident error")
	}
	// Degraded, not dead: advisor queries still compute.
	w := do(s.Handler(), http.MethodPost, "/api/v1/advise", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("advise while degraded: %d %s", w.Code, w.Body)
	}
	found := false
	for _, e := range s.ServiceFlight().Last(32) {
		if e.Comp == "svc/watchdog" && e.Kind == "resident-stalled" {
			found = true
		}
	}
	if !found {
		t.Error("stall not journaled")
	}
}

// TestFreshIgnoresCheckpoint: -fresh must not enter the resuming state even
// with a checkpoint on disk.
func TestFreshIgnoresCheckpoint(t *testing.T) {
	dir := t.TempDir()
	drainMidRun(t, dir, true)
	s := newTestService(t, Options{Resident: smallResident(), CheckpointDir: dir, Fresh: true})
	if s.State() == StateResuming {
		t.Fatal("Fresh service entered resuming state")
	}
	waitState(t, s, StateIdle, 30*time.Second)
}
