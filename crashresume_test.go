package coordcharge

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"coordcharge/internal/ckpt"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/faults"
	"coordcharge/internal/obs"
	"coordcharge/internal/rack"
	"coordcharge/internal/rng"
	"coordcharge/internal/scenario"
)

// Kill-and-resume chaos: the crash-safety acceptance for the checkpoint
// subsystem. A storm run with checkpointing armed is hard-stopped at
// randomized ticks — the in-process equivalent of SIGKILL: no final
// checkpoint is written and RunCoordinated returns ErrAborted — then rebuilt
// from the spec and resumed from the last on-disk checkpoint. After the
// final resume completes, the run's summary and flight digest must be
// byte-identical to an uninterrupted run of the same spec. Both control
// planes are covered; each resume replays the run up to the checkpoint's
// cursor and verifies the replay against the checkpoint.

// chaosKills picks the kill offsets, relative to run start, for one seed:
// one inside the grid event (the outage spans [PreRoll, PreRoll+OutageLen),
// with PreRoll at its 2-minute default) and one in the recharge-storm drain
// after restore (which takes hours at stormSpec's breaker limit, so half an
// hour in is safely mid-drain).
func chaosKills(seed int64) []time.Duration {
	r := rng.New(seed * 7919)
	const preRoll = 2 * time.Minute
	outage := preRoll + 5*time.Second + time.Duration(r.Intn(int(80*time.Second)))
	drain := preRoll + 90*time.Second + 5*time.Minute + time.Duration(r.Intn(int(25*time.Minute)))
	return []time.Duration{outage, drain}
}

// runUninterrupted is the control arm: no checkpointing at all, proving on
// the other side that checkpoint writes never perturb the simulation.
func runUninterrupted(t *testing.T, spec scenario.CoordSpec) (summary, digest string) {
	t.Helper()
	spec.Obs = obs.NewSink(0)
	res, err := scenario.RunCoordinated(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Summary(), spec.Obs.Flight.Digest()
}

// runWithKills runs the spec with checkpointing every 30 s of virtual time,
// hard-stopping at each kill offset and resuming from the checkpoint file
// with a fresh process-equivalent (new fleet, new control plane, new obs
// sink), then lets the last resume run to completion.
func runWithKills(t *testing.T, spec scenario.CoordSpec, kills []time.Duration) (summary, digest string) {
	t.Helper()
	return runWithKillsVariant(t, spec, kills, nil)
}

// runWithKillsVariant is runWithKills with an optional per-attempt kernel
// override, letting the parity suite resume a checkpoint on a different
// kernel than the one that wrote it.
func runWithKillsVariant(t *testing.T, spec scenario.CoordSpec, kills []time.Duration, kernelAt func(attempt int) string) (summary, digest string) {
	t.Helper()
	res, sink := runKilled(t, spec, kills, kernelAt)
	return res.Summary(), sink.Flight.Digest()
}

// runKilled does runWithKillsVariant's work and returns the final resume's
// result and obs sink.
func runKilled(t *testing.T, spec scenario.CoordSpec, kills []time.Duration, kernelAt func(attempt int) string) (*scenario.CoordResult, *obs.Sink) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var start time.Duration
	haveStart := false
	for attempt := 0; ; attempt++ {
		run := spec
		if kernelAt != nil {
			run.Kernel = kernelAt(attempt)
		}
		run.Obs = obs.NewSink(0)
		run.Checkpoint = path
		run.CheckpointEvery = 30 * time.Second
		if attempt > 0 {
			run.Resume = path
		}
		if attempt < len(kills) {
			at := kills[attempt]
			run.HardStop = func(now time.Duration) bool {
				if !haveStart {
					start, haveStart = now, true
				}
				return now-start >= at
			}
		}
		res, err := scenario.RunCoordinated(run)
		if attempt < len(kills) {
			if !errors.Is(err, scenario.ErrAborted) {
				t.Fatalf("kill %d at +%v: err = %v, want ErrAborted", attempt, kills[attempt], err)
			}
			if _, statErr := os.Stat(path); statErr != nil {
				t.Fatalf("kill %d at +%v left no checkpoint: %v", attempt, kills[attempt], statErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("final resume: %v", err)
		}
		return res, run.Obs
	}
}

func checkChaosSeed(t *testing.T, seed int64, distributed bool) {
	t.Helper()
	spec := stormSpec(seed)
	armStorm(&spec)
	spec.Distributed = distributed

	wantSummary, wantDigest := runUninterrupted(t, spec)
	gotSummary, gotDigest := runWithKills(t, spec, chaosKills(seed))

	if gotDigest != wantDigest {
		t.Errorf("flight digest diverged after kill-and-resume:\n  resumed       %s\n  uninterrupted %s", gotDigest, wantDigest)
	}
	if gotSummary != wantSummary {
		t.Errorf("summary diverged after kill-and-resume:\n--- resumed ---\n%s--- uninterrupted ---\n%s", gotSummary, wantSummary)
	}
}

// TestCrashResumeSync covers the synchronous control plane.
func TestCrashResumeSync(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkChaosSeed(t, seed, false)
		})
	}
}

// TestCrashResumeDistributed covers the message-passing control plane, whose
// replay must also reproduce the engine counters.
func TestCrashResumeDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("full charging-period simulations on the distributed plane")
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkChaosSeed(t, seed, true)
		})
	}
}

// TestCrashResumeSyncRetries resumes the synchronous plane with override
// retries armed from checkpoints that hold no override in flight: one taken
// before the outage, one deep in the drain. The resumed controllers must
// keep tracking the overrides they send afterwards exactly as the
// uninterrupted run does.
func TestCrashResumeSyncRetries(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := stormSpec(seed)
			spec.Faults = faults.Default()
			spec.Faults.Seed = seed
			spec.StaleAfter = 10 * time.Second
			spec.Retry = dynamo.DefaultRetryPolicy()

			wantSummary, wantDigest := runUninterrupted(t, spec)
			gotSummary, gotDigest := runWithKills(t, spec, []time.Duration{45 * time.Second, 40 * time.Minute})
			if gotDigest != wantDigest {
				t.Errorf("flight digest diverged after kill-and-resume:\n  resumed       %s\n  uninterrupted %s", gotDigest, wantDigest)
			}
			if gotSummary != wantSummary {
				t.Errorf("summary diverged after kill-and-resume:\n--- resumed ---\n%s--- uninterrupted ---\n%s", gotSummary, wantSummary)
			}
		})
	}
}

// TestCrashResumeGracefulInterrupt covers the SIGTERM path: Interrupt makes
// the run write a final checkpoint at the exact stop tick and return a
// partial result with Interrupted set; the resume must still be bit-exact.
func TestCrashResumeGracefulInterrupt(t *testing.T) {
	spec := stormSpec(1)
	armStorm(&spec)
	wantSummary, wantDigest := runUninterrupted(t, spec)

	path := filepath.Join(t.TempDir(), "run.ckpt")
	first := spec
	first.Obs = obs.NewSink(0)
	first.Checkpoint = path
	first.CheckpointEvery = time.Hour // cadence never fires; only the final write
	var start time.Duration
	haveStart := false
	stopAt := 7 * time.Minute
	first.Interrupt = func() bool { return haveStart }
	first.HardStop = func(now time.Duration) bool {
		// Abuse HardStop's now-visibility to arm Interrupt at +stopAt; it
		// never stops anything itself.
		if start == 0 && !haveStart {
			start = now
		}
		if now-start >= stopAt {
			haveStart = true
		}
		return false
	}
	res, err := scenario.RunCoordinated(first)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("run was not interrupted")
	}

	second := spec
	second.Obs = obs.NewSink(0)
	second.Resume = path
	res2, err := scenario.RunCoordinated(second)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Obs.Flight.Digest(); got != wantDigest {
		t.Errorf("flight digest diverged after graceful interrupt: %s vs %s", got, wantDigest)
	}
	if got := res2.Summary(); got != wantSummary {
		t.Errorf("summary diverged after graceful interrupt:\n--- resumed ---\n%s--- uninterrupted ---\n%s", got, wantSummary)
	}
}

// TestCrashResumeObsCounters: a resume replays the ticks before its cursor
// into the fresh sink, so after kill-and-resume the final sink's counters
// equal an uninterrupted run's on both planes.
func TestCrashResumeObsCounters(t *testing.T) {
	for _, plane := range []string{"sync", "distributed"} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", plane, seed), func(t *testing.T) {
				t.Parallel()
				spec := stormSpec(seed)
				armStorm(&spec)
				spec.Distributed = plane == "distributed"
				ref := spec
				ref.Obs = obs.NewSink(0)
				if _, err := scenario.RunCoordinated(ref); err != nil {
					t.Fatal(err)
				}
				_, sink := runKilled(t, spec, chaosKills(seed), nil)
				got, want := sink.Reg.Snapshot().Counters, ref.Obs.Reg.Snapshot().Counters
				if !maps.Equal(got, want) {
					t.Errorf("counters diverged after kill-and-resume:\n  resumed       %v\n  uninterrupted %v", got, want)
				}
			})
		}
	}
}

// TestResumeRejectsTamperedCheckpoint: the verification block is a resume's
// only tripwire. Each case rewrites one field of a valid checkpoint inside a
// valid envelope, and the resume must fail with that field's error before
// the run continues. Every tampered copy gets a path of its own, so no
// rotated ".prev" generation exists to stand in for it.
func TestResumeRejectsTamperedCheckpoint(t *testing.T) {
	bump := func(raw json.RawMessage) json.RawMessage {
		v, err := strconv.ParseUint(string(raw), 10, 64)
		if err != nil {
			t.Fatalf("field %s is not an unsigned integer: %v", raw, err)
		}
		return json.RawMessage(strconv.FormatUint(v+1, 10))
	}
	set := func(v string) func(json.RawMessage) json.RawMessage {
		return func(json.RawMessage) json.RawMessage { return json.RawMessage(v) }
	}
	type tamper struct {
		field   string
		rewrite func(json.RawMessage) json.RawMessage
		wantErr string
	}
	tampers := []tamper{
		{"kind", set(`"coordinated"`), `is a "coordinated" checkpoint, want "coordinated-replay"`},
		{"seed", bump, "written with seed 2, this run uses seed 1"},
		{"fingerprint", bump, "describes a different experiment"},
		{"now", set("360000000000000000"), "checkpoint cursor 100000h0m0s is not a tick of the run window"},
		{"state_hash", bump, "replay diverged: fleet hash"},
		{"flight_digest", set(`"0123456789abcdef"`), "replay diverged: flight digest"},
		{"flight_total", bump, "flight events, checkpoint recorded"},
	}
	for _, arm := range []struct {
		name    string
		edit    func(*scenario.CoordSpec)
		tampers []tamper
	}{
		{"sync-storm", func(*scenario.CoordSpec) {}, tampers},
		{"sync-latency", func(s *scenario.CoordSpec) { s.CommandLatency = 20 * time.Second },
			append(slices.Clone(tampers), tamper{"engine_seq", bump, "replay diverged: engine at"})},
		{"event-storm", func(s *scenario.CoordSpec) { s.Kernel = scenario.KernelEvent }, tampers},
	} {
		t.Run(arm.name, func(t *testing.T) {
			t.Parallel()
			spec := stormSpec(1)
			armStorm(&spec)
			arm.edit(&spec)
			dir := t.TempDir()
			first := spec
			first.Obs = obs.NewSink(0)
			first.Checkpoint = filepath.Join(dir, "run.ckpt")
			first.CheckpointEvery = time.Hour
			polls := 0
			first.Interrupt = func() bool { polls++; return polls > 200 }
			if res, err := scenario.RunCoordinated(first); err != nil || !res.Interrupted {
				t.Fatalf("interrupted run: err=%v", err)
			}
			// Decode into raw fields: map[string]any would turn the uint64
			// fingerprint into a float64, and the fingerprint check would
			// fire for every case.
			var fields map[string]json.RawMessage
			if err := ckpt.ReadFile(first.Checkpoint, &fields); err != nil {
				t.Fatal(err)
			}
			resume := func(name, field string, rewrite func(json.RawMessage) json.RawMessage) error {
				copied := maps.Clone(fields)
				if field != "" {
					raw, ok := copied[field]
					if !ok {
						t.Fatalf("checkpoint has no %q field", field)
					}
					copied[field] = rewrite(raw)
				}
				path := filepath.Join(dir, name+".ckpt")
				if err := ckpt.WriteFileAtomic(path, copied); err != nil {
					t.Fatal(err)
				}
				run := spec
				run.Obs = obs.NewSink(0)
				run.Resume = path
				_, err := scenario.RunCoordinated(run)
				return err
			}
			// The control: an untouched rewrite resumes.
			if err := resume("untouched", "", nil); err != nil {
				t.Fatalf("untouched checkpoint: %v", err)
			}
			for _, tc := range arm.tampers {
				err := resume(tc.field, tc.field, tc.rewrite)
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("%s rewritten: err = %v, want one containing %q", tc.field, err, tc.wantErr)
				}
			}
		})
	}
}

// enduranceSummary folds an endurance result into a deterministic string for
// byte-equality checks; floats print as hex so equality means bit-exact.
func enduranceSummary(res *scenario.EnduranceResult) string {
	s := fmt.Sprintf("events=%d outages=%d metrics=%+v unserved=%x drops=%d tripped=%v interrupted=%t",
		res.Events, res.Outages, res.Metrics, float64(res.UnservedEnergy),
		res.LoadDropEvents, res.Tripped, res.Interrupted)
	for _, p := range []rack.Priority{rack.P1, rack.P2, rack.P3} {
		s += fmt.Sprintf("\n%s: aor=%x loss=%x", p, float64(res.AOR[p]), res.LossHoursPerYear[p])
	}
	return s
}

// TestCrashResumeEndurance interrupts a multi-year endurance run twice — one
// hard kill and one graceful interrupt, both landing between Table I failure
// events (some mid-recovery, with outage recharges still queued) — and
// requires the resumed run's result bit-identical to an uninterrupted run:
// same AOR per priority (and thus the same P1 ≥ P2 ≥ P3 redundancy
// ordering), zero breaker trips, same fault accounting.
func TestCrashResumeEndurance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year endurance runs")
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := scenario.EnduranceSpec{Years: 6, Seed: seed, Mode: dynamo.ModePriorityAware}
			base, err := scenario.RunEndurance(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := enduranceSummary(base)

			path := filepath.Join(t.TempDir(), "endurance.ckpt")
			horizon := time.Duration(spec.Years * float64(time.Hour) * 8766)
			r := rng.New(seed * 104729)
			killAt := time.Duration(float64(horizon) * (0.2 + 0.25*r.Float64()))

			kill := spec
			kill.Checkpoint = path
			kill.CheckpointEvery = 24 * time.Hour
			kill.HardStop = func(now time.Duration) bool { return now >= killAt }
			if _, err := scenario.RunEndurance(kill); !errors.Is(err, scenario.ErrAborted) {
				t.Fatalf("hard stop: err = %v, want ErrAborted", err)
			}

			polls := 0
			second := spec
			second.Checkpoint = path
			second.CheckpointEvery = 24 * time.Hour
			second.Resume = path
			second.Interrupt = func() bool { polls++; return polls > 3 }
			mid, err := scenario.RunEndurance(second)
			if err != nil {
				t.Fatal(err)
			}
			if !mid.Interrupted {
				t.Fatal("graceful interrupt did not mark the result")
			}

			final := spec
			final.Resume = path
			res, err := scenario.RunEndurance(final)
			if err != nil {
				t.Fatal(err)
			}
			if got := enduranceSummary(res); got != want {
				t.Errorf("endurance result diverged after kill-and-resume:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", got, want)
			}
			if len(res.Tripped) != 0 {
				t.Errorf("breakers tripped across resume: %v", res.Tripped)
			}
			if !(res.AOR[rack.P1] >= res.AOR[rack.P2] && res.AOR[rack.P2] >= res.AOR[rack.P3]) {
				t.Errorf("AOR not priority-ordered after resume: %v", res.AOR)
			}
		})
	}
}
