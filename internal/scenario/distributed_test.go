package scenario

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"coordcharge/internal/charger"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/rack"
)

// The distributed (message-passing) control plane reproduces the synchronous
// plane's outcomes on the same experiment: same SLA counts within the slack
// that polling latency introduces, and the same zero-capping protection.
func TestDistributedPlaneMatchesSynchronous(t *testing.T) {
	if testing.Short() {
		t.Skip("full charging-period simulation")
	}
	base := smallSpec(dynamo.ModePriorityAware, charger.Variable{}, 225, 0.5)
	sync, err := RunCoordinated(base)
	if err != nil {
		t.Fatal(err)
	}
	dist := base
	dist.Distributed = true
	async, err := RunCoordinated(dist)
	if err != nil {
		t.Fatal(err)
	}
	if async.Metrics.MaxCapping != 0 || sync.Metrics.MaxCapping != 0 {
		t.Errorf("capping: sync %v, distributed %v, want both 0",
			sync.Metrics.MaxCapping, async.Metrics.MaxCapping)
	}
	for _, p := range []rack.Priority{rack.P1, rack.P2, rack.P3} {
		d := sync.SLAMet[p] - async.SLAMet[p]
		if d < -1 || d > 1 {
			t.Errorf("%v SLAs: sync %d vs distributed %d", p, sync.SLAMet[p], async.SLAMet[p])
		}
	}
	if async.Metrics.PlansComputed != 1 {
		t.Errorf("distributed plans = %d, want 1", async.Metrics.PlansComputed)
	}
	if len(async.Tripped) != 0 {
		t.Errorf("distributed plane tripped breakers: %v", async.Tripped)
	}
}

// Without coordination neither plane touches a charger: chargers follow
// their local policy and the only protection is server capping, which comes
// out the same on both planes.
func TestDistributedModeNoneOnlyCaps(t *testing.T) {
	if testing.Short() {
		t.Skip("full charging-period simulation")
	}
	base := smallSpec(dynamo.ModeNone, charger.Variable{}, 205, 0.7)
	sync, err := RunCoordinated(base)
	if err != nil {
		t.Fatal(err)
	}
	dist := base
	dist.Distributed = true
	async, err := RunCoordinated(dist)
	if err != nil {
		t.Fatal(err)
	}
	for _, plane := range []struct {
		name string
		m    dynamo.Metrics
	}{{"sync", sync.Metrics}, {"distributed", async.Metrics}} {
		if plane.m.OverridesIssued != 0 || plane.m.ThrottleEvents != 0 {
			t.Errorf("%s plane: %d overrides, %d throttle events, want none", plane.name, plane.m.OverridesIssued, plane.m.ThrottleEvents)
		}
	}
	if sync.Metrics.MaxCapping <= 0 {
		t.Fatalf("sync plane never capped; the arm does not exercise capping")
	}
	if d := math.Abs(float64(async.Metrics.MaxCapping-sync.Metrics.MaxCapping)) / float64(sync.Metrics.MaxCapping); d > 0.05 {
		t.Errorf("max capping: distributed %v, sync %v (%.1f%% apart, want within 5%%)",
			async.Metrics.MaxCapping, sync.Metrics.MaxCapping, 100*d)
	}
}

// Command settling on the distributed plane delays override effect without
// breaking protection.
func TestDistributedWithSettleLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("full charging-period simulation")
	}
	spec := smallSpec(dynamo.ModePriorityAware, charger.Variable{}, 100000, 0.4)
	spec.Distributed = true
	spec.CommandLatency = 20 * time.Second
	spec.NetworkLatency = 50 * time.Millisecond
	res, err := RunCoordinated(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MaxCapping != 0 {
		t.Errorf("capping = %v with unconstrained power", res.Metrics.MaxCapping)
	}
	total := 0
	for _, n := range res.SLAMet {
		total += n
	}
	if total < 20 {
		t.Errorf("SLAs met = %d/30", total)
	}
}

// The message plane's pre-roll — every poller run from time zero to the
// window start — polls HardStop with the window start before each virtual
// minute, so a deadline aborts a distributed set-up: ErrAborted, no
// checkpoint written, and only as many slices run as HardStop allowed.
func TestDistributedPreRollAborts(t *testing.T) {
	spec := smallSpec(dynamo.ModePriorityAware, charger.Variable{}, 225, 0.5)
	spec.Distributed = true
	spec.Checkpoint = filepath.Join(t.TempDir(), "run.ckpt")
	var polls []time.Duration
	spec.HardStop = func(now time.Duration) bool {
		polls = append(polls, now)
		return len(polls) == 3
	}
	if _, err := RunCoordinated(spec); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if _, err := os.Stat(spec.Checkpoint); !os.IsNotExist(err) {
		t.Errorf("an aborted set-up left a checkpoint: %v", err)
	}
	if len(polls) != 3 || polls[0] != polls[2] || polls[0] < time.Hour {
		t.Fatalf("HardStop polled at %v, want the window start three times", polls)
	}
	// Unaborted, the pre-roll polls once a virtual minute and the window's
	// first tick polls with the same window start: a kill offset measured
	// from the first poll still counts from the window start.
	polls = polls[:0]
	spec.HardStop = func(now time.Duration) bool {
		polls = append(polls, now)
		return len(polls) > 1 && now > polls[0]
	}
	if _, err := RunCoordinated(spec); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted at the second window tick", err)
	}
	start := polls[0]
	if minutes := int((start + time.Minute - 1) / time.Minute); len(polls) != minutes+2 {
		t.Errorf("%d polls over a %v pre-roll, want one per started minute (%d) plus two ticks", len(polls), start, minutes)
	}
	if polls[len(polls)-2] != start || polls[len(polls)-1] <= start {
		t.Errorf("window ticks polled at %v, want %v then the next tick", polls[len(polls)-2:], start)
	}
	// A resume runs the same pre-roll before it replays to its cursor, and
	// polls it alike: a HardStop that fires at once stops it at the window
	// start, not at the checkpointed tick.
	spec.CheckpointEvery = time.Minute
	spec.HardStop = func(now time.Duration) bool { return now >= start+3*time.Minute }
	if _, err := RunCoordinated(spec); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted at +3m", err)
	}
	polls = polls[:0]
	spec.Resume = spec.Checkpoint
	spec.HardStop = func(now time.Duration) bool {
		polls = append(polls, now)
		return true
	}
	if _, err := RunCoordinated(spec); !errors.Is(err, ErrAborted) {
		t.Fatalf("resume: err = %v, want ErrAborted", err)
	}
	if len(polls) != 1 || polls[0] != start {
		t.Errorf("resume polled HardStop at %v, want once at the window start %v", polls, start)
	}
}
