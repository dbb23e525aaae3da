package scenario

import (
	"math"
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
