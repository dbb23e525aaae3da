package dynamo

import (
	"math"
	"testing"
	"time"

	"coordcharge/internal/battery"
	"coordcharge/internal/bus"
	"coordcharge/internal/charger"
	"coordcharge/internal/core"
	"coordcharge/internal/faults"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/sim"
	"coordcharge/internal/units"
)

// findSeed scans for an injector seed whose Bernoulli draw sequence matches
// want. Tests that need a specific fault pattern (first command dropped,
// second delivered) search rather than hard-code a magic seed.
func findSeed(t *testing.T, cfg faults.Config, want func(*faults.Injector) bool) int64 {
	t.Helper()
	for s := int64(0); s < 4096; s++ {
		cfg.Seed = s
		if want(faults.New(cfg)) {
			return s
		}
	}
	t.Fatal("no seed with the required fault pattern in [0, 4096)")
	return 0
}

// tickSync steps the racks and ticks the controller on a fixed cadence.
func tickSync(ctl *Controller, racks []*rack.Rack, from, until, step time.Duration) {
	for now := from; now <= until; now += step {
		for _, r := range racks {
			r.Step(now, step)
		}
		ctl.Tick(now)
	}
}

// A lost override must be retransmitted after the confirmation timeout and
// succeed on the second attempt.
func TestSyncOverrideRetryAfterCommandLoss(t *testing.T) {
	lossy := faults.Config{CommandLoss: 0.5}
	seed := findSeed(t, lossy, func(in *faults.Injector) bool {
		return in.DropCommand() && !in.DropCommand()
	})
	lossy.Seed = seed
	rpp, racks := row(t, []rack.Priority{rack.P3}, charger.Variable{})
	agents := agentsFor(racks)
	agents[0].SetFaults(faults.New(lossy))
	ctl := NewControllerOpts(rpp, agents, ModePriorityAware, core.DefaultConfig(), true, ControllerOptions{
		Retry: RetryPolicy{Timeout: 5 * time.Second, Backoff: 1, MaxAttempts: 4},
	})
	transition(racks, 12600*units.Watt, 45*time.Second) // DOD 0.5: charger starts at 2 A, P3 SLA wants 1 A
	tickSync(ctl, racks, 46*time.Second, 60*time.Second, 3*time.Second)

	if got := racks[0].Pack().Setpoint(); got != 1 {
		t.Errorf("setpoint after retry = %v, want 1 A", got)
	}
	m := ctl.Metrics()
	if m.OverridesIssued != 1 || m.Retries != 1 || m.AbandonedOverrides != 0 {
		t.Errorf("metrics = %+v, want 1 override, 1 retry, 0 abandoned", m)
	}
}

// With the command path fully dead, the controller must stop retrying after
// MaxAttempts and record the abandonment.
func TestSyncOverrideAbandonedAfterMaxAttempts(t *testing.T) {
	rpp, racks := row(t, []rack.Priority{rack.P3}, charger.Variable{})
	agents := agentsFor(racks)
	agents[0].SetFaults(faults.New(faults.Config{Seed: 7, CommandLoss: 1}))
	ctl := NewControllerOpts(rpp, agents, ModePriorityAware, core.DefaultConfig(), true, ControllerOptions{
		Retry: RetryPolicy{Timeout: 5 * time.Second, Backoff: 1, MaxAttempts: 3},
	})
	transition(racks, 12600*units.Watt, 45*time.Second)
	tickSync(ctl, racks, 46*time.Second, 70*time.Second, 3*time.Second)

	if got := racks[0].Pack().Setpoint(); got != 2 {
		t.Errorf("setpoint = %v, want the charger's 2 A (no override ever landed)", got)
	}
	m := ctl.Metrics()
	if m.Retries != 2 || m.AbandonedOverrides != 1 {
		t.Errorf("metrics = %+v, want 2 retries then 1 abandonment", m)
	}
}

// When telemetry goes stale the controller must assume worst-case recharge:
// here that assumption overloads the breaker, so it throttles the invisible
// rack and caps servers for the remainder — over-protecting, never under.
func TestSyncStaleTelemetryProtectsConservatively(t *testing.T) {
	rpp, racks := row(t, []rack.Priority{rack.P3}, charger.Variable{})
	rpp.SetLimit(12700 * units.Watt)
	agents := agentsFor(racks)
	ctl := NewControllerOpts(rpp, agents, ModePriorityAware, core.DefaultConfig(), true, ControllerOptions{
		StaleAfter: 5 * time.Second,
	})
	transition(racks, 11000*units.Watt, 50*time.Second) // DOD ≈ 0.49
	// Healthy ticks: the plan lands and the breaker is comfortably inside its
	// limit (11 kW IT + at most 2 A · 380 W of recharge).
	tickSync(ctl, racks, 51*time.Second, 54*time.Second, 3*time.Second)
	if got := ctl.Metrics().MaxCapping; got != 0 {
		t.Fatalf("capping with fresh telemetry = %v, want none", got)
	}

	// Telemetry dies; commands still flow.
	agents[0].SetFaults(faults.New(faults.Config{Seed: 1, TelemetryLoss: 1}))
	tickSync(ctl, racks, 57*time.Second, 72*time.Second, 3*time.Second)

	m := ctl.Metrics()
	if m.StaleTelemetry == 0 {
		t.Error("stale telemetry never recorded")
	}
	if m.ThrottleEvents == 0 {
		t.Error("conservative overload never throttled the invisible rack")
	}
	if got := racks[0].Pack().Setpoint(); got != 1 {
		t.Errorf("setpoint = %v, want throttled to 1 A", got)
	}
	// Conservative view: 11000 W demand + 1900 W assumed recharge = 12900 W
	// against a 12700 W limit; the projected throttle recovery of a stale rack
	// must not count, so the whole 200 W excess is capped away.
	if got := racks[0].CappedPower(); math.Abs(float64(got)-200) > 1 {
		t.Errorf("capped power = %v, want ≈200 W", got)
	}
	if math.Abs(float64(m.MaxCapping)-200) > 1 {
		t.Errorf("MaxCapping = %v, want ≈200 W", m.MaxCapping)
	}
}

// A crash wipes controller state; the restart must rebuild charge tracking
// from agent reads instead of re-planning the in-flight charge.
func TestSyncControllerCrashRestartResyncsFromReads(t *testing.T) {
	rpp, racks := row(t, []rack.Priority{rack.P1}, charger.Variable{})
	ctl := NewController(rpp, agentsFor(racks), ModePriorityAware, core.DefaultConfig(), true)
	transition(racks, 9000*units.Watt, 45*time.Second) // DOD ≈ 0.357, P1 SLA wants 3 A
	tickSync(ctl, racks, 46*time.Second, 49*time.Second, 3*time.Second)
	if got := racks[0].Pack().Setpoint(); got != 3 {
		t.Fatalf("planned setpoint = %v, want 3 A", got)
	}

	ctl.Crash()
	if !ctl.Down() {
		t.Fatal("controller not down after Crash")
	}
	racks[0].Step(52*time.Second, 3*time.Second)
	ctl.Tick(52 * time.Second) // down: breaker physics only
	ctl.Restart(55 * time.Second)
	tickSync(ctl, racks, 55*time.Second, 70*time.Second, 3*time.Second)

	m := ctl.Metrics()
	if m.PlansComputed != 1 {
		t.Errorf("PlansComputed = %d, want 1 (restart must not re-plan an in-flight charge)", m.PlansComputed)
	}
	if m.Crashes != 1 || m.Restarts != 1 {
		t.Errorf("crash/restart counters = %d/%d, want 1/1", m.Crashes, m.Restarts)
	}
	if got := racks[0].Pack().Setpoint(); got != 3 {
		t.Errorf("setpoint after restart = %v, want 3 A preserved", got)
	}
}

// A postponed charge must survive a controller crash: the deficit lives in
// the rack (PendingDOD), so the restarted controller rediscovers it from
// reads and resumes it when headroom returns.
func TestSyncCrashRecoversPostponedChargeFromRacks(t *testing.T) {
	rpp, racks := row(t, []rack.Priority{rack.P1, rack.P3}, charger.Variable{})
	// 18 kW IT + 1.2 kW: enough for P1's floor and 3 A upgrade, not P3's floor.
	rpp.SetLimit(19200 * units.Watt)
	ctl := NewController(rpp, agentsFor(racks), ModePostpone, core.DefaultConfig(), true)
	transition(racks, 9000*units.Watt, 45*time.Second)
	tickSync(ctl, racks, 46*time.Second, 46*time.Second, 3*time.Second)
	if racks[1].Charging() {
		t.Fatal("P3 charge not postponed")
	}
	if racks[1].PendingDOD() <= 0 {
		t.Fatal("postponed rack records no pending DOD")
	}

	ctl.Crash()
	ctl.Restart(49 * time.Second)
	// Demand drops: headroom for the postponed charge returns.
	for _, r := range racks {
		r.SetDemand(7 * units.Kilowatt)
	}
	tickSync(ctl, racks, 52*time.Second, 58*time.Second, 3*time.Second)

	if !racks[1].Charging() {
		t.Error("postponed charge not resumed after crash+restart")
	}
	if got := racks[1].PendingDOD(); got != 0 {
		t.Errorf("PendingDOD after resume = %v, want 0", got)
	}
	if got := racks[0].Pack().Setpoint(); got != 3 {
		t.Errorf("P1 setpoint = %v, want 3 A preserved across the crash", got)
	}
}

// The rack-local watchdog is the last line of defense: with the command path
// completely dead (overrides and heartbeats all lost), every charging rack
// must degrade itself to the safe current within one TTL of the charge start.
func TestWatchdogFailSafeUnderTotalCommandLoss(t *testing.T) {
	cfg := core.DefaultConfig()
	rpp, racks := row(t, []rack.Priority{rack.P1, rack.P3}, charger.Variable{})
	h, err := BuildHierarchyOpts(rpp, ModePriorityAware, cfg, HierarchyOptions{
		Injector:    faults.New(faults.Config{Seed: 3, CommandLoss: 1}),
		WatchdogTTL: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	transition(racks, 9000*units.Watt, 45*time.Second)
	for now := 46 * time.Second; now <= 130*time.Second; now += 3 * time.Second {
		for _, r := range racks {
			r.Step(now, 3*time.Second)
		}
		h.Tick(now)
	}
	for i, r := range racks {
		if !r.FailSafeActive() {
			t.Errorf("rack %d: watchdog never fired", i)
		}
		if got := r.FailSafeActivations(); got != 1 {
			t.Errorf("rack %d: %d fail-safe activations, want 1", i, got)
		}
		if got := r.Pack().Setpoint(); got != cfg.SafeCurrent() {
			t.Errorf("rack %d: setpoint = %v, want safe current %v", i, got, cfg.SafeCurrent())
		}
	}
}

// With a healthy command path the heartbeats keep re-arming the watchdog and
// the planned (higher) charging current stays in force.
func TestWatchdogHeldOffByHeartbeats(t *testing.T) {
	rpp, racks := row(t, []rack.Priority{rack.P1}, charger.Variable{})
	h, err := BuildHierarchyOpts(rpp, ModePriorityAware, core.DefaultConfig(), HierarchyOptions{
		WatchdogTTL: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	transition(racks, 9000*units.Watt, 45*time.Second)
	for now := 46 * time.Second; now <= 130*time.Second; now += 3 * time.Second {
		racks[0].Step(now, 3*time.Second)
		h.Tick(now)
	}
	if racks[0].FailSafeActive() || racks[0].FailSafeActivations() != 0 {
		t.Error("watchdog fired despite per-tick heartbeats")
	}
	if got := racks[0].Pack().Setpoint(); got != 3 {
		t.Errorf("setpoint = %v, want the planned 3 A intact", got)
	}
}

// asyncFaultRow is asyncRow with degraded-mode options on the leaf.
func asyncFaultRow(t *testing.T, prios []rack.Priority, limit units.Power, opts AsyncOptions) (*sim.Engine, *bus.Bus, []*rack.Rack, *AsyncLeaf) {
	t.Helper()
	engine := sim.NewEngine()
	b := bus.New(engine, bus.ConstantLatency(10*time.Millisecond))
	rpp := power.NewNode("rpp", power.LevelRPP, limit)
	racks := make([]*rack.Rack, len(prios))
	for i, p := range prios {
		racks[i] = rack.New(rackName(i), p, charger.Variable{}, battery.Fig5Surface())
		rpp.AttachLoad(racks[i])
		NewAsyncAgent(b, engine, racks[i], 0)
	}
	leaf := NewAsyncLeafOpts(b, engine, rpp, racks, ModePriorityAware, core.DefaultConfig(), true, 3*time.Second, opts)
	return engine, b, racks, leaf
}

func rackName(i int) string { return "fr" + string(rune('0'+i)) }

// restoreAll runs the standard 45 s open transition on every rack and syncs
// the engine to the restore instant.
func restoreAll(engine *sim.Engine, racks []*rack.Rack, load units.Power) {
	for _, r := range racks {
		r.SetDemand(load)
		r.LoseInput(0)
		r.Step(45*time.Second, 45*time.Second)
		r.RestoreInput(45 * time.Second)
	}
	engine.ScheduleAt(45*time.Second, "sync", func(time.Duration) {})
	engine.Run(45 * time.Second)
}

// The async leaf owns override delivery: a dropped override message must be
// retransmitted once the confirmation timeout lapses.
func TestAsyncLeafRetriesLostOverride(t *testing.T) {
	engine, b, racks, leaf := asyncFaultRow(t, []rack.Priority{rack.P3}, power.DefaultRPPLimit, AsyncOptions{
		Retry: RetryPolicy{Timeout: 8 * time.Second, Backoff: 1, MaxAttempts: 4},
	})
	dropped := 0
	dropWhen(b, func(m *bus.Message) bool {
		if m.Kind == "override" && dropped == 0 {
			dropped++
			return true
		}
		return false
	})
	restoreAll(engine, racks, 9*units.Kilowatt) // DOD ≈ 0.357: plan wants 1 A over the charger's 2 A
	driveAsync(engine, racks, 46*time.Second, 70*time.Second, time.Second)

	if dropped != 1 {
		t.Fatalf("dropped %d overrides, want exactly the first", dropped)
	}
	if got := racks[0].Pack().Setpoint(); got != 1 {
		t.Errorf("setpoint = %v, want 1 A via retransmission", got)
	}
	if got := leaf.Metrics().Retries; got == 0 {
		t.Error("no retry recorded")
	}
}

// An at-least-once transport may deliver the same override several times; the
// charge trajectory must be identical to single delivery (idempotence).
func TestAsyncDuplicatedOverridesAreIdempotent(t *testing.T) {
	run := func(dup int) (*rack.Rack, Metrics) {
		engine, b, racks, leaf := asyncFaultRow(t, []rack.Priority{rack.P1}, power.DefaultRPPLimit, AsyncOptions{
			Retry: RetryPolicy{Timeout: 8 * time.Second, Backoff: 2, MaxAttempts: 4},
		})
		if dup > 0 {
			b.Perturb = func(_ time.Duration, m *bus.Message) (bool, time.Duration, int) {
				if m.Kind == "override" {
					return false, 0, dup
				}
				return false, 0, 0
			}
		}
		restoreAll(engine, racks, 9*units.Kilowatt)
		driveAsync(engine, racks, 46*time.Second, 600*time.Second, time.Second)
		return racks[0], leaf.Metrics()
	}
	clean, cleanM := run(0)
	duped, dupedM := run(2)

	if a, b := clean.Pack().Setpoint(), duped.Pack().Setpoint(); a != b {
		t.Errorf("setpoint diverged: single %v vs duplicated %v", a, b)
	}
	if a, b := clean.Pack().FractionRemaining(), duped.Pack().FractionRemaining(); math.Abs(float64(a-b)) > 1e-12 {
		t.Errorf("charge trajectory diverged: single %v vs duplicated %v remaining", a, b)
	}
	if cleanM.OverridesIssued != dupedM.OverridesIssued || cleanM.Retries != dupedM.Retries {
		t.Errorf("controller observables diverged: %+v vs %+v", cleanM, dupedM)
	}
}

// Persistent read loss to one agent must not stall the poll loop: the
// evaluation deadline fires, the invisible rack is assumed worst-case, and
// the resulting conservative overload is handled with throttle + caps.
func TestAsyncLeafEvaluatesDespitePersistentReadLoss(t *testing.T) {
	engine, b, racks, leaf := asyncFaultRow(t, []rack.Priority{rack.P1, rack.P3}, 20500*units.Watt, AsyncOptions{
		StaleAfter: 6 * time.Second,
	})
	restoreAll(engine, racks, 9*units.Kilowatt)
	driveAsync(engine, racks, 46*time.Second, 60*time.Second, time.Second)
	// Plan landed: P1 at 3 A, P3 at 1 A; 19.52 kW inside the 20.5 kW limit.
	if got := racks[0].Pack().Setpoint(); got != 3 {
		t.Fatalf("P1 setpoint = %v, want 3 A before faults", got)
	}

	// Rack fr1 becomes unreadable; commands still flow.
	lost := AgentEndpoint(racks[1].Name())
	dropWhen(b, func(m *bus.Message) bool { return m.Kind == "read" && m.To == lost })
	driveAsync(engine, racks, 61*time.Second, 90*time.Second, time.Second)

	m := leaf.Metrics()
	if m.StaleTelemetry == 0 {
		t.Error("stale telemetry never recorded — did the deadline evaluation run?")
	}
	if m.ThrottleEvents == 0 {
		t.Error("conservative overload never throttled")
	}
	// Assumed draw: 9000+1140 (P1 fresh) + 9000+1900 (P3 worst case) =
	// 21040 W against 20500 W; the unwitnessed throttle recovery must not
	// count, so ≈540 W of server power is capped.
	if got := racks[1].CappedPower(); math.Abs(float64(got)-540) > 1 {
		t.Errorf("capped power on stale rack = %v, want ≈540 W", got)
	}
}

// An upper controller whose leaf stops answering aggregates must keep
// evaluating at the deadline with that leaf's racks aged into conservatism.
func TestAsyncUpperDeadlineEvaluatesWithUnreachableLeaf(t *testing.T) {
	engine := sim.NewEngine()
	b := bus.New(engine, bus.ConstantLatency(10*time.Millisecond))
	msb := power.NewNode("msb", power.LevelMSB, 380*units.Kilowatt)
	cfg := core.DefaultConfig()
	var racks []*rack.Rack
	var leaves []*AsyncLeaf
	for i := 0; i < 2; i++ {
		rpp := power.NewNode("rppu"+string(rune('0'+i)), power.LevelRPP, power.DefaultRPPLimit)
		r := rack.New("fu"+string(rune('0'+i)), rack.P2, charger.Variable{}, battery.Fig5Surface())
		rpp.AttachLoad(r)
		NewAsyncAgent(b, engine, r, 0)
		leaves = append(leaves, NewAsyncLeaf(b, engine, rpp, []*rack.Rack{r}, ModePriorityAware, cfg, false, 3*time.Second))
		racks = append(racks, r)
	}
	upper := NewAsyncUpperOpts(b, engine, msb, leaves, ModePriorityAware, cfg, 3*time.Second, AsyncOptions{
		StaleAfter: 10 * time.Second,
	})
	restoreAll(engine, racks, 9*units.Kilowatt)
	driveAsync(engine, racks, 46*time.Second, 60*time.Second, time.Second)
	if got := upper.Metrics().PlansComputed; got != 1 {
		t.Fatalf("PlansComputed = %d, want 1 before faults", got)
	}

	silenced := LeafEndpoint("rppu1")
	dropWhen(b, func(m *bus.Message) bool { return m.Kind == "aggregate" && m.To == silenced })
	driveAsync(engine, racks, 61*time.Second, 100*time.Second, time.Second)

	if got := upper.Metrics().StaleTelemetry; got == 0 {
		t.Error("upper never aged the silent leaf's racks — deadline evaluation did not run")
	}
}

// Smoke: the full async stack under the chaos suite's default fault rates —
// bus perturbation, heartbeats, watchdog, retries — still completes the
// charge, and the injector demonstrably did inject.
func TestWireBusFaultsDefaultRatesSmoke(t *testing.T) {
	fcfg := faults.Default()
	fcfg.Seed = 42
	inj := faults.New(fcfg)
	engine, b, racks, leaf := asyncFaultRow(t, []rack.Priority{rack.P2}, power.DefaultRPPLimit, AsyncOptions{
		Injector:   inj,
		StaleAfter: 9 * time.Second,
		Retry:      RetryPolicy{Timeout: 10 * time.Second, Backoff: 2, MaxAttempts: 4},
		Heartbeat:  true,
	})
	WireBusFaults(b, inj)
	racks[0].SetWatchdog(60*time.Second, core.DefaultConfig().SafeCurrent())
	restoreAll(engine, racks, 9*units.Kilowatt)
	driveAsync(engine, racks, 48*time.Second, 90*time.Minute, 3*time.Second)

	if racks[0].Charging() {
		t.Error("charge never completed under default fault rates")
	}
	c := inj.Counters()
	if c.ReadsDropped == 0 || c.CommandsDropped == 0 {
		t.Errorf("injector idle: %+v", c)
	}
	if leaf.Metrics().PlansComputed == 0 {
		t.Error("no plan ever computed")
	}
}

// The fail-safe must cover every charge while the partition lasts, not just
// the first: after the watchdog fires once under total command loss, a second
// open transition starts a new charge, which must begin at the safe current
// immediately instead of getting another run at the policy current.
func TestWatchdogFailSafeCoversSubsequentCharges(t *testing.T) {
	cfg := core.DefaultConfig()
	rpp, racks := row(t, []rack.Priority{rack.P2}, charger.Original{})
	h, err := BuildHierarchyOpts(rpp, ModePriorityAware, cfg, HierarchyOptions{
		Injector:    faults.New(faults.Config{Seed: 3, CommandLoss: 1}),
		WatchdogTTL: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tick := func(from, until time.Duration) {
		for now := from; now <= until; now += 3 * time.Second {
			for _, r := range racks {
				r.Step(now, 3*time.Second)
			}
			h.Tick(now)
		}
	}
	transition(racks, 9000*units.Watt, 45*time.Second)
	tick(46*time.Second, 90*time.Second)
	if !racks[0].FailSafeActive() || racks[0].Pack().Setpoint() != cfg.SafeCurrent() {
		t.Fatalf("charge 1 not demoted: setpoint = %v", racks[0].Pack().Setpoint())
	}

	racks[0].LoseInput(100 * time.Second)
	racks[0].Step(145*time.Second, 45*time.Second)
	racks[0].RestoreInput(145 * time.Second)
	if got := racks[0].Pack().Setpoint(); got != cfg.SafeCurrent() {
		t.Errorf("charge 2 setpoint = %v, want safe %v from the start", got, cfg.SafeCurrent())
	}
	tick(148*time.Second, 200*time.Second)
	if got := racks[0].Pack().Setpoint(); got != cfg.SafeCurrent() {
		t.Errorf("charge 2 setpoint after ticks = %v, want safe %v", got, cfg.SafeCurrent())
	}
	if !racks[0].FailSafeActive() {
		t.Error("fail-safe did not persist across charges")
	}
	if got := racks[0].FailSafeActivations(); got != 2 {
		t.Errorf("activations = %d, want 2 (one per demoted charge)", got)
	}
}

// Heartbeats now ride the same command-settling latency as overrides; they
// must still hold off the watchdog as long as the TTL exceeds the latency
// plus the tick period.
func TestWatchdogHeldOffByDelayedHeartbeats(t *testing.T) {
	engine := sim.NewEngine()
	rpp, racks := row(t, []rack.Priority{rack.P1}, charger.Variable{})
	h, err := BuildHierarchyOpts(rpp, ModePriorityAware, core.DefaultConfig(), HierarchyOptions{
		Engine:      engine,
		Latency:     20 * time.Second,
		WatchdogTTL: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	transition(racks, 9000*units.Watt, 45*time.Second)
	for now := 46 * time.Second; now <= 200*time.Second; now += 3 * time.Second {
		racks[0].Step(now, 3*time.Second)
		h.Tick(now)
		engine.Run(now)
	}
	if racks[0].FailSafeActive() || racks[0].FailSafeActivations() != 0 {
		t.Error("watchdog fired despite delayed heartbeats")
	}
	if got := racks[0].Pack().Setpoint(); got != 3 {
		t.Errorf("setpoint = %v, want the planned 3 A intact", got)
	}
}

// A fresh faulted read goes through the agent's (time, version) cache, so
// controllers that read one faulted agent in one tick share one build: each
// must still see exactly what a fresh snapshot of the rack gives, including
// a change another controller made between their reads. An injected stale
// read still returns the earlier snapshot with its own Taken.
func TestFaultedReadsShareTheAgentSnapshot(t *testing.T) {
	r := rack.New("fs0", rack.P2, charger.Variable{}, battery.Fig5Surface())
	r.SetDemand(6 * units.Kilowatt)
	r.LoseInput(0)
	r.Step(45*time.Second, 45*time.Second)
	r.RestoreInput(45 * time.Second)
	// Only command faults: every read is fresh, but the read path still
	// runs through the injector.
	a := NewAgent(r, nil, 0)
	a.SetFaults(faults.New(faults.Config{Seed: 1, CommandDup: 0.5}))
	node := power.NewNode("rpp", power.LevelRPP, 100*units.Kilowatt)
	node.AttachLoad(r)
	c1 := NewController(node, []*Agent{a}, ModePriorityAware, core.DefaultConfig(), false)
	c2 := NewController(node, []*Agent{a}, ModePriorityAware, core.DefaultConfig(), false)

	now := 48 * time.Second
	r.Step(now, 3*time.Second)
	c1.sample(now)
	c2.sample(now)
	want := snapshotRack(r, now)
	if c1.tel[0] != want || c2.tel[0] != want {
		t.Fatalf("shared read differs from a fresh build:\n  c1   %+v\n  c2   %+v\n  want %+v", c1.tel[0], c2.tel[0], want)
	}
	if !a.haveLast || a.lastVer != r.Version() || a.last.Taken != now {
		t.Fatal("a fresh faulted read left the agent's (time, version) cache unset")
	}
	// A change between the two reads of one tick invalidates the cache.
	r.OverrideCurrent(2 * units.Ampere)
	c2.sample(now)
	if want := snapshotRack(r, now); c2.tel[0] != want {
		t.Fatalf("read after an override kept the old build:\n  got  %+v\n  want %+v", c2.tel[0], want)
	}

	stale := NewAgent(r, nil, 0)
	stale.SetFaults(faults.New(faults.Config{Seed: 1, TelemetryStale: 1}))
	s, ok := stale.read(now)
	if !ok || s.Taken != now {
		t.Fatalf("first read = %+v, %t; want a fresh snapshot at %v", s, ok, now)
	}
	first := *s
	later := now + 3*time.Second
	r.Step(later, 3*time.Second)
	s, ok = stale.read(later)
	if !ok || *s != first {
		t.Fatalf("stale read = %+v, %t; want the earlier snapshot %+v", s, ok, first)
	}
}
