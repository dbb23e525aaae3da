// Package dynamo implements the coordinated control plane of the paper's
// §IV-B: a power monitoring and control system modelled on Facebook's
// Dynamo, extended with battery-charging coordination.
//
//   - An Agent runs on each rack's TOR switch: it reads rack power and BBU
//     recharge power and applies manual charging-current overrides (with the
//     ~20 s command-settling latency the prototype measured in Fig 11).
//   - A Controller protects one circuit breaker. The leaf controller (RPP)
//     detects charging sequences beginning under it and computes the initial
//     plan; every controller monitors its breaker for the entire charging
//     period and, on overload, first throttles battery charging in
//     lowest-priority-highest-discharge-first order and only then falls back
//     to priority-aware server power capping.
//   - A Hierarchy assembles one controller per breaker, mirroring the power
//     tree, and ticks them bottom-up.
//
// The control plane is hardened against a degraded network and crashing
// components (see internal/faults): telemetry reads are timestamped and
// stale or missing data is handled conservatively (the affected rack is
// assumed to draw worst-case recharge power), charging-current overrides are
// confirmed against subsequent telemetry and retransmitted with exponential
// backoff, controllers crash and restart reconstructing their state from
// agent reads, and racks run a local fail-safe watchdog that reverts to the
// safe low-current charging policy when controller contact is lost (see
// rack.SetWatchdog).
package dynamo

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"coordcharge/internal/core"
	"coordcharge/internal/faults"
	"coordcharge/internal/grid"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/sim"
	"coordcharge/internal/storm"
	"coordcharge/internal/units"
)

// Mode selects the charging-coordination policy a controller runs.
type Mode int

// Coordination modes.
const (
	// ModeNone performs no charging coordination: chargers act locally
	// (original or variable policy) and the controller only power-caps
	// servers on overload — the paper's two baseline hardware deployments.
	ModeNone Mode = iota
	// ModeGlobal runs the evaluation's baseline algorithm: all racks charge
	// at the same uniform rate chosen from available power, priority-blind.
	ModeGlobal
	// ModePriorityAware runs Algorithm 1 plus reverse-order throttling.
	ModePriorityAware
	// ModePostpone is ModePriorityAware with the future-work extension:
	// charges that do not fit are postponed entirely and restarted when
	// headroom returns.
	ModePostpone
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeGlobal:
		return "global"
	case ModePriorityAware:
		return "priority-aware"
	case ModePostpone:
		return "postpone"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode is the inverse of Mode.String, shared by every CLI flag and
// request field that names a mode. The empty string selects
// ModePriorityAware, the paper's algorithm.
func ParseMode(s string) (Mode, error) {
	if s == "" {
		return ModePriorityAware, nil
	}
	for m := ModeNone; m <= ModePostpone; m++ {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("dynamo: unknown mode %q (want none, global, priority-aware, or postpone)", s)
}

// Agent is the per-rack request handler on the TOR switch. It performs no
// actions on its own (paper §IV-B): controllers issue reads and overrides
// through it. With a fault injector attached, the agent models the failure
// modes of the real read/override path: lost and stale reads, dropped,
// delayed, and duplicated commands, and whole-agent crashes.
type Agent struct {
	rack    *rack.Rack
	engine  *sim.Engine
	latency time.Duration

	inj      *faults.Injector
	sched    *faults.Component // the agent's crash schedule, resolved by SetFaults
	last     Snapshot
	lastVer  uint64 // rack.Version() when last was taken (fault-free path)
	haveLast bool

	// Built once when an engine is attached: the labels of deferred command
	// events, and the rack's contact hook as the heartbeat event's target.
	overrideLabel, heartbeatLabel string
	contact                       sim.Handler
}

// NewAgent wraps a rack. engine may be nil when latency is zero; a non-zero
// latency requires an engine to schedule the deferred application.
func NewAgent(r *rack.Rack, engine *sim.Engine, latency time.Duration) *Agent {
	if latency > 0 && engine == nil {
		panic(fmt.Errorf("dynamo: agent for %s has latency %v but no engine", r.Name(), latency))
	}
	a := &Agent{rack: r, engine: engine, latency: latency}
	if engine != nil { // only an engine can defer a command
		a.overrideLabel, a.heartbeatLabel = "override:"+r.Name(), "heartbeat:"+r.Name()
		a.contact = r.ControllerContact
	}
	return a
}

// SetFaults attaches a fault injector to the agent's read/override path.
func (a *Agent) SetFaults(inj *faults.Injector) {
	a.inj, a.sched = inj, nil
	if inj != nil {
		a.sched = inj.Component(AgentEndpoint(a.rack.Name()))
	}
}

// Rack returns the underlying rack.
func (a *Agent) Rack() *rack.Rack { return a.rack }

// ReadPower returns the rack's total input power.
func (a *Agent) ReadPower() units.Power { return a.rack.Power() }

// ReadRecharge returns the BBU recharge component.
func (a *Agent) ReadRecharge() units.Power { return a.rack.RechargePower() }

// Latency returns the agent's command-settling delay.
func (a *Agent) Latency() time.Duration { return a.latency }

// snapshotRack builds a timestamped telemetry snapshot of a rack.
func snapshotRack(r *rack.Rack, now time.Duration) Snapshot {
	return Snapshot{
		Taken:       now,
		Name:        r.Name(),
		Priority:    r.Priority(),
		Demand:      r.Demand(),
		ITLoad:      r.ITLoad(),
		Recharge:    r.RechargePower(),
		DOD:         r.LastDOD(),
		PendingDOD:  r.PendingDOD(),
		Charging:    r.Charging(),
		InputUp:     r.InputUp(),
		Setpoint:    r.Pack().Setpoint(),
		ChargeStart: r.ChargeStart(),
	}
}

// Sample reads the rack's telemetry at virtual time now. It reports false
// when the read fails (lost reply or crashed agent); an injected stale read
// returns the previous snapshot with its original timestamp, which the
// controller detects by comparing Taken against its staleness bound.
func (a *Agent) Sample(now time.Duration) (Snapshot, bool) {
	if a.inj != nil {
		if !a.sched.Up(now) || a.inj.DropRead() {
			return Snapshot{}, false
		}
		if a.haveLast && a.inj.StaleRead() {
			return a.last, true
		}
		s := snapshotRack(a.rack, now)
		a.last, a.haveLast = s, true
		return s, true
	}
	a.refresh(now)
	return a.last, true
}

// refresh rebuilds the agent's cached snapshot unless it already reflects the
// rack's state at this exact (time, version) pair. The cache is shared by
// every controller sampling through this agent, so a rack snapshotted by the
// RPP controller is a copy — not a rebuild — for the SB and MSB controllers
// on the same tick. Fault-free path only: with an injector attached, Sample
// keeps the historical per-call read semantics (and RNG draw order).
func (a *Agent) refresh(now time.Duration) {
	v := a.rack.Version()
	if a.haveLast && a.lastVer == v && a.last.Taken == now {
		return
	}
	a.last = snapshotRack(a.rack, now)
	a.lastVer, a.haveLast = v, true
}

// Override issues a charging-current override at virtual time now; the new
// setpoint takes effect after the command-settling latency (Fig 11 measures
// ~20 s in production). It reports whether the command entered the delivery
// path — false means it was dropped immediately (crashed agent or injected
// command loss); true is NOT a delivery guarantee once latency or injected
// delay is involved, which is why controllers confirm overrides against
// telemetry and retransmit. A delivered override counts as controller
// contact for the rack's fail-safe watchdog.
func (a *Agent) Override(now time.Duration, i units.Current) bool {
	var extra time.Duration
	dup := false
	if a.inj != nil {
		if !a.sched.Up(now) || a.inj.DropCommand() {
			return false
		}
		if a.engine != nil {
			extra = a.inj.CommandDelay()
		}
		dup = a.inj.DupCommand()
	}
	apply := sim.Handler(func(at time.Duration) {
		a.rack.ControllerContact(at)
		a.rack.OverrideCurrent(i)
	})
	delay := a.latency + extra
	if delay <= 0 || a.engine == nil {
		apply(now)
		if dup {
			apply(now)
		}
		return true
	}
	a.post(extra, a.overrideLabel, apply)
	if dup {
		a.post(extra, a.overrideLabel, apply)
	}
	return true
}

// post queues a deferred command after the settling latency plus an
// injected extra delay. The latency recurs and takes an engine lane; a
// delay with an injected extra is one-off and goes to the engine's heap.
func (a *Agent) post(extra time.Duration, label string, t sim.Target) {
	if extra == 0 {
		a.engine.PostAfter(a.latency, label, t)
		return
	}
	a.engine.Post(a.engine.Now()+a.latency+extra, label, t)
}

// Heartbeat delivers a controller-contact keepalive to the rack, feeding its
// fail-safe watchdog. It rides the same lossy command path as overrides —
// subject to the command-settling latency and injected delay — and reports
// whether it entered the delivery path.
func (a *Agent) Heartbeat(now time.Duration) bool {
	var extra time.Duration
	if a.inj != nil {
		if !a.sched.Up(now) || a.inj.DropCommand() {
			return false
		}
		if a.engine != nil {
			extra = a.inj.CommandDelay()
		}
	}
	delay := a.latency + extra
	if delay <= 0 || a.engine == nil {
		a.rack.ControllerContact(now)
		return true
	}
	a.post(extra, a.heartbeatLabel, a.contact)
	return true
}

// RetryPolicy bounds the controller's override retransmission: an override
// unconfirmed by telemetry after Timeout is retransmitted with the timeout
// growing by Backoff per attempt, up to MaxAttempts total sends.
type RetryPolicy struct {
	// Timeout is the initial confirmation timeout. Zero disables retries.
	// It must exceed the agents' command-settling latency, or unsettled
	// commands will be retransmitted spuriously (harmless — overrides are
	// idempotent — but wasteful).
	Timeout time.Duration
	// Backoff multiplies the timeout after each attempt (values below 1
	// are treated as the default 2).
	Backoff float64
	// MaxAttempts caps total sends including the first (values below 1 are
	// treated as the default 4).
	MaxAttempts int
}

// DefaultRetryPolicy is sized for the prototype's ~20 s command settling: a
// 30 s initial timeout doubling across 4 total attempts.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Timeout: 30 * time.Second, Backoff: 2, MaxAttempts: 4}
}

func (p RetryPolicy) enabled() bool { return p.Timeout > 0 }

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 4
	}
	return p.MaxAttempts
}

// attemptTimeout returns the confirmation timeout for the given attempt
// number (1-based): Timeout · Backoff^(attempt−1).
func (p RetryPolicy) attemptTimeout(attempt int) time.Duration {
	b := p.Backoff
	if b < 1 {
		b = 2
	}
	d := float64(p.Timeout)
	for i := 1; i < attempt; i++ {
		d *= b
	}
	return time.Duration(d)
}

// Metrics accumulates a controller's protective actions.
type Metrics struct {
	// MaxCapping is the largest instantaneous server power reduction the
	// controller had to apply (the Table III metric).
	MaxCapping units.Power
	// MaxCappingFraction is MaxCapping over the IT load at that instant.
	MaxCappingFraction units.Fraction
	// CappedEnergy integrates capped power over time.
	CappedEnergy units.Energy
	// OverridesIssued counts charging-current override commands (first
	// sends; retransmissions count under Retries).
	OverridesIssued int
	// ThrottleEvents counts ticks on which battery throttling was applied.
	ThrottleEvents int
	// PlansComputed counts charging sequences planned.
	PlansComputed int
	// Retries counts override retransmissions after confirmation timeouts.
	Retries int
	// AbandonedOverrides counts overrides given up after MaxAttempts.
	AbandonedOverrides int
	// StaleTelemetry counts rack evaluations that fell back to the
	// conservative worst-case-recharge assumption because telemetry was
	// missing or stale.
	StaleTelemetry int
	// Crashes and Restarts count controller fault transitions.
	Crashes, Restarts int
}

// Merge folds o into m: counters and capped energy sum, and the capping
// maximum (with its fraction) takes the larger of the two.
func (m *Metrics) Merge(o Metrics) {
	if o.MaxCapping > m.MaxCapping {
		m.MaxCapping = o.MaxCapping
		m.MaxCappingFraction = o.MaxCappingFraction
	}
	m.CappedEnergy += o.CappedEnergy
	m.OverridesIssued += o.OverridesIssued
	m.ThrottleEvents += o.ThrottleEvents
	m.PlansComputed += o.PlansComputed
	m.Retries += o.Retries
	m.AbandonedOverrides += o.AbandonedOverrides
	m.StaleTelemetry += o.StaleTelemetry
	m.Crashes += o.Crashes
	m.Restarts += o.Restarts
}

// ControllerOptions carries the degraded-mode knobs of a controller.
type ControllerOptions struct {
	// Engine schedules retry timeouts and (through the agents) command
	// settling on virtual time. With a nil engine, retries are checked on
	// the controller's own tick cadence instead.
	Engine *sim.Engine
	// Injector, when set, drives the controller's crash schedule (component
	// "controller/<node>"); agents carry their own injector reference.
	Injector *faults.Injector
	// StaleAfter is the telemetry freshness bound: a snapshot older than
	// this is treated conservatively. Zero means telemetry never goes
	// stale (the pre-fault behaviour).
	StaleAfter time.Duration
	// Retry is the override retransmission policy; the zero value disables
	// retries.
	Retry RetryPolicy
	// Heartbeat emits a per-tick controller-contact keepalive to every
	// agent, feeding the racks' fail-safe watchdogs.
	Heartbeat bool
	// Storm arms recharge-storm admission control on a planning controller:
	// a correlated batch of charging starts is paused into a queue and
	// re-admitted in priority-aware waves under measured headroom instead of
	// being planned (and floored) all at once. Ignored on non-planning
	// controllers.
	Storm *storm.Config
	// Grid attaches the grid signal plane to a planning controller: planning
	// and admission budgets derive from the effective feed limit (the
	// minimum of the breaker limit and the interconnection cap) instead of
	// the breaker rating, and fresh charge starts defer into the admission
	// queue while the grid policy says price/carbon is over threshold.
	Grid *grid.Policy
	// Obs attaches an observability sink: protective actions are counted
	// under dynamo.* metrics and every control decision is journaled to the
	// flight recorder. Nil disables instrumentation at zero cost.
	Obs *obs.Sink
}

// obsHandles caches a controller's metric handles so hot paths never take
// the registry lock. The zero value (nil sink, nil handles) no-ops
// everywhere: instrumentation costs nothing when no sink is attached.
type obsHandles struct {
	sink                                    *obs.Sink
	cPlans, cOverrides, cRetries, cAbandons *obs.Counter
	cConfirms, cThrottles, cStale           *obs.Counter
	cCrashes, cRestarts                     *obs.Counter
	hConfirm                                *obs.Histogram
	gHeadroom                               *obs.Gauge
}

// newObsHandles resolves the dynamo.* metric handles against a sink; a nil
// sink yields the no-op zero value. Counters are shared across controllers
// (they aggregate fleet-wide); the headroom gauge is per-breaker.
func newObsHandles(s *obs.Sink, nodeName string) obsHandles {
	if s == nil {
		return obsHandles{}
	}
	return obsHandles{
		sink:       s,
		cPlans:     s.Counter("dynamo.plans"),
		cOverrides: s.Counter("dynamo.overrides"),
		cRetries:   s.Counter("dynamo.override_retries"),
		cAbandons:  s.Counter("dynamo.override_abandons"),
		cConfirms:  s.Counter("dynamo.override_confirms"),
		cThrottles: s.Counter("dynamo.throttle_events"),
		cStale:     s.Counter("dynamo.stale_telemetry"),
		cCrashes:   s.Counter("dynamo.crashes"),
		cRestarts:  s.Counter("dynamo.restarts"),
		hConfirm:   s.Histogram("dynamo.override_confirm_s", 0),
		gHeadroom:  s.Gauge("headroom_w." + nodeName),
	}
}

// Controller protects one circuit breaker (paper §IV-B). Construct with
// NewController or NewControllerOpts.
type Controller struct {
	decider
	agents []*Agent
	plans  bool

	wasCharging []bool // last observed Charging bit, index-aligned with agents
	postponed   map[*rack.Rack]core.RackInfo
	lastTick    time.Duration
	byName      map[string]int // rack name → agent index

	engine    *sim.Engine
	heartbeat bool
	tracker   overrideTracker // overrides by agent index

	// tel holds the last known telemetry per agent (index-aligned); telOK
	// marks entries that have been read at least once since (re)start, and
	// telOKCount tracks how many are set so the all-fresh fast path in views
	// is a single compare. telVer records the rack version each fault-free
	// entry was taken at, so re-sampling an unchanged rack skips the copy.
	tel        []Snapshot
	telOK      []bool
	telOKCount int
	telVer     []uint64
	viewBuf    []Snapshot

	// mutated records whether this tick's planning/admission phase touched
	// any rack; anyInj (recomputed by each sample) whether any agent carries
	// a fault injector. Together they decide whether the intra-tick
	// re-sample can be skipped: with no mutations and no injectors it is a
	// pure no-op, but injected reads draw randomness per call and must keep
	// their historical draw order.
	mutated bool
	anyInj  bool

	// lastFresh and telSummaried gate the planning tick's telemetry summary:
	// one is journalled only when something changed (a mutation, a freshness
	// change, or the first tick after construction or restart).
	lastFresh    int
	telSummaried bool
}

// NewController builds a controller protecting node, managing the racks
// under it through agents. Planning controllers (plans=true) compute initial
// charging plans for sequences starting under them; the others only monitor
// and protect. In production the leaf controller plans for its RPP; the
// paper's MSB-level simulation plans at the MSB, where the power constraint
// lives, so the hierarchy marks its root as the planner.
func NewController(node *power.Node, agents []*Agent, mode Mode, cfg core.Config, plans bool) *Controller {
	return NewControllerOpts(node, agents, mode, cfg, plans, ControllerOptions{})
}

// NewControllerOpts is NewController with degraded-mode options.
func NewControllerOpts(node *power.Node, agents []*Agent, mode Mode, cfg core.Config, plans bool, opts ControllerOptions) *Controller {
	c := &Controller{
		agents:      agents,
		plans:       plans,
		wasCharging: make([]bool, len(agents)),
		postponed:   make(map[*rack.Rack]core.RackInfo),
		byName:      make(map[string]int, len(agents)),
		engine:      opts.Engine,
		heartbeat:   opts.Heartbeat,
		tel:         make([]Snapshot, len(agents)),
		telOK:       make([]bool, len(agents)),
		telVer:      make([]uint64, len(agents)),
		viewBuf:     make([]Snapshot, len(agents)),
		lastFresh:   -1,
	}
	c.decider = newDecider(c, "controller/"+node.Name(), node, mode, cfg, opts.StaleAfter, opts.Injector, opts.Obs)
	c.tracker = newOverrideTracker(&c.decider, c, opts.Retry, opts.Engine, "retry:", len(agents))
	for i, a := range agents {
		c.byName[a.Rack().Name()] = i
	}
	if opts.Storm != nil && plans {
		c.armStorm(*opts.Storm, opts.Obs)
	}
	if opts.Grid != nil && plans {
		c.grid = opts.Grid
	}
	return c
}

// Node returns the protected breaker.
func (c *Controller) Node() *power.Node { return c.node }

// Mutated reports whether the last completed Tick's planning, admission, or
// protection phase touched any rack. The event kernel reads it as the
// quiescence signal: a tick that mutated nothing and left no pending work
// behind would be a verbatim no-op if repeated on unchanged inputs.
func (c *Controller) Mutated() bool { return c.mutated }

// PendingCount returns the number of issued overrides still awaiting
// confirmation or retry.
func (c *Controller) PendingCount() int { return len(c.tracker.pending) }

// PostponedCount returns the number of charges deferred by ModePostpone.
func (c *Controller) PostponedCount() int { return len(c.postponed) }

// SyncClock moves the controller's tick clock to now without running a tick.
// A time-skipping caller sets it to the previous tick instant before
// re-entering the dense loop, so the next Tick computes the same dt a
// never-skipped controller would.
func (c *Controller) SyncClock(now time.Duration) { c.lastTick = now }

// Crash takes the controller down, losing all in-memory state — exactly what
// a process crash does. While down, ticks only advance the breaker's trip
// physics. With a fault injector attached, crashes also happen on the
// injector's schedule.
func (c *Controller) Crash() {
	if !c.down {
		// Crash has no virtual-time argument; the last tick's timestamp is
		// the closest deterministic stand-in.
		c.crash(c.lastTick)
	}
}

// Restart brings a crashed controller back at virtual time now,
// reconstructing its working state from agent reads.
func (c *Controller) Restart(now time.Duration) {
	if c.down {
		c.restart(now)
	}
}

// forget drops the in-memory state a crash loses and journals the crash.
func (c *Controller) forget(at time.Duration) {
	c.sink.Event(at, c.comp, "crash")
	for i := range c.wasCharging {
		c.wasCharging[i] = false
	}
	c.postponed = make(map[*rack.Rack]core.RackInfo)
	for i := range c.telOK {
		c.telOK[i] = false
	}
	c.telOKCount = 0
	c.tracker.reset()
	// The next surviving tick must journal a fresh telemetry summary: the
	// restarted process has no memory of what it last reported.
	c.telSummaried = false
	c.lastFresh = -1
}

// resync reconstructs the controller's state from agent reads: racks
// observed charging are marked as known sequences (so an in-flight charge is
// not spuriously re-planned), and postponed charges are recovered from the
// racks' own pending-DOD bookkeeping. Racks whose reads fail stay unknown
// and resynchronise on a later tick.
func (c *Controller) resync(now time.Duration) {
	c.sample(now)
	for i, a := range c.agents {
		if !c.telOK[i] {
			continue
		}
		s := &c.tel[i]
		c.wasCharging[i] = s.Charging
		switch {
		case c.stormQ != nil && s.PendingDOD > 0:
			c.stormQ.Enqueue(now, storm.Request{Name: s.Name, Priority: s.Priority, DOD: s.PendingDOD, Since: s.ChargeStart})
		case c.mode == ModePostpone && s.PendingDOD > 0:
			c.postponed[a.Rack()] = core.RackInfo{ID: i, Name: s.Name, Priority: s.Priority, DOD: s.PendingDOD}
		}
	}
}

// Tick runs one monitoring cycle at virtual time now. Call it once per
// simulation step, after racks have advanced.
func (c *Controller) Tick(now time.Duration) {
	dt := now - c.lastTick
	c.lastTick = now
	if !c.live(now) {
		// The breaker's trip physics continue regardless of the
		// controller's health.
		c.node.Observe(now)
		return
	}
	c.sample(now)
	c.mutated = false
	if c.plans && c.mode.coordinates() {
		c.detectChargingStart(now)
	}
	c.admitStorm(now)
	c.restartPostponed()
	c.tracker.expire(now)
	// Re-sample so protection sees the effect of instantly-settling
	// overrides issued above, exactly as the pre-fault controller's live
	// reads did. When nothing was issued and every read is fault-free the
	// re-sample is a verbatim no-op, so it is skipped.
	if c.mutated || c.anyInj {
		c.sample(now)
	}
	c.protect(now, dt)
	if c.heartbeat {
		for _, a := range c.agents {
			a.Heartbeat(now)
		}
	}
	if c.sink != nil {
		c.gHeadroom.Set(float64(c.node.Headroom()))
		if c.plans {
			// One telemetry summary per planning tick that changed something
			// (per-rack — or per-quiescent-tick — events would flood the
			// flight recorder at fleet scale). The gate is what lets the event
			// kernel skip quiescent ticks without losing digest parity: a tick
			// that mutated nothing and saw no freshness change journals
			// nothing, so not running it at all is observationally identical.
			fresh := 0
			for i := range c.agents {
				if c.usable(i, now) {
					fresh++
				}
			}
			if c.mutated || fresh != c.lastFresh || !c.telSummaried {
				c.lastFresh = fresh
				c.telSummaried = true
				c.sink.Event(now, c.comp, "telemetry",
					"fresh", strconv.Itoa(fresh),
					"stale", strconv.Itoa(len(c.agents)-fresh),
					"headroom_w", strconv.FormatFloat(float64(c.node.Headroom()), 'f', 0, 64))
			}
		}
	}
	c.node.Observe(now)
}

// sample refreshes the telemetry cache from every readable agent. On the
// fault-free path it copies straight from the agent's version-cached
// snapshot and skips even the copy when the cached entry already reflects
// the rack's state at this exact time and version — which makes the second
// sample of a tick nearly free for every rack the controller did not touch.
func (c *Controller) sample(now time.Duration) {
	anyInj := false
	for i, a := range c.agents {
		if a.inj == nil {
			v := a.rack.Version()
			if c.telOK[i] && c.telVer[i] == v && c.tel[i].Taken == now {
				continue
			}
			a.refresh(now)
			c.tel[i] = a.last
			c.telVer[i] = v
			if !c.telOK[i] {
				c.telOK[i] = true
				c.telOKCount++
			}
			continue
		}
		anyInj = true
		if s, ok := a.Sample(now); ok {
			c.tel[i] = s
			if !c.telOK[i] {
				c.telOK[i] = true
				c.telOKCount++
			}
		}
	}
	c.anyInj = anyInj
}

// usable reports whether agent i's cached telemetry is usable as-is: read
// since the (re)start and within the staleness bound.
func (c *Controller) usable(i int, now time.Duration) bool {
	return c.telOK[i] && c.fresh(c.tel[i].Taken, now)
}

// views returns the controller's working snapshot of every rack: fresh
// telemetry as-is, stale telemetry rewritten by assumeWorst on top of the
// rack's last known server load — or the full rack rating when no read has
// completed since the (re)start.
// The returned slice is read-only and valid until the next sample or views
// call: when every entry is fresh it aliases the telemetry cache itself.
func (c *Controller) views(now time.Duration) []Snapshot {
	if c.staleAfter <= 0 && c.telOKCount == len(c.agents) {
		// No freshness bound and every rack has been read: the working view
		// IS the telemetry cache — no per-rack copying.
		return c.tel
	}
	for i := range c.agents {
		c.viewBuf[i] = c.tel[i]
		if c.usable(i, now) {
			continue
		}
		s := &c.viewBuf[i]
		if !c.telOK[i] {
			r := c.agents[i].Rack()
			s.Name = r.Name()
			s.Priority = r.Priority()
			s.Demand = rack.MaxITLoad
			s.ITLoad = rack.MaxITLoad
		}
		c.assumeWorst(s)
	}
	return c.viewBuf
}

// deliver, readback and rackName carry the override tracker's commands over
// the agents' read/override path.
func (c *Controller) deliver(now time.Duration, i int, want units.Current) bool {
	c.mutated = true
	return c.agents[i].Override(now, want)
}

func (c *Controller) readback(i int) (Snapshot, time.Duration, bool) {
	return c.tel[i], c.agents[i].Latency(), c.telOK[i]
}

func (c *Controller) rackName(i int) string { return c.agents[i].Rack().Name() }

// detectChargingStart finds racks whose batteries began recharging since the
// last tick — judged from fresh telemetry only — and plans and applies their
// charging currents using the breaker's available power, or pauses them into
// the admission queue.
func (c *Controller) detectChargingStart(now time.Duration) {
	var starts []core.RackInfo
	for i := range c.agents {
		if !c.usable(i, now) {
			continue
		}
		s := &c.tel[i]
		if s.Charging && !c.wasCharging[i] {
			starts = append(starts, core.RackInfo{ID: i, Name: s.Name, Priority: s.Priority, DOD: s.DOD})
		}
		c.wasCharging[i] = s.Charging
	}
	if len(starts) == 0 {
		return
	}
	if c.pauseStarts(now, len(starts)) {
		// Pause rides the direct server-management path, like capping, so
		// the correlated spike ends within this tick.
		c.mutated = true
		for _, ri := range starts {
			r := c.agents[ri.ID].Rack()
			r.Postpone()
			c.wasCharging[ri.ID] = false
			// A re-outage of an already-queued rack supersedes its stale
			// entry with the fresh DOD.
			c.stormQ.Remove(ri.Name)
			c.stormQ.Enqueue(now, storm.Request{Name: ri.Name, Priority: ri.Priority, DOD: r.PendingDOD(), Since: r.ChargeStart()})
		}
		return
	}
	// Available power for recharge: the effective feed limit's headroom over
	// the IT load (recharge power excluded — the plan decides it).
	available := c.effLimit(now) - c.itLoad(c.views(now))
	for _, asg := range c.plan(now, available, starts) {
		if asg.DOD <= 0 {
			continue
		}
		if asg.Postponed {
			// Stop the charge entirely; the rack records the deficit so a
			// restarted controller can rediscover it.
			c.mutated = true
			r := c.agents[asg.ID].Rack()
			r.Postpone()
			c.postponed[r] = asg.RackInfo
			c.wasCharging[asg.ID] = false
			continue
		}
		c.tracker.issue(now, asg.ID, asg.Current)
	}
}

// restartPostponed resumes postponed charges, highest priority and lowest
// DOD first, while headroom allows their floor power (§IV-A future work,
// ModePostpone only).
func (c *Controller) restartPostponed() {
	if c.mode != ModePostpone || len(c.postponed) == 0 {
		return
	}
	floor := units.Power(float64(c.cfg.Surface.MinCurrent()) * c.cfg.WattsPerAmp)
	var waiting []core.RackInfo
	byID := make(map[int]*rack.Rack)
	for r, ri := range c.postponed {
		waiting = append(waiting, ri)
		byID[ri.ID] = r
	}
	sort.Slice(waiting, func(i, j int) bool {
		a, b := waiting[i], waiting[j]
		if a.Priority != b.Priority {
			return a.Priority < b.Priority
		}
		if a.DOD != b.DOD {
			return a.DOD < b.DOD
		}
		return a.ID < b.ID
	})
	headroom := c.node.Headroom()
	for _, ri := range waiting {
		if headroom < floor {
			break
		}
		r := byID[ri.ID]
		want, _ := c.cfg.SLACurrent(ri.Priority, ri.DOD)
		grant := c.cfg.Surface.MinCurrent()
		wantPower := units.Power(float64(want) * c.cfg.WattsPerAmp)
		if wantPower <= headroom {
			grant = want
		}
		r.ResumeCharge(grant)
		c.mutated = true
		headroom -= units.Power(float64(grant) * c.cfg.WattsPerAmp)
		c.wasCharging[ri.ID] = true
		c.countOverride()
		if c.sink != nil {
			c.sink.Event(c.lastTick, c.comp, "resume",
				"rack", ri.Name, "amps", strconv.Itoa(int(grant)))
		}
		delete(c.postponed, r)
	}
}

// StormQueue returns the controller's storm admission queue, nil when storm
// admission is not armed (guards attach to it; tests and scenarios read its
// metrics).
func (c *Controller) StormQueue() *storm.Queue { return c.stormQ }

// admitStorm grants the next admission wave from the storm queue under the
// breaker's live headroom. Admission grants ride the direct
// server-management path, like capping and postponed-charge restarts, and
// count as controller contact for the racks' watchdogs.
func (c *Controller) admitStorm(now time.Duration) {
	if !c.admitting(now) {
		return
	}
	for _, g := range c.admit(now, c.node.Power()) {
		idx, ok := c.byName[g.Name]
		if !ok {
			continue
		}
		r := c.agents[idx].Rack()
		r.ControllerContact(now)
		r.ResumeCharge(g.Current)
		c.mutated = true
		c.wasCharging[idx] = true
		c.countOverride()
	}
}

// protect handles an instantaneous overload: battery throttling as the first
// line of defense (coordinating modes), then priority-aware server capping
// as the last resort. When the breaker is not overloaded, caps are released.
// Capping rides Dynamo's server-management path, not the TOR agent's charger
// command path, so caps apply directly even when the agent link is faulty.
func (c *Controller) protect(now, dt time.Duration) {
	views := c.views(now)
	excess := c.excess(now, views)
	if excess <= 0 {
		c.releaseCaps()
		return
	}
	switch c.mode {
	case ModePriorityAware, ModePostpone:
		excess -= c.throttleBatteries(now, views, excess)
	case ModeGlobal:
		excess -= c.lowerGlobalRate(now, views)
	}
	if excess < 0 {
		excess = 0
	}
	source := c.node.Name()
	applied, _ := c.capServers(views, excess, func(i int, level units.Power) bool {
		c.agents[i].Rack().Cap(source, level)
		return true
	}, func(i int) {
		if views[i].InputUp {
			c.agents[i].Rack().Uncap(source)
		}
	})
	c.noteCapping(now, applied, c.itLoad(views)+applied, dt)
}

// throttleBatteries sets charging currents to the minimum in reverse order
// until the projected recovery covers excess; it returns the projected
// recovered power.
func (c *Controller) throttleBatteries(now time.Duration, views []Snapshot, excess units.Power) units.Power {
	var recovered units.Power
	min := c.cfg.Surface.MinCurrent()
	for _, id := range c.throttle(now, views, excess) {
		delivered := c.tracker.issue(now, id, min)
		// Only instantly-settling, actually-delivered overrides against
		// fresh telemetry count against this tick's excess: a command still
		// in its settling window (or lost, or aimed at a rack whose
		// setpoint is only assumed) has not recovered anything yet, and
		// Dynamo caps on the overload it measures now (releasing the caps
		// once the throttle lands).
		if delivered && c.agents[id].Latency() <= 0 && c.usable(id, now) {
			recovered += c.recovery(&views[id])
		}
	}
	return recovered
}

// lowerGlobalRate recomputes the uniform rate from present available power
// and applies it to every charging rack (the global baseline's only
// overload response short of capping). It returns the projected recovery.
func (c *Controller) lowerGlobalRate(now time.Duration, views []Snapshot) units.Power {
	var charging []core.RackInfo
	var before units.Power
	for i := range views {
		if s := &views[i]; s.InputUp && s.Charging {
			charging = append(charging, core.RackInfo{ID: i, Name: s.Name, Priority: s.Priority, DOD: s.DOD})
			before += s.Recharge
		}
	}
	if len(charging) == 0 {
		return 0
	}
	available := c.effLimit(now) - c.itLoad(views)
	plan := core.PlanGlobal(available, charging, c.cfg)
	var after units.Power
	for _, asg := range plan {
		c.tracker.issue(now, asg.ID, asg.Current)
		after += asg.RechargePower(c.cfg.WattsPerAmp)
	}
	c.metrics.ThrottleEvents++
	c.cThrottles.Inc()
	if c.sink != nil {
		c.sink.Event(now, c.comp, "throttle",
			"sheds", strconv.Itoa(len(plan)),
			"mode", "global")
	}
	if after >= before {
		return 0
	}
	return before - after
}

// releaseCaps removes this controller's server power caps (headroom has
// returned); caps from other controllers are untouched.
func (c *Controller) releaseCaps() {
	for _, a := range c.agents {
		a.Rack().Uncap(c.node.Name())
	}
}
