// Package scenario builds and runs the paper's experiments: the MSB-level
// coordinated-charging simulation (§V-B, Figs 12–15 and Table III), the
// production case studies and prototype replays (Figs 2, 7, 10, 11), and the
// charger- and reliability-level figure generators (Figs 3–6, 9, Tables I
// and II). Each experiment returns report tables/charts so cmd/ binaries and
// benchmarks share one implementation.
package scenario

import (
	"errors"
	"fmt"
	"time"

	"coordcharge/internal/battery"
	"coordcharge/internal/bus"
	"coordcharge/internal/charger"
	"coordcharge/internal/core"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/faults"
	"coordcharge/internal/grid"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/sim"
	"coordcharge/internal/storm"
	"coordcharge/internal/trace"
	"coordcharge/internal/units"
)

// CoordSpec parameterises one MSB-level coordinated-charging run: the
// paper's §V-B1 setup of a production rack-power trace replayed at 3-second
// granularity with an open transition injected at the first trace peak.
type CoordSpec struct {
	// NumP1, NumP2, NumP3 give the rack priority distribution. The paper's
	// evaluation MSB has 89 P1, 142 P2, and 85 P3 racks.
	NumP1, NumP2, NumP3 int
	// Seed drives trace synthesis (and nothing else: the control plane is
	// deterministic).
	Seed int64
	// MSBLimit is the MSB breaker limit; the evaluation sweeps it (actual:
	// 2.5 MW).
	MSBLimit units.Power
	// Mode is the coordination policy.
	Mode dynamo.Mode
	// LocalPolicy is the rack-local charger (defaults to the variable
	// charger; the original-charger baseline uses charger.Original).
	LocalPolicy charger.Policy
	// AvgDOD is the target average depth of discharge; the open-transition
	// length is derived from it (low 0.3, medium 0.5, high 0.7 in §V-B1).
	AvgDOD units.Fraction
	// Step is the simulation tick (default 3 s, the trace granularity).
	Step time.Duration
	// Kernel selects the tick-loop implementation: KernelEvent (the default,
	// also "") advances analytically between state-change events,
	// bit-identical to dense; KernelDense runs every tick. A spec the event
	// kernel cannot prove bounds for runs dense, and the result's
	// KernelFallback names why. The choice never affects results, so it is
	// excluded from the checkpoint fingerprint — either kernel resumes the
	// other's checkpoints.
	Kernel string
	// PreRoll is how long before the transition the run starts (default 2 min).
	PreRoll time.Duration
	// MaxChargeDuration caps the post-restore horizon (default 4 h).
	MaxChargeDuration time.Duration
	// SampleEvery is the output series sampling interval (default 30 s).
	SampleEvery time.Duration
	// CommandLatency delays override application (default 0; the prototype
	// measured ~20 s, Fig 11).
	CommandLatency time.Duration
	// RelaxLowerLevels lifts SB/RPP limits out of the way, matching the
	// paper's assumption that "all lower-level circuit breakers have enough
	// available power to charge the batteries". Default true.
	RelaxLowerLevels *bool
	// Trace overrides the synthetic generator with an external per-rack
	// power trace (e.g. a production trace imported through trace.ReadCSV).
	// Its rack count must equal NumP1+NumP2+NumP3.
	Trace trace.Source
	// Distributed runs the experiment on the message-passing control plane
	// (agents, leaf controllers, and an MSB controller exchanging messages
	// over a simulated network with NetworkLatency one-way delay) instead of
	// the synchronous controllers. CommandLatency becomes the agents'
	// command-settling time.
	Distributed bool
	// NetworkLatency is the distributed plane's one-way message delay
	// (default 10 ms).
	NetworkLatency time.Duration
	// Faults configures control-plane fault injection (lossy telemetry and
	// commands, crashing agents and controllers); the zero value disables it.
	// On the distributed plane the injector additionally perturbs the message
	// bus itself.
	Faults faults.Config
	// StaleAfter is the controllers' telemetry freshness bound; snapshots
	// older than this are handled conservatively (worst-case recharge). Zero
	// means telemetry never goes stale.
	StaleAfter time.Duration
	// Retry is the controllers' override retransmission policy; the zero
	// value disables retries.
	Retry dynamo.RetryPolicy
	// WatchdogTTL, when positive, arms every rack's local fail-safe watchdog
	// and has controllers emit heartbeats to feed it.
	WatchdogTTL time.Duration
	// OutageLen fixes the grid event's duration directly (a site-wide outage
	// of this length) instead of deriving the open-transition length from
	// AvgDOD. Racks ride through it on their batteries either way; OutageLen
	// is how storm experiments say "90 seconds of utility loss at peak".
	OutageLen time.Duration
	// Storm arms recharge-storm admission control at the planning controller:
	// a correlated burst of charging starts is paused into a queue and
	// re-admitted in priority-aware waves under measured breaker headroom.
	Storm *storm.Config
	// Guard arms a last-line breaker guard on every node: sustained overdraw
	// approaching the TripRule window sheds charging current (demote → pause,
	// reverse priority), capping servers only as a final resort. Guards act
	// through the server-management plane and keep running while controllers
	// are crashed.
	Guard *storm.GuardConfig
	// TripRule overrides every breaker's protection curve (default: the
	// power package's 30%-over-for-30s rule). Storm experiments tighten it
	// to make the trip hazard reachable at realistic rack loads.
	TripRule *power.TripRule
	// Grid attaches the grid signal plane: an interconnection-cap /
	// price / carbon schedule with droop, demand-response, and cap-shrink
	// events. The planning controller budgets against the effective feed
	// limit (min of breaker limit and cap), charge admission defers into
	// the storm queue while price/carbon is over threshold, and eligible
	// racks discharge deliberately to shave grid peaks. Arming Grid
	// auto-arms Storm with defaults when Storm is nil — grid deferral
	// needs the admission queue.
	Grid *grid.Spec
	// Obs attaches an observability sink to the whole run: controllers,
	// guards, admission queue, rack watchdogs, and the fault injector count
	// into its registry and journal to its flight recorder, and the run
	// updates fleet gauges (msb.*, charge.*) every executed tick. Nil
	// disables instrumentation.
	Obs *obs.Sink
	// Checkpoint, when non-empty, writes a crash-safe checkpoint of the run
	// to this path (atomically: temp file + fsync + rename) every
	// CheckpointEvery of virtual time, so a killed process can resume
	// bit-exactly with Resume.
	Checkpoint string
	// CheckpointEvery is the virtual-time interval between checkpoint
	// writes. Defaults to 5 minutes when Checkpoint is set.
	CheckpointEvery time.Duration
	// Resume, when non-empty, continues the run from this checkpoint file
	// instead of starting fresh: the run replays up to the checkpoint's
	// cursor and verifies the replay against it. The spec must describe the
	// same experiment the checkpoint was written from (verified by
	// fingerprint); to get a byte-identical flight digest the caller must
	// supply a fresh Obs sink.
	Resume string
	// Interrupt, when non-nil, is polled before every tick; returning true
	// stops the run gracefully — a final checkpoint is written (when
	// Checkpoint is set) and the partial result returns with Interrupted
	// set. coordsim wires SIGTERM to this.
	Interrupt func() bool
	// HardStop, when non-nil, is polled with the virtual time of every tick
	// before it runs, the event kernel's skipped ticks included (a resume's
	// replay never polls it); returning true aborts the run abruptly — no
	// final checkpoint, ErrAborted returned — simulating a SIGKILL for the
	// kill-and-resume chaos harness. An engine-backed run, fresh or resumed,
	// also polls it with the window start before each virtual minute of its
	// pre-roll, so a request deadline can cut a long set-up short. coordd's
	// resident run publishes its progress and paces itself from these polls;
	// tests observe the run mid-flight through them.
	HardStop func(now time.Duration) bool
}

func (s *CoordSpec) fillDefaults() error {
	if s.NumP1+s.NumP2+s.NumP3 <= 0 {
		return fmt.Errorf("scenario: no racks in spec")
	}
	if s.NumP1 < 0 || s.NumP2 < 0 || s.NumP3 < 0 {
		return fmt.Errorf("scenario: negative rack count")
	}
	if s.MSBLimit == 0 {
		s.MSBLimit = power.DefaultMSBLimit
	}
	if s.MSBLimit < 0 {
		return fmt.Errorf("scenario: negative MSB limit")
	}
	if s.LocalPolicy == nil {
		s.LocalPolicy = charger.Variable{}
	}
	if s.OutageLen < 0 {
		return fmt.Errorf("scenario: negative OutageLen")
	}
	if s.OutageLen == 0 && (s.AvgDOD <= 0 || s.AvgDOD > 1) {
		return fmt.Errorf("scenario: AvgDOD %v out of (0, 1]", s.AvgDOD)
	}
	if s.AvgDOD < 0 || s.AvgDOD > 1 {
		return fmt.Errorf("scenario: AvgDOD %v out of [0, 1]", s.AvgDOD)
	}
	if s.Step == 0 {
		s.Step = 3 * time.Second
	}
	if s.Step <= 0 {
		return fmt.Errorf("scenario: non-positive step")
	}
	switch s.Kernel {
	case "":
		s.Kernel = KernelEvent
	case KernelDense, KernelEvent:
	default:
		return fmt.Errorf("scenario: unknown kernel %q (want %q or %q)", s.Kernel, KernelDense, KernelEvent)
	}
	if s.PreRoll == 0 {
		s.PreRoll = 2 * time.Minute
	}
	if s.MaxChargeDuration == 0 {
		s.MaxChargeDuration = 4 * time.Hour
	}
	if s.SampleEvery == 0 {
		s.SampleEvery = 30 * time.Second
	}
	if s.RelaxLowerLevels == nil {
		t := true
		s.RelaxLowerLevels = &t
	}
	if err := s.Faults.Validate(); err != nil {
		return err
	}
	if s.StaleAfter < 0 || s.WatchdogTTL < 0 {
		return fmt.Errorf("scenario: negative StaleAfter or WatchdogTTL")
	}
	if s.CheckpointEvery < 0 {
		return fmt.Errorf("scenario: negative CheckpointEvery")
	}
	if s.CheckpointEvery > 0 && s.Checkpoint == "" {
		return fmt.Errorf("scenario: CheckpointEvery set without Checkpoint")
	}
	if s.Checkpoint != "" && s.CheckpointEvery == 0 {
		s.CheckpointEvery = 5 * time.Minute
	}
	if s.Grid != nil {
		if err := s.Grid.Validate(); err != nil {
			return err
		}
		if s.Storm == nil {
			// Grid deferral and shave-recovery pacing route through storm
			// admission; arm it with defaults when the caller didn't.
			def := storm.Default()
			s.Storm = &def
		}
	}
	return nil
}

// Sample is one point of the run's power time series.
type Sample struct {
	// T is the time relative to the open transition (negative = before).
	T time.Duration
	// Total is the MSB draw; IT and Recharge are its components.
	Total, IT, Recharge units.Power
	// Capped is the server power being capped away at this instant.
	Capped units.Power
	// Shaved is IT load being served from batteries instead of the grid by
	// the grid policy's peak shaving (zero unless Grid is armed).
	Shaved units.Power
	// GridCap is the interconnection cap in force at this instant (zero
	// when Grid is off or the spec sets no cap).
	GridCap units.Power
}

// CoordResult is the outcome of one coordinated run.
type CoordResult struct {
	Spec CoordSpec
	// TransitionLength is the injected open-transition duration.
	TransitionLength time.Duration
	// Samples is the MSB power time series (the Fig 13 data).
	Samples []Sample
	// PeakPower is the maximum MSB draw after the transition.
	PeakPower units.Power
	// Metrics aggregates control-plane actions; MaxCapping is Table III.
	Metrics dynamo.Metrics
	// SLAMet counts racks whose measured charge completed within their
	// priority's deadline; Racks counts the population (Figs 14/15).
	SLAMet, Racks map[rack.Priority]int
	// AvgDOD is the realised average depth of discharge.
	AvgDOD units.Fraction
	// ChargeDurations collects the realized charge duration of every rack
	// that completed, grouped by priority (analytics input).
	ChargeDurations map[rack.Priority][]time.Duration
	// DODs collects every rack's realized depth of discharge (fractions).
	DODs []float64
	// LastChargeDone is when the final rack finished, relative to the
	// transition; zero if charges were still running at the horizon.
	LastChargeDone time.Duration
	// Tripped lists breakers that tripped (empty in every paper scenario —
	// Dynamo protects them).
	Tripped []string
	// FaultCounters reports what the fault injector did (zero when fault
	// injection is disabled).
	FaultCounters faults.Counters
	// FailSafeActivations counts rack watchdog firings across the run.
	FailSafeActivations int
	// UnservedEnergy is IT energy the batteries could not carry during the
	// grid event (nonzero only when a pack ran to full depth of discharge).
	UnservedEnergy units.Energy
	// LoadDropEvents counts racks that dropped their IT load mid-outage.
	LoadDropEvents int
	// Storm reports admission-control activity (zero unless Spec.Storm).
	Storm storm.Metrics
	// Guard reports breaker-guard activity (zero unless Spec.Guard).
	Guard storm.GuardMetrics
	// Grid reports grid-policy activity and the run's grid-facing
	// integrals — energy drawn, cost, carbon, shave accounting, and the
	// interconnection-cap violation score (zero unless Spec.Grid).
	Grid grid.Metrics
	// Interrupted marks a run stopped early by Spec.Interrupt: the fields
	// above are partial, and a final checkpoint (when configured) holds the
	// state to resume from.
	Interrupted bool
	// KernelTicksExecuted and KernelTicksSkipped report the event kernel's
	// tick accounting: how many grid ticks ran the full dense body and how
	// many were skipped under the analytic bounds. Both are zero when the run
	// took the dense loop, so a nonzero sum is how to tell the event kernel
	// ran.
	KernelTicksExecuted, KernelTicksSkipped uint64
	// KernelFallback names the spec feature that sent an event-kernel run to
	// the dense loop (e.g. "fault injection", "watchdog"). It is empty when
	// the event kernel ran and when the spec asked for KernelDense. Summary
	// leaves it out: the kernel never changes a result.
	KernelFallback string
}

// ErrAborted is returned by RunCoordinated when Spec.HardStop fires: the run
// stopped in its pre-roll or mid-tick-loop without writing a final
// checkpoint, exactly as a killed process would.
var ErrAborted = errors.New("scenario: run aborted")

// RunCoordinated executes one MSB-level experiment. With Spec.Resume set it
// restores a checkpointed run and continues it bit-exactly instead of
// starting fresh.
func RunCoordinated(spec CoordSpec) (*CoordResult, error) {
	if err := spec.fillDefaults(); err != nil {
		return nil, err
	}
	cr, err := newCoordRun(spec)
	if err != nil {
		return nil, err
	}
	if spec.Resume != "" {
		if err := cr.restore(spec.Resume); err != nil {
			return nil, err
		}
	}
	return cr.run()
}

// coordRun is one coordinated run's full live state: the fleet and control
// plane built from the spec, the schedule, the tick loop's working buffers,
// and the in-progress result. Splitting construction (newCoordRun), the tick
// body (tick), and the result tail (finish) out of one function is what lets
// a resume rebuild the run from its spec, replay the ticks up to the
// checkpoint, and continue the loop from there.
type coordRun struct {
	spec CoordSpec
	n    int
	gen  trace.Source

	racks  []*rack.Rack
	msb    *power.Node
	engine *sim.Engine
	inj    *faults.Injector
	cfg    core.Config

	hier        *dynamo.Hierarchy
	asyncLeaves []*dynamo.AsyncLeaf
	asyncUpper  *dynamo.AsyncUpper
	guards      []*storm.Guard // async plane only; the Hierarchy owns its own
	gridPol     *grid.Policy   // nil unless Spec.Grid

	// scope is the breaker the transient de-energizes at loseAt and
	// re-energizes at restoreAt.
	scope                             *power.Node
	transLen                          time.Duration
	start, loseAt, restoreAt, horizon time.Duration
	deadlines                         map[rack.Priority]time.Duration

	res    *CoordResult
	gauges *runGauges

	nodes          []*power.Node
	trippedSeen    []bool
	outstanding    []bool
	numOutstanding int

	demand               []units.Power
	blockStart, blockEnd time.Duration
	lastSample           time.Duration

	outageFired, restoreFired bool

	// cursor is the virtual time of the next tick to execute; a restore
	// moves it to the checkpoint's resume point. nextCkpt is the next
	// checkpoint-write time.
	cursor   time.Duration
	nextCkpt time.Duration

	// kern is the event-driven kernel, non-nil only when the spec selects
	// it and kernelFallback finds no reason to refuse; run() asks it whether
	// each tick may be skipped.
	kern *eventKernel
}

// traceSource builds the run's per-rack demand source: the spec's external
// trace when one is set, otherwise the scaled synthetic generator.
func traceSource(spec *CoordSpec, n int) (trace.Source, error) {
	if spec.Trace != nil {
		if spec.Trace.NumRacks() != n {
			return nil, fmt.Errorf("scenario: trace has %d racks, spec needs %d", spec.Trace.NumRacks(), n)
		}
		return spec.Trace, nil
	}
	// The Fig 12 envelope (1.9-2.1 MW) describes the 316-rack production
	// MSB; smaller test populations scale it proportionally so per-rack
	// loads stay realistic.
	scale := float64(n) / 316
	g, err := trace.NewGenerator(trace.Spec{
		NumRacks:    n,
		Seed:        spec.Seed,
		TroughPower: units.Power(1.9e6 * scale),
		PeakPower:   units.Power(2.1e6 * scale),
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// newCoordRun builds the paper's §V-B1 run: an MSB open transition at the
// first trace peak.
func newCoordRun(spec CoordSpec) (*coordRun, error) {
	return newCoordRunAt(spec, placeAtPeak)
}

// placeAtPeak opens the MSB at the first trace peak, where available power
// is most constrained (§V-B1).
func placeAtPeak(cr *coordRun) (*power.Node, time.Duration) {
	return cr.msb, trace.FirstPeak(cr.gen, 24*time.Hour, time.Minute)
}

// rackPriority returns the priority of rack i in a fleet of numP1 P1 racks,
// then numP2 P2 racks, then P3 racks.
func rackPriority(i, numP1, numP2 int) rack.Priority {
	switch {
	case i < numP1:
		return rack.P1
	case i < numP1+numP2:
		return rack.P2
	default:
		return rack.P3
	}
}

// newCoordRunAt builds the fleet, power hierarchy, and control plane from the
// spec (which must have defaults filled), asks place which breaker the run's
// one transient de-energizes and when, and computes the schedule around it.
func newCoordRunAt(spec CoordSpec, place func(*coordRun) (scope *power.Node, at time.Duration)) (*coordRun, error) {
	n := spec.NumP1 + spec.NumP2 + spec.NumP3
	gen, err := traceSource(&spec, n)
	if err != nil {
		return nil, err
	}
	surface := battery.Fig5Surface()
	racks := make([]*rack.Rack, n)
	loads := make([]power.Load, n)
	for i := range racks {
		racks[i] = rack.New(fmt.Sprintf("rack%03d", i), rackPriority(i, spec.NumP1, spec.NumP2), spec.LocalPolicy, surface)
		loads[i] = racks[i]
	}
	msb, err := power.Build(power.Spec{Name: "msb", MSBLimit: spec.MSBLimit}, loads)
	if err != nil {
		return nil, err
	}
	if *spec.RelaxLowerLevels {
		msb.Walk(func(nd *power.Node) {
			if nd != msb {
				nd.SetLimit(100 * units.Megawatt)
			}
		})
	}
	if spec.TripRule != nil {
		msb.Walk(func(nd *power.Node) { nd.SetTripRule(*spec.TripRule) })
	}
	var nodes []*power.Node
	msb.Walk(func(nd *power.Node) { nodes = append(nodes, nd) })
	var engine *sim.Engine
	if spec.CommandLatency > 0 || spec.Distributed {
		engine = sim.NewEngine()
	}
	var inj *faults.Injector
	if spec.Faults.Enabled() {
		inj = faults.New(spec.Faults)
		if spec.Obs != nil {
			inj.SetObs(spec.Obs)
		}
	}
	cfg := core.DefaultConfig()
	var gridPol *grid.Policy
	if spec.Grid != nil {
		gridPol, err = grid.NewPolicy(spec.Grid)
		if err != nil {
			return nil, err
		}
		if spec.Obs != nil {
			gridPol.SetObs(spec.Obs)
		}
	}
	var hier *dynamo.Hierarchy
	var asyncLeaves []*dynamo.AsyncLeaf
	var asyncUpper *dynamo.AsyncUpper
	var guards []*storm.Guard // async plane only; the Hierarchy owns its own
	if spec.Distributed {
		netLatency := spec.NetworkLatency
		if netLatency == 0 {
			netLatency = 10 * time.Millisecond
		}
		fabric := bus.New(engine, bus.ConstantLatency(netLatency))
		if inj != nil {
			dynamo.WireBusFaults(fabric, inj)
		}
		for _, r := range racks {
			a := dynamo.NewAsyncAgent(fabric, engine, r, spec.CommandLatency)
			if inj != nil {
				a.SetFaults(inj)
			}
			if spec.WatchdogTTL > 0 {
				r.SetWatchdog(spec.WatchdogTTL, cfg.SafeCurrent())
			}
			if spec.Obs != nil {
				r.SetObs(spec.Obs)
			}
		}
		opts := dynamo.AsyncOptions{
			Injector:   inj,
			StaleAfter: spec.StaleAfter,
			Retry:      spec.Retry,
			Heartbeat:  spec.WatchdogTTL > 0,
			Storm:      spec.Storm,
			Obs:        spec.Obs,
			Grid:       gridPol,
		}
		for _, nd := range nodes {
			if nd.Level() != power.LevelRPP {
				continue
			}
			var leafRacks []*rack.Rack
			for _, l := range nd.Loads() {
				leafRacks = append(leafRacks, l.(*rack.Rack))
			}
			// Leaves monitor and execute; the MSB controller plans.
			asyncLeaves = append(asyncLeaves,
				dynamo.NewAsyncLeafOpts(fabric, engine, nd, leafRacks, spec.Mode, cfg, false, spec.Step, opts))
		}
		asyncUpper = dynamo.NewAsyncUpperOpts(fabric, engine, msb, asyncLeaves, spec.Mode, cfg, spec.Step, opts)
		if spec.Guard != nil {
			// The async plane has no Hierarchy to own guards. They act over
			// rack handles (the server-management plane), so they need no
			// bus endpoints.
			guards = dynamo.NewGuards(msb, nodes, cfg, *spec.Guard, asyncUpper.StormQueue(), gridPol, spec.Obs)
		}
	} else {
		hier, err = dynamo.BuildHierarchyOpts(msb, spec.Mode, cfg, dynamo.HierarchyOptions{
			Engine:      engine,
			Latency:     spec.CommandLatency,
			Injector:    inj,
			StaleAfter:  spec.StaleAfter,
			Retry:       spec.Retry,
			WatchdogTTL: spec.WatchdogTTL,
			Storm:       spec.Storm,
			Guard:       spec.Guard,
			Obs:         spec.Obs,
			Grid:        gridPol,
		})
		if err != nil {
			return nil, err
		}
	}
	if gridPol != nil {
		var queue *storm.Queue
		if hier != nil {
			queue = hier.StormQueue()
		} else {
			queue = asyncUpper.StormQueue()
		}
		if err := gridPol.Bind(msb, racks, queue, cfg); err != nil {
			return nil, err
		}
	}

	cr := &coordRun{
		spec:        spec,
		n:           n,
		gen:         gen,
		racks:       racks,
		msb:         msb,
		engine:      engine,
		inj:         inj,
		cfg:         cfg,
		hier:        hier,
		asyncLeaves: asyncLeaves,
		asyncUpper:  asyncUpper,
		guards:      guards,
		gridPol:     gridPol,
		deadlines:   core.DefaultDeadlines(),
		nodes:       nodes,
	}
	// The transient lasts the specified outage duration, or as long as the
	// target DOD takes at the aggregate load of the moment it hits.
	scope, at := place(cr)
	transLen := spec.OutageLen
	if transLen == 0 {
		avgLoad := float64(trace.Aggregate(gen, at)) / float64(n)
		transLen = time.Duration(float64(spec.AvgDOD) * battery.RackFullEnergy / avgLoad * float64(time.Second))
	}
	transLen = transLen.Round(spec.Step)
	if transLen < spec.Step {
		transLen = spec.Step
	}
	start := at - spec.PreRoll
	if engine != nil && start > 0 {
		// Pre-advance the engine clock to the window start, which runs every
		// poller from time zero, in slices of a virtual minute: Run stops
		// after the events due at a slice's end, so the slices run exactly
		// the events one Run(start) would, and HardStop gets a say between
		// them.
		engine.ScheduleAt(start, "start", func(time.Duration) {})
		for t := engine.Now(); t < start; {
			if spec.HardStop != nil && spec.HardStop(start) {
				return nil, ErrAborted
			}
			t = min(t+time.Minute, start)
			engine.Run(t)
		}
	}
	cr.scope, cr.transLen = scope, transLen
	cr.start, cr.loseAt, cr.restoreAt = start, at, at+transLen
	cr.horizon = cr.restoreAt + spec.MaxChargeDuration

	res := &CoordResult{
		Spec:             spec,
		TransitionLength: transLen,
		SLAMet:           map[rack.Priority]int{},
		Racks:            map[rack.Priority]int{},
		ChargeDurations:  map[rack.Priority][]time.Duration{},
	}
	for _, r := range racks {
		res.Racks[r.Priority()]++
	}
	cr.res = res
	if spec.Obs != nil {
		cr.gauges = newRunGauges(spec.Obs)
	}
	// Steady-state buffers, sized once: the output series gets its full
	// capacity up front, the per-rack DOD sink is reused on (re)fill, and the
	// trip scan walks a prebuilt node slice instead of re-walking the tree
	// (and allocating a closure plus a seen-map) every tick.
	res.Samples = make([]Sample, 0, trace.NumFrames(start, cr.horizon, spec.SampleEvery)+1)
	res.DODs = make([]float64, 0, n)
	cr.trippedSeen = make([]bool, len(cr.nodes))
	// Outstanding-charge tracking for the end-of-run check: a per-rack bit
	// plus a running count, updated on observed state transitions instead of
	// re-scanning the fleet from scratch. A postponed or storm-queued charge
	// (pending DOD) is still outstanding work: the run must not end while
	// the admission queue drains.
	cr.outstanding = make([]bool, n)
	// Demand frames are precomputed in blocks: each refill amortises the
	// trace's per-tick work (time decomposition, diurnal/swing terms) across
	// the whole rack population, and the slab is reused block over block.
	cr.blockStart, cr.blockEnd = start, start-spec.Step // before start: refill on first tick
	cr.lastSample = time.Duration(-1 << 62)
	cr.cursor = start
	cr.nextCkpt = start + spec.CheckpointEvery
	if spec.Kernel == KernelEvent {
		if res.KernelFallback = kernelFallback(&spec, gen); res.KernelFallback == "" {
			cr.kern = newEventKernel(cr, gen.(*trace.Generator))
		}
	}
	return cr, nil
}

// tick executes one simulation step at virtual time now and reports whether
// the run's early-exit condition was reached. It is the loop body of both a
// live run and a resume's deterministic replay.
func (cr *coordRun) tick(now time.Duration) (done bool) {
	spec, res := &cr.spec, cr.res
	if now > cr.blockEnd {
		const demandBlock = 256
		to := now + (demandBlock-1)*spec.Step
		if to > cr.horizon {
			to = cr.horizon
		}
		cr.demand = trace.Frames(cr.gen, cr.demand, now, to, spec.Step)
		cr.blockStart, cr.blockEnd = now, to
	}
	frame := cr.demand[int((now-cr.blockStart)/spec.Step)*cr.n:]
	for i, r := range cr.racks {
		r.SetDemand(frame[i])
	}
	// The transition fires on the first tick at or past its scheduled
	// time (latched, not ==): a Step that does not divide PreRoll walks
	// right past the exact loseAt instant. transLen is Step-aligned, so
	// the restore keeps the full outage length on the same grid.
	if !cr.outageFired && now >= cr.loseAt {
		cr.outageFired = true
		// An open transition at the scope: the breaker leaves the critical
		// power path and every rack beneath falls back to batteries.
		cr.scope.Deenergize(now)
		if spec.Obs != nil {
			spec.Obs.Event(now, "scenario", "outage")
		}
	}
	if cr.outageFired && !cr.restoreFired && now >= cr.restoreAt {
		cr.restoreFired = true
		cr.scope.Reenergize(now)
		var sum float64
		res.DODs = res.DODs[:0]
		for _, r := range cr.racks {
			sum += float64(r.LastDOD())
			res.DODs = append(res.DODs, float64(r.LastDOD()))
		}
		res.AvgDOD = units.Fraction(sum / float64(cr.n))
		if spec.Obs != nil {
			spec.Obs.Event(now, "scenario", "restore",
				"avg_dod", fmt.Sprintf("%.3f", float64(res.AvgDOD)))
		}
	}
	if !cr.kern.metered(now) {
		for _, r := range cr.racks {
			r.Step(now, spec.Step)
		}
	}
	if cr.engine != nil {
		cr.engine.Run(now)
	}
	// The grid policy ticks after the engine (so it re-measures draw the
	// async plane's just-landed commands produced, and its cap enforcement
	// acts within the tick) and before the sync hierarchy (whose planning
	// budgets already derive from the effective limit).
	if cr.gridPol != nil {
		cr.gridPol.Tick(now)
	}
	if cr.hier != nil {
		cr.hier.Tick(now)
	}
	for _, g := range cr.guards {
		g.Tick(now)
	}
	if cr.gridPol != nil {
		// Score and integrate after every actor has moved: violation ticks
		// mean no control loop kept the feed under the cap this tick.
		cr.gridPol.Account(now, spec.Step)
	}
	for i, nd := range cr.nodes {
		if nd.Tripped() && !cr.trippedSeen[i] {
			cr.trippedSeen[i] = true
			res.Tripped = append(res.Tripped, nd.Name())
			if spec.Obs != nil {
				spec.Obs.Event(now, "scenario", "trip", "node", nd.Name())
			}
		}
	}
	// One bookkeeping pass over the fleet: maintain the outstanding set
	// by transition, and accumulate the sample sums only on sample ticks.
	sampling := now-cr.lastSample >= spec.SampleEvery
	var it, rech, capped units.Power
	for i, r := range cr.racks {
		if out := r.Charging() || r.PendingDOD() > 0; out != cr.outstanding[i] {
			cr.outstanding[i] = out
			if out {
				cr.numOutstanding++
			} else {
				cr.numOutstanding--
			}
		}
		if sampling {
			if r.InputUp() {
				it += r.ITLoad()
				rech += r.RechargePower()
			}
			capped += r.CappedPower()
		}
	}
	if cr.gauges != nil {
		cr.gauges.update(now, cr.msb, cr.racks)
	}
	if sampling {
		cr.lastSample = now
		s := Sample{
			T: now - cr.loseAt, Total: it + rech, IT: it, Recharge: rech, Capped: capped,
		}
		if cr.gridPol != nil {
			s.Shaved = cr.gridPol.ShavedPower()
			s.GridCap = cr.gridPol.CapAt(now)
		}
		res.Samples = append(res.Samples, s)
	}
	if now > cr.restoreAt {
		if p := cr.msb.Power(); p > res.PeakPower {
			res.PeakPower = p
		}
	}

	if now > cr.restoreAt {
		if cr.numOutstanding == 0 {
			// Latch the completion time as soon as the fleet drains; a
			// still-pending grid schedule (an unfired event, an open shave
			// window) only delays *termination*, so a recharge that drains
			// before a later cap-restore edge reports its true finish, not
			// the edge.
			if res.LastChargeDone == 0 {
				res.LastChargeDone = now - cr.loseAt
			}
			if (cr.gridPol == nil || !cr.gridPol.Busy(now)) &&
				now >= cr.restoreAt+5*time.Minute && now-cr.loseAt >= res.LastChargeDone+2*time.Minute {
				return true
			}
		} else {
			res.LastChargeDone = 0
		}
	}
	return false
}

// run drives the tick loop from the cursor to completion, servicing the
// Interrupt/HardStop hooks and the checkpoint cadence between ticks, then
// computes the result tail. It is the one loop of both kernels: the event
// kernel decides per tick whether the tick may be skipped, and a nil kernel
// (the dense reference) executes every tick.
func (cr *coordRun) run() (*CoordResult, error) {
	spec, k := &cr.spec, cr.kern
	last := cr.cursor - spec.Step
	for now := cr.cursor; now <= cr.horizon; now += spec.Step {
		if spec.HardStop != nil && spec.HardStop(now) {
			return nil, ErrAborted
		}
		if spec.Interrupt != nil && spec.Interrupt() {
			if spec.Checkpoint != "" {
				// The tick at now has not run yet; the resume re-enters the
				// loop exactly here.
				k.current(now - spec.Step)
				if err := cr.writeCheckpoint(now); err != nil {
					return nil, err
				}
			}
			cr.res.Interrupted = true
			k.report()
			return cr.res, nil
		}
		last = now
		if !k.skip(now) {
			done := cr.tick(now)
			k.executed(now)
			if done {
				break
			}
		}
		if spec.Checkpoint != "" && now >= cr.nextCkpt {
			k.current(now)
			if err := cr.writeCheckpoint(now + spec.Step); err != nil {
				return nil, err
			}
			cr.nextCkpt = now + spec.CheckpointEvery
		}
	}
	// finish reads live pack state (DODs, charge durations), so bring the
	// fleet current through the last processed tick first.
	k.current(last)
	k.report()
	cr.finish()
	return cr.res, nil
}

// finish aggregates the control-plane metrics and per-rack SLA accounting
// into the result.
func (cr *coordRun) finish() {
	res := cr.res
	if cr.hier != nil {
		res.Metrics = cr.hier.TotalMetrics()
		if q := cr.hier.StormQueue(); q != nil {
			res.Storm = q.Metrics()
		}
		res.Guard = cr.hier.TotalGuardMetrics()
	} else {
		m := cr.asyncUpper.Metrics()
		for _, l := range cr.asyncLeaves {
			lm := l.Metrics()
			if lm.MaxCapping > m.MaxCapping {
				m.MaxCapping = lm.MaxCapping
			}
			m.OverridesIssued += lm.OverridesIssued
			m.ThrottleEvents += lm.ThrottleEvents
			m.PlansComputed += lm.PlansComputed
			m.Retries += lm.Retries
			m.AbandonedOverrides += lm.AbandonedOverrides
			m.StaleTelemetry += lm.StaleTelemetry
			m.Crashes += lm.Crashes
			m.Restarts += lm.Restarts
		}
		res.Metrics = m
		if q := cr.asyncUpper.StormQueue(); q != nil {
			res.Storm = q.Metrics()
		}
		res.Guard = storm.TotalGuardMetrics(cr.guards)
	}
	if cr.gridPol != nil {
		res.Grid = cr.gridPol.Metrics()
	}
	if cr.inj != nil {
		res.FaultCounters = cr.inj.Counters()
	}
	for _, r := range cr.racks {
		res.FailSafeActivations += r.FailSafeActivations()
		res.UnservedEnergy += r.UnservedEnergy()
		res.LoadDropEvents += r.LoadDropEvents()
	}
	endNow := cr.horizon
	for _, r := range cr.racks {
		d, done := r.ChargeDuration(endNow)
		met := false
		if r.LastDOD() <= 0 {
			met = true // nothing to charge
		} else if done && d <= cr.deadlines[r.Priority()] {
			met = true
		}
		if done {
			res.ChargeDurations[r.Priority()] = append(res.ChargeDurations[r.Priority()], d)
		}
		if met {
			res.SLAMet[r.Priority()]++
		}
	}
}

// ProductionDistribution returns the paper's evaluation MSB rack counts.
func ProductionDistribution() (p1, p2, p3 int) { return 89, 142, 85 }
