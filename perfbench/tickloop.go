package main

// The traced tick loop: a copy of scenario.RunCoordinated's dense path that
// calls the same exported layer functions in the same order, with a span
// around each layer call. Its results must equal RunCoordinated's for the same
// spec (tickloop_test.go checks this byte for byte), so the per-layer times it
// reports describe the program the untraced benchmark measures.

import (
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
	"coordcharge/internal/scenario"
	"coordcharge/internal/sim"
	"coordcharge/internal/storm"
	"coordcharge/internal/trace"
	"coordcharge/internal/units"
)

// traceCounts are the per-run counts the loop reads at layer boundaries.
type traceCounts struct {
	frames        int64 // demand frames synthesized by trace.Frames
	rackSteps     int64 // rack.Step calls
	chargingTicks int64 // rack-ticks spent charging
	ticks         int64 // dense ticks executed
	simEvents     uint64
	busDelivered  uint64
	busDropped    uint64
	ckptWrites    int64           // cadence writes RunCoordinated would make
	planViews     []core.RackInfo // planner inputs at the restore tick
	planAvail     units.Power
}

// tracedRun is one coordinated run's live state, mirroring the scenario
// package's run: fleet, control plane, schedule, and result.
type tracedRun struct {
	spec scenario.CoordSpec
	tr   *tracer
	n    int
	gen  trace.Source

	racks  []*rack.Rack
	msb    *power.Node
	engine *sim.Engine
	fabric *bus.Bus
	inj    *faults.Injector
	cfg    core.Config

	hier        *dynamo.Hierarchy
	asyncLeaves []*dynamo.AsyncLeaf
	asyncUpper  *dynamo.AsyncUpper
	guards      []*storm.Guard // async plane only; the Hierarchy owns its own
	gridPol     *grid.Policy

	loseAt, restoreAt, horizon time.Duration
	deadlines                  map[rack.Priority]time.Duration

	res    *scenario.CoordResult
	gauges *runGauges

	nodes          []*power.Node
	trippedSeen    []bool
	outstanding    []bool
	numOutstanding int

	demand               []units.Power
	blockStart, blockEnd time.Duration
	lastSample           time.Duration

	outageFired, restoreFired bool
	counts                    traceCounts
}

// fillDefaults applies CoordSpec's documented defaults. The benchmark only
// builds valid specs, so validation is left to RunCoordinated.
func fillDefaults(s *scenario.CoordSpec) {
	if s.MSBLimit == 0 {
		s.MSBLimit = power.DefaultMSBLimit
	}
	if s.LocalPolicy == nil {
		s.LocalPolicy = charger.Variable{}
	}
	if s.Step == 0 {
		s.Step = 3 * time.Second
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
	if s.Checkpoint != "" && s.CheckpointEvery == 0 {
		s.CheckpointEvery = 5 * time.Minute
	}
	if s.Grid != nil && s.Storm == nil {
		def := storm.Default()
		s.Storm = &def
	}
}

// runTraced executes spec on the dense path with every layer call wrapped in
// a span on tr. Checkpoint writes are counted, not made: they change no
// result, and their cost is measured separately.
func runTraced(spec scenario.CoordSpec, tr *tracer) (*scenario.CoordResult, traceCounts, error) {
	run := tr.begin(spanRun)
	defer tr.end(run)
	b := tr.begin(spanBuild)
	fillDefaults(&spec)
	tc, err := newTracedRun(spec, tr)
	tr.end(b)
	if err != nil {
		return nil, traceCounts{}, err
	}
	ckptEvery := spec.CheckpointEvery
	nextCkpt := tc.loseAt - spec.PreRoll + ckptEvery
	for now := tc.loseAt - spec.PreRoll; now <= tc.horizon; now += spec.Step {
		if tc.tick(now) {
			break
		}
		if spec.Checkpoint != "" && now >= nextCkpt {
			tc.counts.ckptWrites++
			nextCkpt = now + ckptEvery
		}
	}
	f := tr.begin(spanFinish)
	tc.finish()
	tr.end(f)
	if tc.engine != nil {
		tc.counts.simEvents = tc.engine.Executed()
	}
	if tc.fabric != nil {
		tc.counts.busDelivered = tc.fabric.Delivered()
		tc.counts.busDropped = tc.fabric.Dropped()
	}
	return tc.res, tc.counts, nil
}

func newTracedRun(spec scenario.CoordSpec, tr *tracer) (*tracedRun, error) {
	n := spec.NumP1 + spec.NumP2 + spec.NumP3
	var gen trace.Source = spec.Trace
	if gen == nil {
		scale := float64(n) / 316
		s := tr.begin(spanTrace)
		g, err := trace.NewGenerator(trace.Spec{
			NumRacks:    n,
			Seed:        spec.Seed,
			TroughPower: units.Power(1.9e6 * scale),
			PeakPower:   units.Power(2.1e6 * scale),
		})
		tr.end(s)
		if err != nil {
			return nil, err
		}
		gen = g
	}
	s := tr.begin(spanRack)
	surface := battery.Fig5Surface()
	racks := make([]*rack.Rack, n)
	loads := make([]power.Load, n)
	for i := range racks {
		p := rack.P3
		switch {
		case i < spec.NumP1:
			p = rack.P1
		case i < spec.NumP1+spec.NumP2:
			p = rack.P2
		}
		racks[i] = rack.New(fmt.Sprintf("rack%03d", i), p, spec.LocalPolicy, surface)
		loads[i] = racks[i]
	}
	tr.end(s)
	s = tr.begin(spanPower)
	msb, err := power.Build(power.Spec{Name: "msb", MSBLimit: spec.MSBLimit}, loads)
	if err == nil && *spec.RelaxLowerLevels {
		msb.Walk(func(nd *power.Node) {
			if nd != msb {
				nd.SetLimit(100 * units.Megawatt)
			}
		})
	}
	if err == nil && spec.TripRule != nil {
		msb.Walk(func(nd *power.Node) { nd.SetTripRule(*spec.TripRule) })
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	tc := &tracedRun{spec: spec, tr: tr, n: n, gen: gen, racks: racks, msb: msb, cfg: core.DefaultConfig()}
	if spec.CommandLatency > 0 || spec.Distributed {
		tc.engine = sim.NewEngine()
	}
	if spec.Faults.Enabled() {
		tc.inj = faults.New(spec.Faults)
		if spec.Obs != nil {
			tc.inj.SetObs(spec.Obs)
		}
	}
	if spec.Grid != nil {
		s := tr.begin(spanGrid)
		tc.gridPol, err = grid.NewPolicy(spec.Grid)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		if spec.Obs != nil {
			tc.gridPol.SetObs(spec.Obs)
		}
	}
	s = tr.begin(spanDynamo)
	if spec.Distributed {
		tc.buildAsync()
	} else {
		tc.hier, err = dynamo.BuildHierarchyOpts(msb, spec.Mode, tc.cfg, dynamo.HierarchyOptions{
			Engine:      tc.engine,
			Latency:     spec.CommandLatency,
			Injector:    tc.inj,
			StaleAfter:  spec.StaleAfter,
			Retry:       spec.Retry,
			WatchdogTTL: spec.WatchdogTTL,
			Storm:       spec.Storm,
			Guard:       spec.Guard,
			Obs:         spec.Obs,
			Grid:        tc.gridPol,
		})
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if tc.gridPol != nil {
		var queue *storm.Queue
		if tc.hier != nil {
			queue = tc.hier.StormQueue()
		} else {
			queue = tc.asyncUpper.StormQueue()
		}
		s := tr.begin(spanGrid)
		err := tc.gridPol.Bind(msb, racks, queue, tc.cfg)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}

	s = tr.begin(spanTrace)
	peakT := trace.FirstPeak(gen, 24*time.Hour, time.Minute)
	transLen := spec.OutageLen
	if transLen == 0 {
		avgLoad := float64(trace.Aggregate(gen, peakT)) / float64(n)
		transLen = time.Duration(float64(spec.AvgDOD) * battery.RackFullEnergy / avgLoad * float64(time.Second))
	}
	tr.end(s)
	transLen = transLen.Round(spec.Step)
	if transLen < spec.Step {
		transLen = spec.Step
	}
	res := &scenario.CoordResult{
		Spec:             spec,
		TransitionLength: transLen,
		SLAMet:           map[rack.Priority]int{},
		Racks:            map[rack.Priority]int{},
		ChargeDurations:  map[rack.Priority][]time.Duration{},
	}
	for _, r := range racks {
		res.Racks[r.Priority()]++
	}
	start := peakT - spec.PreRoll
	if tc.engine != nil && start > 0 {
		// Pre-advancing the clock runs every poller the control plane has
		// already registered from time zero: engine work, not construction.
		tc.engine.ScheduleAt(start, "start", func(time.Duration) {})
		s := tr.begin(spanSim)
		tc.engine.Run(start)
		tr.end(s)
	}
	tc.loseAt, tc.restoreAt = peakT, peakT+transLen
	tc.horizon = peakT + transLen + spec.MaxChargeDuration
	tc.deadlines = core.DefaultDeadlines()
	tc.res = res
	if spec.Obs != nil {
		tc.gauges = newRunGauges(spec.Obs)
	}
	res.Samples = make([]scenario.Sample, 0, trace.NumFrames(start, tc.horizon, spec.SampleEvery)+1)
	res.DODs = make([]float64, 0, n)
	msb.Walk(func(nd *power.Node) { tc.nodes = append(tc.nodes, nd) })
	tc.trippedSeen = make([]bool, len(tc.nodes))
	tc.outstanding = make([]bool, n)
	tc.blockStart, tc.blockEnd = start, start-spec.Step
	tc.lastSample = time.Duration(-1 << 62)
	return tc, nil
}

// buildAsync wires the message-passing control plane exactly as the scenario
// package does: agents, leaf controllers per RPP, the MSB controller, and
// guards built over rack handles.
func (tc *tracedRun) buildAsync() {
	spec := &tc.spec
	netLatency := spec.NetworkLatency
	if netLatency == 0 {
		netLatency = 10 * time.Millisecond
	}
	tc.fabric = bus.New(tc.engine, bus.ConstantLatency(netLatency))
	if tc.inj != nil {
		dynamo.WireBusFaults(tc.fabric, tc.inj)
	}
	for _, r := range tc.racks {
		a := dynamo.NewAsyncAgent(tc.fabric, tc.engine, r, spec.CommandLatency)
		if tc.inj != nil {
			a.SetFaults(tc.inj)
		}
		if spec.WatchdogTTL > 0 {
			r.SetWatchdog(spec.WatchdogTTL, tc.cfg.SafeCurrent())
		}
		if spec.Obs != nil {
			r.SetObs(spec.Obs)
		}
	}
	opts := dynamo.AsyncOptions{
		Injector:   tc.inj,
		StaleAfter: spec.StaleAfter,
		Retry:      spec.Retry,
		Heartbeat:  spec.WatchdogTTL > 0,
		Storm:      spec.Storm,
		Obs:        spec.Obs,
		Grid:       tc.gridPol,
	}
	tc.msb.Walk(func(nd *power.Node) {
		if nd.Level() != power.LevelRPP {
			return
		}
		var leafRacks []*rack.Rack
		for _, l := range nd.Loads() {
			leafRacks = append(leafRacks, l.(*rack.Rack))
		}
		tc.asyncLeaves = append(tc.asyncLeaves,
			dynamo.NewAsyncLeafOpts(tc.fabric, tc.engine, nd, leafRacks, spec.Mode, tc.cfg, false, spec.Step, opts))
	})
	tc.asyncUpper = dynamo.NewAsyncUpperOpts(tc.fabric, tc.engine, tc.msb, tc.asyncLeaves, spec.Mode, tc.cfg, spec.Step, opts)
	if spec.Guard == nil {
		return
	}
	queue := tc.asyncUpper.StormQueue()
	tc.msb.Walk(func(nd *power.Node) {
		var rs []*rack.Rack
		for _, l := range nd.RackLoads() {
			rs = append(rs, l.(*rack.Rack))
		}
		g := storm.NewGuard(nd, rs, tc.cfg, *spec.Guard)
		if queue != nil {
			g.AttachQueue(queue)
		}
		if tc.gridPol != nil && nd == tc.msb {
			g.SetCapacity(tc.gridPol.CapAt)
		}
		if spec.Obs != nil {
			g.SetObs(spec.Obs)
		}
		tc.guards = append(tc.guards, g)
	})
}

// tick is one dense simulation step; it reports whether the run's early-exit
// condition was reached.
func (tc *tracedRun) tick(now time.Duration) (done bool) {
	tr := tc.tr
	tk := tr.begin(spanTick)
	defer tr.end(tk)
	spec, res := &tc.spec, tc.res
	tc.counts.ticks++
	if now > tc.blockEnd {
		const demandBlock = 256
		to := now + (demandBlock-1)*spec.Step
		if to > tc.horizon {
			to = tc.horizon
		}
		s := tr.begin(spanTrace)
		tc.demand = trace.Frames(tc.gen, tc.demand, now, to, spec.Step)
		tr.end(s)
		tc.counts.frames += int64(trace.NumFrames(now, to, spec.Step))
		tc.blockStart, tc.blockEnd = now, to
	}
	frame := tc.demand[int((now-tc.blockStart)/spec.Step)*tc.n:]
	s := tr.begin(spanRack)
	for i, r := range tc.racks {
		r.SetDemand(frame[i])
	}
	tr.end(s)
	if !tc.outageFired && now >= tc.loseAt {
		tc.outageFired = true
		s := tr.begin(spanPower)
		tc.msb.Deenergize(now)
		tr.end(s)
		if spec.Obs != nil {
			spec.Obs.Event(now, "scenario", "outage")
		}
	}
	if tc.outageFired && !tc.restoreFired && now >= tc.restoreAt {
		tc.restoreFired = true
		s := tr.begin(spanPower)
		tc.msb.Reenergize(now)
		tr.end(s)
		var sum float64
		res.DODs = res.DODs[:0]
		for _, r := range tc.racks {
			sum += float64(r.LastDOD())
			res.DODs = append(res.DODs, float64(r.LastDOD()))
		}
		res.AvgDOD = units.Fraction(sum / float64(tc.n))
		if spec.Obs != nil {
			spec.Obs.Event(now, "scenario", "restore",
				"avg_dod", fmt.Sprintf("%.3f", float64(res.AvgDOD)))
		}
		tc.capturePlanViews()
	}
	s = tr.begin(spanRack)
	for _, r := range tc.racks {
		r.Step(now, spec.Step)
	}
	tr.end(s)
	tc.counts.rackSteps += int64(tc.n)
	if tc.engine != nil {
		s := tr.begin(spanSim)
		tc.engine.Run(now)
		tr.end(s)
	}
	if tc.gridPol != nil {
		s := tr.begin(spanGrid)
		tc.gridPol.Tick(now)
		tr.end(s)
	}
	if tc.hier != nil {
		s := tr.begin(spanDynamo)
		for _, c := range tc.hier.Controllers() {
			c.Tick(now)
		}
		tr.end(s)
		if gs := tc.hier.Guards(); len(gs) > 0 {
			s := tr.begin(spanGuard)
			for _, g := range gs {
				g.Tick(now)
			}
			tr.end(s)
		}
	}
	if len(tc.guards) > 0 {
		s := tr.begin(spanGuard)
		for _, g := range tc.guards {
			g.Tick(now)
		}
		tr.end(s)
	}
	if tc.gridPol != nil {
		s := tr.begin(spanGrid)
		tc.gridPol.Account(now, spec.Step)
		tr.end(s)
	}
	s = tr.begin(spanPower)
	for i, nd := range tc.nodes {
		if nd.Tripped() && !tc.trippedSeen[i] {
			tc.trippedSeen[i] = true
			res.Tripped = append(res.Tripped, nd.Name())
			if spec.Obs != nil {
				spec.Obs.Event(now, "scenario", "trip", "node", nd.Name())
			}
		}
	}
	tr.end(s)
	sampling := now-tc.lastSample >= spec.SampleEvery
	var it, rech, capped units.Power
	for i, r := range tc.racks {
		charging := r.Charging()
		if charging {
			tc.counts.chargingTicks++
		}
		if out := charging || r.PendingDOD() > 0; out != tc.outstanding[i] {
			tc.outstanding[i] = out
			if out {
				tc.numOutstanding++
			} else {
				tc.numOutstanding--
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
	if tc.gauges != nil {
		s := tr.begin(spanObs)
		tc.gauges.update(now, tc.msb, tc.racks)
		tr.end(s)
	}
	if sampling {
		tc.lastSample = now
		smp := scenario.Sample{
			T: now - tc.loseAt, Total: it + rech, IT: it, Recharge: rech, Capped: capped,
		}
		if tc.gridPol != nil {
			smp.Shaved = tc.gridPol.ShavedPower()
			smp.GridCap = tc.gridPol.CapAt(now)
		}
		res.Samples = append(res.Samples, smp)
	}
	if now > tc.restoreAt {
		s := tr.begin(spanPower)
		p := tc.msb.Power()
		tr.end(s)
		if p > res.PeakPower {
			res.PeakPower = p
		}
	}
	if now > tc.restoreAt {
		if tc.numOutstanding == 0 {
			if res.LastChargeDone == 0 {
				res.LastChargeDone = now - tc.loseAt
			}
			if (tc.gridPol == nil || !tc.gridPol.Busy(now)) &&
				now >= tc.restoreAt+5*time.Minute && now-tc.loseAt >= res.LastChargeDone+2*time.Minute {
				return true
			}
		} else {
			res.LastChargeDone = 0
		}
	}
	return false
}

// capturePlanViews records the planner's inputs at the restore tick — every
// rack's priority and realized depth of discharge, and the MSB headroom — so
// core.PlanPriorityAware can be timed in isolation on a production-scale view.
func (tc *tracedRun) capturePlanViews() {
	views := make([]core.RackInfo, len(tc.racks))
	for i, r := range tc.racks {
		views[i] = core.RackInfo{ID: i, Name: r.Name(), Priority: r.Priority(), DOD: r.LastDOD()}
	}
	tc.counts.planViews = views
	tc.counts.planAvail = tc.msb.Limit() - tc.msb.Power()
}

// finish aggregates control-plane metrics and per-rack SLA accounting.
func (tc *tracedRun) finish() {
	res := tc.res
	if tc.hier != nil {
		res.Metrics = tc.hier.TotalMetrics()
		if q := tc.hier.StormQueue(); q != nil {
			res.Storm = q.Metrics()
		}
		res.Guard = tc.hier.TotalGuardMetrics()
	} else {
		m := tc.asyncUpper.Metrics()
		for _, l := range tc.asyncLeaves {
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
		if q := tc.asyncUpper.StormQueue(); q != nil {
			res.Storm = q.Metrics()
		}
		res.Guard = storm.TotalGuardMetrics(tc.guards)
	}
	if tc.gridPol != nil {
		res.Grid = tc.gridPol.Metrics()
	}
	if tc.inj != nil {
		res.FaultCounters = tc.inj.Counters()
	}
	for _, r := range tc.racks {
		res.FailSafeActivations += r.FailSafeActivations()
		res.UnservedEnergy += r.UnservedEnergy()
		res.LoadDropEvents += r.LoadDropEvents()
	}
	for _, r := range tc.racks {
		d, done := r.ChargeDuration(tc.horizon)
		met := r.LastDOD() <= 0 || done && d <= tc.deadlines[r.Priority()]
		if done {
			res.ChargeDurations[r.Priority()] = append(res.ChargeDurations[r.Priority()], d)
		}
		if met {
			res.SLAMet[r.Priority()]++
		}
	}
}

// runGauges refreshes the fleet-level gauges RunCoordinated keeps in the obs
// registry (msb.*, charge.*, sim.now_s).
type runGauges struct {
	power, limit, headroom       *obs.Gauge
	it, recharge, capped         *obs.Gauge
	now                          *obs.Gauge
	current, charging, completed [3]*obs.Gauge
}

func newRunGauges(s *obs.Sink) *runGauges {
	g := &runGauges{
		power:    s.Gauge("msb.power_w"),
		limit:    s.Gauge("msb.limit_w"),
		headroom: s.Gauge("msb.headroom_w"),
		it:       s.Gauge("msb.it_w"),
		recharge: s.Gauge("msb.recharge_w"),
		capped:   s.Gauge("msb.capped_w"),
		now:      s.Gauge("sim.now_s"),
	}
	for i, p := range []string{"p1", "p2", "p3"} {
		g.current[i] = s.Gauge("charge.current_a." + p)
		g.charging[i] = s.Gauge("charge.charging." + p)
		g.completed[i] = s.Gauge("charge.completed." + p)
	}
	return g
}

func (g *runGauges) update(now time.Duration, msb *power.Node, racks []*rack.Rack) {
	var it, recharge, capped float64
	var current, charging, completed [3]float64
	for _, r := range racks {
		if r.InputUp() {
			it += float64(r.ITLoad())
			recharge += float64(r.RechargePower())
		}
		capped += float64(r.CappedPower())
		i := int(r.Priority()) - 1
		if i < 0 || i > 2 {
			continue
		}
		if r.Charging() {
			charging[i]++
			current[i] += float64(r.Pack().Setpoint())
		}
		if _, done := r.ChargeDuration(now); done {
			completed[i]++
		}
	}
	g.power.Set(float64(msb.Power()))
	g.limit.Set(float64(msb.Limit()))
	g.headroom.Set(float64(msb.Headroom()))
	g.it.Set(it)
	g.recharge.Set(recharge)
	g.capped.Set(capped)
	g.now.Set(now.Seconds())
	for i := range current {
		g.current[i].Set(current[i])
		g.charging[i].Set(charging[i])
		g.completed[i].Set(completed[i])
	}
}
