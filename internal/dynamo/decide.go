package dynamo

import (
	"strconv"
	"time"

	"coordcharge/internal/charger"
	"coordcharge/internal/core"
	"coordcharge/internal/faults"
	"coordcharge/internal/grid"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/sim"
	"coordcharge/internal/storm"
	"coordcharge/internal/units"
)

// This file holds the decisions every controller makes, whichever plane it
// runs on — the paper's per-breaker procedure (§IV-B): judge telemetry
// fresh or stale, plan charging starts with Algorithm 1 (or pause them into
// the admission queue), throttle batteries lowest priority first on
// overload, and cap servers last. Controller (dynamo.go) reads its views
// from agents and acts on racks directly; AsyncLeaf and AsyncUpper
// (async.go) receive their views over the bus and send their commands back
// out on it. Beside the decider sit the two mechanisms the planes share:
// the override tracker (Controller and AsyncLeaf) and the poll-generation
// lifecycle (AsyncLeaf and AsyncUpper).

// coordinates reports whether the mode coordinates charging at all; ModeNone
// leaves chargers to their local policy and only caps servers.
func (m Mode) coordinates() bool {
	return m == ModeGlobal || m == ModePriorityAware || m == ModePostpone
}

// lifecycle is what a crash and a restart do to the controller embedding a
// decider, beyond the accounting the decider keeps itself.
type lifecycle interface {
	// forget drops the in-memory state a crash loses; at stamps the crash.
	forget(at time.Duration)
	// resync starts rebuilding that state from the racks after a restart.
	resync(now time.Duration)
}

// decider is the transport-neutral decision core one controller embeds.
type decider struct {
	host       lifecycle
	comp       string // crash-schedule component and journal name; on the bus, the endpoint
	node       *power.Node
	mode       Mode
	cfg        core.Config
	staleAfter time.Duration
	inj        *faults.Injector
	sched      *faults.Component // comp's crash schedule, resolved when inj is set
	grid       *grid.Policy      // nil unless the grid signal plane is attached
	stormQ     *storm.Queue      // nil unless storm admission is armed
	down       bool
	metrics    Metrics

	// Buffers reused across ticks: the throttle candidates and the capping
	// order.
	active []core.ActiveCharge
	order  []int

	obsHandles
}

func newDecider(host lifecycle, comp string, node *power.Node, mode Mode, cfg core.Config, staleAfter time.Duration, inj *faults.Injector, sink *obs.Sink) decider {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := decider{
		host: host, comp: comp, node: node, mode: mode, cfg: cfg,
		staleAfter: staleAfter, inj: inj, obsHandles: newObsHandles(sink, node.Name()),
	}
	if inj != nil {
		d.sched = inj.Component(comp)
	}
	return d
}

// armStorm attaches a recharge-storm admission queue.
func (d *decider) armStorm(cfg storm.Config, sink *obs.Sink) {
	d.stormQ = storm.NewQueue(cfg)
	if sink != nil {
		d.stormQ.SetObs(sink)
	}
}

// Metrics returns the accumulated protective-action metrics.
func (d *decider) Metrics() Metrics { return d.metrics }

// Down reports whether the controller is currently crashed.
func (d *decider) Down() bool { return d.down }

// up runs the crash schedule at now and reports whether it has the
// controller up, crashing the controller on a transition down.
func (d *decider) up(now time.Duration) bool {
	up := !d.down
	if d.inj != nil {
		up = d.sched.Up(now)
	}
	if !up && !d.down {
		d.crash(now)
	}
	return up
}

// live is up for a controller about to act: one the schedule brings back
// restarts first.
func (d *decider) live(now time.Duration) bool {
	if !d.up(now) {
		return false
	}
	if d.down {
		d.restart(now)
	}
	return true
}

// crash takes the controller down: the process and everything it held in
// memory are gone, including the admission queue (racks keep their pending
// DOD locally, so a restart rebuilds it).
func (d *decider) crash(at time.Duration) {
	d.down = true
	d.metrics.Crashes++
	d.cCrashes.Inc()
	if d.stormQ != nil {
		d.stormQ.Reset()
	}
	d.host.forget(at)
}

// restart brings a crashed controller back at now.
func (d *decider) restart(now time.Duration) {
	d.down = false
	d.metrics.Restarts++
	d.cRestarts.Inc()
	d.sink.Event(now, d.comp, "restart")
	d.host.resync(now)
}

// fresh reports whether telemetry taken at taken is within the staleness
// bound at now.
func (d *decider) fresh(taken, now time.Duration) bool {
	return d.staleAfter <= 0 || now-taken <= d.staleAfter
}

// assumeWorst rewrites a stale or missing snapshot conservatively — the rack
// is assumed energized and charging at the worst-case current, so the
// controller over-protects the breaker rather than under-protecting it — and
// counts the stale evaluation.
func (d *decider) assumeWorst(s *Snapshot) {
	d.metrics.StaleTelemetry++
	d.cStale.Inc()
	s.InputUp = true
	s.Charging = true
	s.Setpoint = d.cfg.Surface.MaxCurrent()
	s.Recharge = units.Power(float64(s.Setpoint) * d.cfg.WattsPerAmp)
}

// rewriteStale applies assumeWorst to every stale entry of views and returns
// how many there were.
func (d *decider) rewriteStale(views []Snapshot, now time.Duration) (stale int) {
	for i := range views {
		if !d.fresh(views[i].Taken, now) {
			d.assumeWorst(&views[i])
			stale++
		}
	}
	return stale
}

// effLimit is the feed limit planning, admission and protection enforce at
// now: the breaker limit, tightened to the interconnection cap when the grid
// signal plane is attached.
func (d *decider) effLimit(now time.Duration) units.Power {
	if d.grid != nil {
		return d.grid.EffectiveLimit(now)
	}
	return d.node.Limit()
}

// itLoad sums the (capped) server power of the energized racks in views.
func (d *decider) itLoad(views []Snapshot) units.Power {
	var total units.Power
	for i := range views {
		if s := &views[i]; s.InputUp {
			total += s.ITLoad
		}
	}
	return total
}

// draw sums what the energized racks in views draw now: server power plus
// recharge.
func (d *decider) draw(views []Snapshot) units.Power {
	var total units.Power
	for i := range views {
		if s := &views[i]; s.InputUp {
			total += s.ITLoad + s.Recharge
		}
	}
	return total
}

// excess is how far the draw with every server cap released would exceed
// the effective limit: capping is recomputed afresh each cycle.
func (d *decider) excess(now time.Duration, views []Snapshot) units.Power {
	var uncapped units.Power
	for i := range views {
		if s := &views[i]; s.InputUp {
			uncapped += s.Demand + s.Recharge
		}
	}
	return uncapped - d.effLimit(now)
}

// countOverride counts one charging-current command: an override, a
// forwarded directive, or an admission grant.
func (d *decider) countOverride() {
	d.metrics.OverridesIssued++
	d.cOverrides.Inc()
}

// pauseStarts decides whether a batch of fresh charging starts pauses into
// the admission queue instead of being planned: a recharge storm (MinRacks
// or more at once), a queue already draining, or the grid policy deferring
// charging while price or carbon is over threshold. It notes the storm and
// journals the pause; moving the racks into the queue is the caller's.
func (d *decider) pauseStarts(now time.Duration, starts int) bool {
	deferred := d.grid != nil && d.grid.DeferCharging(now)
	if d.stormQ == nil || !(deferred || starts >= d.stormQ.Config().MinRacks || d.stormQ.Len() > 0) {
		return false
	}
	if starts >= d.stormQ.Config().MinRacks {
		d.stormQ.NoteStorm(now)
	}
	if d.sink != nil {
		d.sink.Event(now, d.comp, "storm-pause",
			"starts", strconv.Itoa(starts),
			"deferred", strconv.FormatBool(deferred))
	}
	return true
}

// plan computes the charging plan for a batch of fresh starts from the
// available power — the uniform rate in ModeGlobal, Algorithm 1 otherwise,
// postponing what does not fit in ModePostpone — and counts and journals it.
func (d *decider) plan(now time.Duration, available units.Power, starts []core.RackInfo) []core.Assignment {
	var plan []core.Assignment
	if d.mode == ModeGlobal {
		plan = core.PlanGlobal(available, starts, d.cfg)
	} else {
		cfg := d.cfg
		cfg.AllowPostpone = d.mode == ModePostpone
		plan = core.PlanPriorityAware(available, starts, cfg)
	}
	d.metrics.PlansComputed++
	d.cPlans.Inc()
	if d.sink != nil {
		d.sink.Event(now, d.comp, "plan",
			"starts", strconv.Itoa(len(starts)),
			"available_w", strconv.FormatFloat(float64(available), 'f', 0, 64))
	}
	return plan
}

// admitting reports whether an admission wave may run at now: paused charges
// are queued and the grid policy is not holding them (its MaxDefer valve
// bounds how long it can).
func (d *decider) admitting(now time.Duration) bool {
	return d.stormQ != nil && d.stormQ.Len() > 0 && !(d.grid != nil && d.grid.DeferCharging(now))
}

// admit grants the next admission wave under the headroom the effective
// feed limit leaves over draw, net of the configured reserve — so a shrunken
// interconnection cap shrinks every wave with it.
func (d *decider) admit(now time.Duration, draw units.Power) []storm.Grant {
	limit := d.effLimit(now)
	return d.stormQ.Admit(now, limit-draw-d.stormQ.Config().Margin(limit), d.cfg)
}

// throttle picks the charging racks in views to drop to the minimum current
// — lowest priority and deepest discharge first — until their projected
// recovery covers excess, and counts and journals the throttle when it picks
// any. It returns view indices.
func (d *decider) throttle(now time.Duration, views []Snapshot, excess units.Power) []int {
	d.active = d.active[:0]
	for i := range views {
		if s := &views[i]; s.InputUp && s.Charging {
			d.active = append(d.active, core.ActiveCharge{
				RackInfo: core.RackInfo{ID: i, Name: s.Name, Priority: s.Priority, DOD: s.DOD},
				Current:  s.Setpoint,
			})
		}
	}
	ids := core.ThrottleToMinimum(excess, d.active, d.cfg)
	if len(ids) > 0 {
		d.metrics.ThrottleEvents++
		d.cThrottles.Inc()
		if d.sink != nil {
			d.sink.Event(now, d.comp, "throttle",
				"sheds", strconv.Itoa(len(ids)),
				"excess_w", strconv.FormatFloat(float64(excess), 'f', 0, 64))
		}
	}
	return ids
}

// recovery is the power a throttle to the minimum current frees on a rack
// charging at its snapshot's setpoint.
func (d *decider) recovery(s *Snapshot) units.Power {
	return units.Power(float64(s.Setpoint-d.cfg.Surface.MinCurrent()) * d.cfg.WattsPerAmp)
}

// capServers walks views in capping order — lowest priority first ("caps
// according to priority of services", §IV-B), view order within a priority
// — and caps each energized rack's servers through capRack, which reports
// whether the command could be routed, until needed is covered. Every rack
// after that point goes to release. It returns the power cut and the
// energized racks' IT load summed in capping order.
func (d *decider) capServers(views []Snapshot, needed units.Power, capRack func(i int, level units.Power) bool, release func(i int)) (applied, it units.Power) {
	for _, i := range d.capOrder(views) {
		s := &views[i]
		if s.InputUp {
			it += s.ITLoad
		}
		if needed <= 0 {
			release(i)
			continue
		}
		if !s.InputUp {
			continue
		}
		cut := s.Demand
		if cut > needed {
			cut = needed
		}
		if capRack(i, s.Demand-cut) {
			needed -= cut
			applied += cut
		}
	}
	return applied, it
}

// capOrder returns the indices of views lowest priority (highest Priority
// value) first, view order within a priority: a stable sort by priority, done
// as one pass per priority class into a reused buffer.
func (d *decider) capOrder(views []Snapshot) []int {
	order := d.order[:0]
	if len(views) > 0 {
		p := views[0].Priority
		for i := range views {
			p = max(p, views[i].Priority)
		}
		for more := true; more; {
			more = false
			next := p
			for i := range views {
				switch q := views[i].Priority; {
				case q == p:
					order = append(order, i)
				case q < p && (!more || q > next):
					next, more = q, true
				}
			}
			p = next
		}
	}
	d.order = order
	return order
}

// noteCapping journals a cut and keeps the Table III metrics: the largest
// cut, its share of the IT load it came out of, and the energy capped over
// dt (nothing for dt <= 0).
func (d *decider) noteCapping(now time.Duration, applied, it units.Power, dt time.Duration) {
	if applied > 0 && d.sink != nil {
		d.sink.Event(now, d.comp, "cap",
			"applied_w", strconv.FormatFloat(float64(applied), 'f', 0, 64))
	}
	if applied > d.metrics.MaxCapping {
		d.metrics.MaxCapping = applied
		if it > 0 {
			d.metrics.MaxCappingFraction = units.Fraction(float64(applied) / float64(it))
		}
	}
	if dt > 0 {
		d.metrics.CappedEnergy += units.EnergyOver(applied, dt)
	}
}

// courier is how a controller's overrides reach its racks and how their
// effect comes back, for the override tracker. Racks are indexed the
// controller's way.
type courier interface {
	// deliver sends override want to rack i; false means it was dropped on
	// the spot.
	deliver(now time.Duration, i int, want units.Current) bool
	// readback returns rack i's latest telemetry and the command settling
	// it must postdate to confirm an override; ok is false while there is
	// none.
	readback(i int) (s Snapshot, settle time.Duration, ok bool)
	rackName(i int) string
}

// pendingOverride tracks an override awaiting telemetry confirmation.
type pendingOverride struct {
	want     units.Current
	attempts int
	issuedAt time.Duration
	due      time.Duration // tick-driven deadline (engine == nil)
	ev       *sim.Event    // engine-driven deadline
}

// overrideTracker follows charging-current overrides from issue to
// confirmation: an override telemetry has not confirmed by its deadline is
// retransmitted, the deadline growing by the policy's backoff, and abandoned
// after the last attempt. Deadlines are engine events when an engine is
// attached, else checked on the controller's tick by expire.
type overrideTracker struct {
	d       *decider
	out     courier
	policy  RetryPolicy
	engine  *sim.Engine
	label   string // prefix of the retry events' labels
	racks   int
	pending map[int]*pendingOverride
}

func newOverrideTracker(d *decider, out courier, policy RetryPolicy, engine *sim.Engine, label string, racks int) overrideTracker {
	return overrideTracker{
		d: d, out: out, policy: policy, engine: engine, label: label, racks: racks,
		pending: make(map[int]*pendingOverride),
	}
}

// issue sends an override to rack i and, with retries enabled, tracks it
// until telemetry confirms the setpoint; a newer override for the rack
// supersedes the pending one. The current is clamped to the hardware's
// settable range up front, so confirmation compares telemetry against a
// value the charger can actually report. It returns deliver's verdict.
func (t *overrideTracker) issue(now time.Duration, i int, want units.Current) bool {
	want = charger.ClampOverride(want)
	delivered := t.out.deliver(now, i, want)
	t.d.countOverride()
	if t.d.sink != nil {
		t.d.sink.Event(now, t.d.comp, "override",
			"rack", t.out.rackName(i), "amps", strconv.Itoa(int(want)))
	}
	if t.policy.enabled() {
		t.drop(i)
		p := &pendingOverride{want: want, attempts: 1, issuedAt: now}
		t.pending[i] = p
		t.arm(now, i, p)
	}
	return delivered
}

func (t *overrideTracker) arm(now time.Duration, i int, p *pendingOverride) {
	wait := t.policy.attemptTimeout(p.attempts)
	if t.engine == nil {
		p.due = now + wait
		return
	}
	p.ev = t.engine.ScheduleAfter(wait, t.label+t.out.rackName(i), func(at time.Duration) {
		t.check(at, i, p)
	})
}

// expire checks the tick-driven deadlines that have passed, in rack order
// (deterministic injector draws); engine-driven deadlines fire themselves.
func (t *overrideTracker) expire(now time.Duration) {
	if t.engine != nil || len(t.pending) == 0 {
		return
	}
	for i := 0; i < t.racks; i++ {
		if p := t.pending[i]; p != nil && now >= p.due {
			t.check(now, i, p)
		}
	}
}

// check confirms, retransmits or abandons one pending override. The
// confirmation source is telemetry taken after the command had time to
// settle; a rack that stopped charging resolves the override as moot.
func (t *overrideTracker) check(now time.Duration, i int, p *pendingOverride) {
	if t.d.down || t.pending[i] != p {
		return // the controller crashed or the override was superseded
	}
	if s, settle, ok := t.out.readback(i); ok && s.Taken > p.issuedAt+settle && (!s.Charging || s.Setpoint == p.want) {
		delete(t.pending, i)
		t.d.cConfirms.Inc()
		wait := (now - p.issuedAt).Seconds()
		t.d.hConfirm.Observe(wait)
		if t.d.sink != nil {
			t.d.sink.Event(now, t.d.comp, "confirm",
				"rack", t.out.rackName(i), "wait_s", strconv.FormatFloat(wait, 'f', 1, 64))
		}
		return
	}
	if p.attempts >= t.policy.maxAttempts() {
		delete(t.pending, i)
		t.d.metrics.AbandonedOverrides++
		t.d.cAbandons.Inc()
		if t.d.sink != nil {
			t.d.sink.Event(now, t.d.comp, "abandon", "rack", t.out.rackName(i))
		}
		return
	}
	p.attempts++
	t.d.metrics.Retries++
	t.d.cRetries.Inc()
	if t.d.sink != nil {
		t.d.sink.Event(now, t.d.comp, "retry",
			"rack", t.out.rackName(i), "attempt", strconv.Itoa(p.attempts))
	}
	t.out.deliver(now, i, p.want)
	p.issuedAt = now
	t.arm(now, i, p)
}

// drop stops tracking rack i's override, if any.
func (t *overrideTracker) drop(i int) {
	if p := t.pending[i]; p != nil {
		if p.ev != nil {
			t.engine.Cancel(p.ev)
		}
		delete(t.pending, i)
	}
}

// reset drops every tracked override (a crash).
func (t *overrideTracker) reset() {
	for i := 0; i < t.racks && len(t.pending) > 0; i++ {
		t.drop(i)
	}
}

// poller is a controller that polls in generations: AsyncLeaf or AsyncUpper.
type poller interface {
	live(now time.Duration) bool
	Down() bool
	// request sends generation gen's requests, tagged gen; each reply
	// calls replied with its tag.
	request(now time.Duration, gen uint64)
	// evaluate decides from the telemetry the generation gathered.
	evaluate(now time.Duration)
}

// pollLoop is the poll-generation lifecycle the message-driven controllers
// share: every poll period it runs the crash schedule, opens a generation,
// has the controller send its requests, and arms the generation's
// evaluation deadline. Only the newest generation can still evaluate, so
// its reply count and evaluated flag are all the state a generation needs;
// replies and deadlines name their generation by number.
type pollLoop struct {
	ctl           poller
	engine        *sim.Engine
	gen           uint64 // the newest generation
	pending       int    // replies the newest generation still awaits
	evaluated     bool   // the newest generation has evaluated
	peers         int    // replies a generation awaits
	evalAfter     time.Duration
	deadlineLabel string
	// deadline is the newest generation's evaluation deadline. It fires
	// before the next poll opens (evalAfter), so one event serves every
	// generation.
	deadline pollDeadline
}

func newPollLoop(ctl poller, engine *sim.Engine, name string, peers int, evalAfter time.Duration) pollLoop {
	return pollLoop{ctl: ctl, engine: engine, peers: peers, evalAfter: evalAfter, deadlineLabel: "deadline:" + name}
}

func (p *pollLoop) tick(now time.Duration) {
	if !p.ctl.live(now) {
		return
	}
	p.gen++
	p.pending, p.evaluated = p.peers, false
	p.ctl.request(now, p.gen)
	p.deadline.loop, p.deadline.gen = p, p.gen
	p.engine.PostAfter(p.evalAfter, p.deadlineLabel, &p.deadline)
}

// replied counts one reply to generation gen, evaluating once the last one
// is in. A late reply to an older poll never completes a newer one.
func (p *pollLoop) replied(now time.Duration, gen uint64) {
	if gen != p.gen {
		return
	}
	p.pending--
	if p.pending == 0 {
		p.fire(now, gen)
	}
}

// fire evaluates generation gen at most once — at its last reply or at its
// deadline, whichever comes first — unless a newer poll or a crash has
// superseded it.
func (p *pollLoop) fire(now time.Duration, gen uint64) {
	if p.evaluated || gen != p.gen || p.ctl.Down() {
		return
	}
	p.evaluated = true
	p.ctl.evaluate(now)
}

// pollDeadline is one generation's evaluation deadline, posted to the
// engine as its own event.
type pollDeadline struct {
	loop *pollLoop
	gen  uint64
}

func (d *pollDeadline) Fire(now time.Duration) { d.loop.fire(now, d.gen) }
