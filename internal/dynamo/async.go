package dynamo

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"coordcharge/internal/bus"
	"coordcharge/internal/charger"
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

// This file implements the distributed variant of the control plane: the
// paper's actual deployment shape, where agents on TOR switches and the
// controllers mirroring the power hierarchy are separate processes
// exchanging messages over the network (§IV-B). The synchronous Controller
// in dynamo.go models the same logic with direct reads — convenient for
// large parameter sweeps; this variant makes polling cadence, network
// latency, and message loss first-class, and upper-level controllers
// communicate exclusively through leaf controllers, as in production.
//
// Protocol, all over internal/bus:
//
//	controller → agent   "read"        → reply Snapshot
//	controller → agent   "override"    (units.Current; one-way)
//	controller → agent   "cap"/"uncap" (CapRequest; one-way)
//	controller → agent   "heartbeat"   (one-way watchdog keepalive)
//	controller → agent   "postpone"    (pause a charge; one-way)
//	controller → agent   "resume"      (units.Current admission grant; one-way)
//	upper → leaf         "aggregate"   → reply AggregateReply
//	upper → leaf         "setcurrents" (map[string]units.Current; one-way)
//	upper → leaf         "caps"        (map[string]units.Power; one-way)
//	upper → leaf         "pausecharges"  ([]string; one-way)
//	upper → leaf         "resumecharges" (map[string]units.Current; one-way)
//
// Degraded modes: a poll generation no longer waits forever for lost
// replies — it evaluates at a deadline from whatever telemetry arrived, with
// entries past the staleness bound handled conservatively; leaf controllers
// own override confirmation and retransmission (including overrides
// forwarded from upper controllers); and controllers crash and restart on
// the fault injector's schedule, resynchronising their charge-tracking state
// from the first completed poll.

// Snapshot is an agent's rack-state report.
type Snapshot struct {
	// Taken is the virtual time the snapshot was read from the rack;
	// controllers compare it against their staleness bound to detect lost
	// or delayed telemetry.
	Taken    time.Duration
	Name     string
	Priority rack.Priority
	Demand   units.Power
	ITLoad   units.Power
	Recharge units.Power
	DOD      units.Fraction
	// PendingDOD is the deficit of a postponed charge, kept rack-local so a
	// restarted controller can reconstruct its postponed set.
	PendingDOD units.Fraction
	Charging   bool
	InputUp    bool
	Setpoint   units.Current
	// ChargeStart is the virtual time the rack's current charge episode
	// began; admission grants size charging currents against the SLA time
	// already spent since it.
	ChargeStart time.Duration
}

// CapRequest asks an agent to cap its rack's servers on behalf of a
// controller.
type CapRequest struct {
	Source string
	Level  units.Power
}

// AggregateReply is a leaf controller's answer to an upper controller: the
// aggregate draw under its breaker plus the latest per-rack snapshots.
type AggregateReply struct {
	Power units.Power
	Racks []Snapshot
}

// AsyncOptions carries the degraded-mode knobs of the message-driven
// controllers.
type AsyncOptions struct {
	// Injector, when non-nil, drives the controller's crash schedule
	// (components "leaf/<node>" and "ctl/<node>").
	Injector *faults.Injector
	// StaleAfter is the telemetry freshness bound: snapshots older than
	// this are handled conservatively. Zero means telemetry never goes
	// stale (the pre-fault behaviour).
	StaleAfter time.Duration
	// Retry is the leaf's override retransmission policy (zero disables
	// retries). Its Timeout should exceed the agents' command settling plus
	// a poll round trip, so confirming telemetry has time to arrive.
	Retry RetryPolicy
	// Heartbeat emits a per-generation keepalive to every agent, feeding
	// the racks' fail-safe watchdogs.
	Heartbeat bool
	// EvalFraction is the fraction of the poll period after which an
	// incomplete poll generation evaluates anyway from the telemetry that
	// did arrive (default 0.8). Lost replies then degrade decisions instead
	// of stalling the controller forever.
	EvalFraction float64
	// Storm arms recharge-storm admission control. Only the planning upper
	// controller acts on it (leaves forward its pause/resume directives);
	// the option is ignored elsewhere.
	Storm *storm.Config
	// Grid attaches the grid signal plane to the planning upper controller:
	// planning, admission, and protection budgets derive from the effective
	// feed limit (min of breaker limit and interconnection cap), and fresh
	// starts defer into the admission queue while the policy says
	// price/carbon is over threshold. Ignored on leaves — the
	// interconnection cap constrains the site feed, not RPP breakers.
	Grid *grid.Policy
	// Obs attaches an observability sink: protective actions are counted
	// under dynamo.* metrics and control decisions are journaled to the
	// flight recorder. Nil disables instrumentation at zero cost.
	Obs *obs.Sink
}

func (o AsyncOptions) evalAfter(poll time.Duration) time.Duration {
	f := o.EvalFraction
	if f <= 0 || f > 1 {
		f = 0.8
	}
	return time.Duration(f * float64(poll))
}

// conservativeView rewrites a stale snapshot the way the synchronous
// controller does: assume the rack is energized and charging at the
// worst-case current, so the controller over-protects the breaker rather
// than under-protecting it.
func conservativeView(s Snapshot, cfg core.Config) Snapshot {
	s.InputUp = true
	s.Charging = true
	s.Setpoint = cfg.Surface.MaxCurrent()
	s.Recharge = units.Power(float64(s.Setpoint) * cfg.WattsPerAmp)
	return s
}

// AsyncAgent is the message-driven per-rack request handler.
type AsyncAgent struct {
	name        string
	settleLabel string
	r           *rack.Rack
	b           *bus.Bus
	engine      *sim.Engine
	settle      time.Duration
	inj         *faults.Injector
}

// AgentEndpoint returns the bus endpoint name for a rack.
func AgentEndpoint(rackName string) string { return "agent/" + rackName }

// NewAsyncAgent registers a rack's agent on the bus. settle is the charger's
// command-settling time (the ~20 s of Fig 11), applied after the override
// message is delivered.
func NewAsyncAgent(b *bus.Bus, engine *sim.Engine, r *rack.Rack, settle time.Duration) *AsyncAgent {
	a := &AsyncAgent{name: AgentEndpoint(r.Name()), r: r, b: b, engine: engine, settle: settle}
	a.settleLabel = "settle:" + a.name
	b.Register(a.name, a.handle)
	return a
}

// SetFaults attaches a fault injector; while the injector schedules the
// agent's component down, delivered messages are silently discarded
// (requests time out, commands vanish).
func (a *AsyncAgent) SetFaults(inj *faults.Injector) { a.inj = inj }

func (a *AsyncAgent) handle(now time.Duration, msg *bus.Message) {
	if a.inj != nil && !a.inj.Up(a.name, now) {
		return
	}
	switch msg.Kind {
	case "read":
		a.b.Reply(now, msg, snapshotRack(a.r, now))
	case "override":
		i := msg.Payload.(units.Current)
		if a.settle <= 0 {
			a.r.ControllerContact(now)
			a.r.OverrideCurrent(i)
			return
		}
		a.engine.PostAfter(a.settle, a.settleLabel, sim.Handler(func(at time.Duration) {
			a.r.ControllerContact(at)
			a.r.OverrideCurrent(i)
		}))
	case "heartbeat":
		a.r.ControllerContact(now)
	case "cap":
		req := msg.Payload.(CapRequest)
		a.r.Cap(req.Source, req.Level)
	case "uncap":
		a.r.Uncap(msg.Payload.(string))
	case "postpone":
		// Storm pause. Like capping this rides the server-management plane:
		// it takes effect on delivery, not after the charger's command
		// settling — a pause that settled lazily would defeat its purpose.
		// Duplicates are harmless (Postpone is a no-op while not charging).
		a.r.ControllerContact(now)
		a.r.Postpone()
	case "resume":
		// Storm admission grant; immediate for the same reason, and contact
		// is recorded first so a watchdogged rack does not fail-safe the
		// instant a long-queued charge restarts. Duplicates are harmless
		// (ResumeCharge is a no-op with nothing pending).
		a.r.ControllerContact(now)
		a.r.ResumeCharge(msg.Payload.(units.Current))
	default:
		panic(fmt.Errorf("dynamo: agent %s received unknown message kind %q", a.name, msg.Kind))
	}
}

// AsyncLeaf is the message-driven leaf controller: it protects one RPP by
// polling its agents, optionally plans charging sequences, and executes
// current/cap directives from upper-level controllers. The leaf owns
// override delivery: commands it sends (its own and those forwarded by upper
// controllers) are confirmed against subsequent telemetry and retransmitted
// per its RetryPolicy.
type AsyncLeaf struct {
	name       string
	node       *power.Node
	b          *bus.Bus
	engine     *sim.Engine
	cfg        core.Config
	mode       Mode
	plans      bool
	pollPeriod time.Duration
	agents     []string       // agent endpoints in poll order
	racks      []leafRack     // the polled racks in name order: the telemetry cache
	slot       map[string]int // rack name -> index in racks
	snaps      []Snapshot     // evaluate's view buffer, reused every generation
	was        map[string]bool
	metrics    Metrics

	// Built once: the deadline event label, and the cap sources (boxed as
	// uncap payloads) of the leaf's own caps and those it forwards.
	deadlineLabel         string
	upperSource           string
	uncapSelf, uncapUpper any

	inj        *faults.Injector
	staleAfter time.Duration
	retry      RetryPolicy
	heartbeat  bool
	evalAfter  time.Duration
	gen        uint64
	down       bool
	resync     bool
	pending    map[string]*pendingOverride

	obsHandles
}

// leafRack is one polled rack: its agent's endpoint and latest snapshot.
type leafRack struct {
	name, agent string
	snap        Snapshot
	have        bool // snap holds telemetry; a crash clears it
}

// pollGen is one poll generation of a message-driven controller: the replies
// it still awaits and whether it has evaluated. Each generation counts its
// own replies, so a late reply to an older poll never completes a newer one.
type pollGen struct {
	c         poller
	gen       uint64
	pending   int
	evaluated bool
}

// poller is a controller that polls in generations: AsyncLeaf or AsyncUpper.
type poller interface {
	current(gen uint64) bool // gen is the latest poll and the controller is up
	evaluate(now time.Duration)
}

// replied counts one reply, evaluating once the last one is in.
func (g *pollGen) replied(now time.Duration) {
	g.pending--
	if g.pending == 0 {
		g.Fire(now)
	}
}

// Fire evaluates the generation at most once — at its last reply or at its
// deadline, whichever comes first — unless a newer poll or a crash has
// superseded it.
func (g *pollGen) Fire(now time.Duration) {
	if g.evaluated || !g.c.current(g.gen) {
		return
	}
	g.evaluated = true
	g.c.evaluate(now)
}

// LeafEndpoint returns the bus endpoint name for a leaf controller.
func LeafEndpoint(nodeName string) string { return "leaf/" + nodeName }

// NewAsyncLeaf registers a leaf controller polling the given agents every
// poll period. plans selects whether this controller computes initial
// charging plans (true for a standalone row; false when an upper controller
// owns planning).
func NewAsyncLeaf(b *bus.Bus, engine *sim.Engine, node *power.Node, agentRacks []*rack.Rack, mode Mode, cfg core.Config, plans bool, poll time.Duration) *AsyncLeaf {
	return NewAsyncLeafOpts(b, engine, node, agentRacks, mode, cfg, plans, poll, AsyncOptions{})
}

// NewAsyncLeafOpts is NewAsyncLeaf with degraded-mode options.
func NewAsyncLeafOpts(b *bus.Bus, engine *sim.Engine, node *power.Node, agentRacks []*rack.Rack, mode Mode, cfg core.Config, plans bool, poll time.Duration, opts AsyncOptions) *AsyncLeaf {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	l := &AsyncLeaf{
		name:       LeafEndpoint(node.Name()),
		node:       node,
		b:          b,
		engine:     engine,
		cfg:        cfg,
		mode:       mode,
		plans:      plans,
		pollPeriod: poll,
		slot:       make(map[string]int),
		was:        make(map[string]bool),
		inj:        opts.Injector,
		staleAfter: opts.StaleAfter,
		retry:      opts.Retry,
		heartbeat:  opts.Heartbeat,
		evalAfter:  opts.evalAfter(poll),
		pending:    make(map[string]*pendingOverride),
	}
	l.deadlineLabel = "deadline:" + l.name
	l.upperSource = l.name + "/upper"
	l.uncapSelf, l.uncapUpper = l.name, l.upperSource
	l.obsHandles = newObsHandles(opts.Obs, node.Name())
	for _, r := range agentRacks {
		ep := AgentEndpoint(r.Name())
		l.agents = append(l.agents, ep)
		l.racks = append(l.racks, leafRack{name: r.Name(), agent: ep})
	}
	slices.SortFunc(l.racks, func(a, b leafRack) int { return strings.Compare(a.name, b.name) })
	for i, lr := range l.racks {
		l.slot[lr.name] = i
	}
	b.Register(l.name, l.handle)
	engine.Every(poll, "poll:"+l.name, l.poll)
	return l
}

// Metrics returns the controller's protective-action counters.
func (l *AsyncLeaf) Metrics() Metrics { return l.metrics }

// Down reports whether the controller is currently crashed.
func (l *AsyncLeaf) Down() bool { return l.down }

func (l *AsyncLeaf) crash() {
	l.down = true
	l.metrics.Crashes++
	l.cCrashes.Inc()
	for i := range l.racks {
		l.racks[i].have = false
	}
	l.was = make(map[string]bool)
	for _, p := range l.pending {
		l.engine.Cancel(p.ev)
	}
	l.pending = make(map[string]*pendingOverride)
}

// poll requests fresh snapshots from every agent. The generation evaluates
// when the last reply arrives, or — should replies be lost — at the
// evaluation deadline, from whatever telemetry did arrive.
func (l *AsyncLeaf) poll(now time.Duration) {
	up := !l.down
	if l.inj != nil {
		up = l.inj.Up(l.name, now)
	}
	if !up {
		if !l.down {
			l.crash()
		}
		return
	}
	if l.down {
		// Restart with empty state; the first completed generation rebuilds
		// the charge-tracking state from telemetry before planning resumes.
		l.down = false
		l.resync = true
		l.metrics.Restarts++
		l.cRestarts.Inc()
		l.sink.Event(now, l.name, "restart")
	}
	l.gen++
	g := &pollGen{c: l, gen: l.gen, pending: len(l.agents)}
	onReply := func(now time.Duration, payload any) {
		snap := payload.(Snapshot)
		// A delayed duplicate must not overwrite newer telemetry.
		if c := &l.racks[l.slot[snap.Name]]; !c.have || snap.Taken >= c.snap.Taken {
			c.snap, c.have = snap, true
		}
		g.replied(now)
	}
	for _, ep := range l.agents {
		l.b.Request(l.name, ep, "read", nil, onReply)
	}
	l.engine.PostAfter(l.evalAfter, l.deadlineLabel, g)
}

func (l *AsyncLeaf) current(gen uint64) bool { return l.gen == gen && !l.down }

// freshSnap reports whether a snapshot is within the staleness bound.
func (l *AsyncLeaf) freshSnap(s Snapshot, now time.Duration) bool {
	return l.staleAfter <= 0 || now-s.Taken <= l.staleAfter
}

// appendSnapshots appends the cached snapshots to dst in name order,
// timestamps intact (upper controllers apply their own staleness policy).
func (l *AsyncLeaf) appendSnapshots(dst []Snapshot) []Snapshot {
	for i := range l.racks {
		if c := &l.racks[i]; c.have {
			dst = append(dst, c.snap)
		}
	}
	return dst
}

// cached returns a rack's latest snapshot, if any.
func (l *AsyncLeaf) cached(rackName string) (Snapshot, bool) {
	if i, ok := l.slot[rackName]; ok && l.racks[i].have {
		return l.racks[i].snap, true
	}
	return Snapshot{}, false
}

// firstRack returns the leaf's first rack name in name order.
func (l *AsyncLeaf) firstRack() string {
	if len(l.racks) == 0 {
		return ""
	}
	return l.racks[0].name
}

// agentOf returns the endpoint of a rack's agent.
func (l *AsyncLeaf) agentOf(rackName string) string {
	if i, ok := l.slot[rackName]; ok {
		return l.racks[i].agent
	}
	return AgentEndpoint(rackName)
}

// evaluate runs the leaf's control logic over the poll generation, stale
// entries rewritten conservatively. A generation that just planned skips
// protection: the plan's overrides are still in flight and the cached
// setpoints are stale; the next poll sees their effect (plan, then monitor —
// the paper's sequencing).
func (l *AsyncLeaf) evaluate(now time.Duration) {
	l.snaps = l.appendSnapshots(l.snaps[:0])
	snaps := l.snaps
	for i, s := range snaps {
		if !l.freshSnap(s, now) {
			l.metrics.StaleTelemetry++
			l.cStale.Inc()
			snaps[i] = conservativeView(s, l.cfg)
		}
	}
	l.gHeadroom.Set(float64(l.node.Headroom()))
	planned := false
	if l.resync {
		// First generation after a restart: rebuild charge tracking from
		// observed telemetry without re-planning charges already in flight.
		for _, s := range snaps {
			l.was[s.Name] = s.Charging
		}
		l.resync = false
	} else if l.plans && l.coordinates() {
		planned = l.planFresh(now, snaps)
	}
	if !planned {
		l.protect(now, snaps)
	}
	if l.heartbeat {
		for _, ep := range l.agents {
			l.b.Send(l.name, ep, "heartbeat", nil)
		}
	}
}

func (l *AsyncLeaf) coordinates() bool {
	return l.mode == ModeGlobal || l.mode == ModePriorityAware || l.mode == ModePostpone
}

// sendOverride issues an override to a rack's agent and, with retries
// enabled, tracks it until the cache confirms the setpoint (or the rack
// stopped charging, resolving it as moot). A newer override for the same
// rack supersedes the pending one. The planned current is clamped to the
// hardware's settable range up front so confirmation compares telemetry
// against the value the charger can actually report.
func (l *AsyncLeaf) sendOverride(now time.Duration, rackName string, want units.Current) {
	want = charger.ClampOverride(want)
	l.b.Send(l.name, l.agentOf(rackName), "override", want)
	l.metrics.OverridesIssued++
	l.cOverrides.Inc()
	if l.sink != nil {
		l.sink.Event(now, l.name, "override",
			"rack", rackName, "amps", strconv.Itoa(int(want)))
	}
	if !l.retry.enabled() {
		return
	}
	if old := l.pending[rackName]; old != nil {
		l.engine.Cancel(old.ev)
	}
	p := &pendingOverride{want: want, attempts: 1, issuedAt: now}
	l.pending[rackName] = p
	l.armPending(rackName, p)
}

func (l *AsyncLeaf) armPending(rackName string, p *pendingOverride) {
	p.ev = l.engine.ScheduleAfter(l.retry.attemptTimeout(p.attempts), "retry:"+l.name+"/"+rackName, func(at time.Duration) {
		l.checkPendingOne(at, rackName, p)
	})
}

func (l *AsyncLeaf) checkPendingOne(now time.Duration, rackName string, p *pendingOverride) {
	if l.down || l.pending[rackName] != p {
		return
	}
	if s, ok := l.cached(rackName); ok && s.Taken > p.issuedAt && (!s.Charging || s.Setpoint == p.want) {
		delete(l.pending, rackName)
		l.cConfirms.Inc()
		wait := (now - p.issuedAt).Seconds()
		l.hConfirm.Observe(wait)
		if l.sink != nil {
			l.sink.Event(now, l.name, "confirm",
				"rack", rackName, "wait_s", strconv.FormatFloat(wait, 'f', 1, 64))
		}
		return
	}
	if p.attempts >= l.retry.maxAttempts() {
		delete(l.pending, rackName)
		l.metrics.AbandonedOverrides++
		l.cAbandons.Inc()
		l.sink.Event(now, l.name, "abandon", "rack", rackName)
		return
	}
	p.attempts++
	l.metrics.Retries++
	l.cRetries.Inc()
	if l.sink != nil {
		l.sink.Event(now, l.name, "retry",
			"rack", rackName, "attempt", strconv.Itoa(p.attempts))
	}
	l.b.Send(l.name, l.agentOf(rackName), "override", p.want)
	p.issuedAt = now
	l.armPending(rackName, p)
}

// planFresh detects racks whose charge began since the previous poll —
// judged from fresh telemetry only, so a conservatively-assumed stale rack
// is never mistaken for a new charging sequence — and plans their currents
// from this breaker's available power. It reports whether a plan was issued.
func (l *AsyncLeaf) planFresh(now time.Duration, snaps []Snapshot) bool {
	var fresh []core.RackInfo
	var it units.Power
	for i, s := range snaps {
		if s.InputUp {
			it += s.ITLoad
		}
		if !l.freshSnap(s, now) {
			continue
		}
		if s.Charging && !l.was[s.Name] {
			fresh = append(fresh, core.RackInfo{ID: i, Name: s.Name, Priority: s.Priority, DOD: s.DOD})
		}
		l.was[s.Name] = s.Charging
	}
	if len(fresh) == 0 {
		return false
	}
	available := l.node.Limit() - it
	var plan []core.Assignment
	switch l.mode {
	case ModeGlobal:
		plan = core.PlanGlobal(available, fresh, l.cfg)
	default:
		cfg := l.cfg
		cfg.AllowPostpone = l.mode == ModePostpone
		plan = core.PlanPriorityAware(available, fresh, cfg)
	}
	l.metrics.PlansComputed++
	l.cPlans.Inc()
	if l.sink != nil {
		l.sink.Event(now, l.name, "plan",
			"starts", strconv.Itoa(len(fresh)),
			"available_w", strconv.FormatFloat(float64(available), 'f', 0, 64))
	}
	for _, asg := range plan {
		if asg.DOD <= 0 || asg.Postponed {
			continue
		}
		l.sendOverride(now, asg.Name, asg.Current)
	}
	return true
}

// protect throttles and caps from cached state when the breaker is
// overloaded, mirroring the synchronous controller's policy.
func (l *AsyncLeaf) protect(now time.Duration, snaps []Snapshot) {
	var wouldBe units.Power
	for _, s := range snaps {
		if s.InputUp {
			wouldBe += s.Demand + s.Recharge
		}
	}
	excess := wouldBe - l.node.Limit()
	if excess <= 0 {
		for _, s := range snaps {
			l.b.Send(l.name, l.agentOf(s.Name), "uncap", l.uncapSelf)
		}
		return
	}
	if l.coordinates() {
		var active []core.ActiveCharge
		for i, s := range snaps {
			if s.InputUp && s.Charging {
				active = append(active, core.ActiveCharge{
					RackInfo: core.RackInfo{ID: i, Name: s.Name, Priority: s.Priority, DOD: s.DOD},
					Current:  s.Setpoint,
				})
			}
		}
		ids := core.ThrottleToMinimum(excess, active, l.cfg)
		if len(ids) > 0 {
			l.metrics.ThrottleEvents++
			l.cThrottles.Inc()
			if l.sink != nil {
				l.sink.Event(now, l.name, "throttle",
					"sheds", strconv.Itoa(len(ids)),
					"excess_w", strconv.FormatFloat(float64(excess), 'f', 0, 64))
			}
		}
		min := l.cfg.Surface.MinCurrent()
		for _, id := range ids {
			s := snaps[id]
			l.sendOverride(now, s.Name, min)
			// Projected recovery only counts for racks whose setpoint is
			// actually known; a stale rack's assumed worst-case setpoint
			// must not offset the excess.
			if l.freshSnap(s, now) {
				excess -= units.Power(float64(s.Setpoint-min) * l.cfg.WattsPerAmp)
			}
		}
	}
	if excess <= 0 {
		return
	}
	l.applyCaps(now, snaps, excess)
}

// applyCaps distributes a server power reduction lowest-priority-first via
// cap messages.
func (l *AsyncLeaf) applyCaps(now time.Duration, snaps []Snapshot, needed units.Power) {
	order := append([]Snapshot(nil), snaps...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Priority > order[j].Priority })
	var applied, it units.Power
	for _, s := range order {
		if s.InputUp {
			it += s.ITLoad
		}
	}
	for _, s := range order {
		if needed <= 0 {
			l.b.Send(l.name, l.agentOf(s.Name), "uncap", l.uncapSelf)
			continue
		}
		if !s.InputUp {
			continue
		}
		cut := s.Demand
		if cut > needed {
			cut = needed
		}
		l.b.Send(l.name, l.agentOf(s.Name), "cap", CapRequest{Source: l.name, Level: s.Demand - cut})
		needed -= cut
		applied += cut
	}
	if applied > 0 && l.sink != nil {
		l.sink.Event(now, l.name, "cap",
			"applied_w", strconv.FormatFloat(float64(applied), 'f', 0, 64))
	}
	if applied > l.metrics.MaxCapping {
		l.metrics.MaxCapping = applied
		if it > 0 {
			l.metrics.MaxCappingFraction = units.Fraction(float64(applied) / float64(it))
		}
	}
	// CappedEnergy integrates at the poll period: caps hold until at least
	// the next generation.
	l.metrics.CappedEnergy += units.EnergyOver(applied, l.pollPeriod)
}

// handle serves upper-controller requests. A crashed leaf serves nothing:
// requests go unanswered (the upper's evaluation deadline copes) and
// directives vanish, as they would with a dead process.
func (l *AsyncLeaf) handle(now time.Duration, msg *bus.Message) {
	if l.inj != nil && !l.inj.Up(l.name, now) {
		if !l.down {
			l.crash()
		}
		return
	}
	if l.down {
		return
	}
	switch msg.Kind {
	case "aggregate":
		// A fresh slice: the upper keeps the reply until the next one.
		snaps := l.appendSnapshots(make([]Snapshot, 0, len(l.racks)))
		var total units.Power
		for _, s := range snaps {
			if s.InputUp {
				total += s.ITLoad + s.Recharge
			}
		}
		l.b.Reply(now, msg, AggregateReply{Power: total, Racks: snaps})
	case "setcurrents":
		currents := msg.Payload.(map[string]units.Current)
		for _, name := range sortedKeys(currents) {
			l.sendOverride(now, name, currents[name])
		}
	case "caps":
		caps := msg.Payload.(map[string]units.Power)
		for _, name := range sortedKeys(caps) {
			l.b.Send(l.name, l.agentOf(name), "cap", CapRequest{Source: l.upperSource, Level: caps[name]})
		}
	case "uncaps":
		for _, name := range msg.Payload.([]string) {
			l.b.Send(l.name, l.agentOf(name), "uncap", l.uncapUpper)
		}
	case "pausecharges":
		for _, name := range msg.Payload.([]string) {
			l.b.Send(l.name, l.agentOf(name), "postpone", nil)
			// A pending override for a rack being paused is moot; cancel it
			// rather than let retries race the pause.
			if p := l.pending[name]; p != nil {
				l.engine.Cancel(p.ev)
				delete(l.pending, name)
			}
			l.was[name] = false
		}
	case "resumecharges":
		currents := msg.Payload.(map[string]units.Current)
		for _, name := range sortedKeys(currents) {
			l.b.Send(l.name, l.agentOf(name), "resume", currents[name])
		}
	default:
		panic(fmt.Errorf("dynamo: leaf %s received unknown message kind %q", l.name, msg.Kind))
	}
}

// sortedKeys returns a map's keys in sorted order: message emission must be
// deterministic or fault-injection draws (and event ordering) would vary
// run-to-run with Go's map iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// AsyncUpper is the message-driven upper-level controller (SB or MSB): it
// aggregates exclusively through leaf controllers, plans charging sequences
// at the hierarchy root, and directs leaves to throttle or cap on overload.
// Override delivery (confirmation and retries) is owned by the leaves it
// forwards through.
type AsyncUpper struct {
	name       string
	node       *power.Node
	b          *bus.Bus
	engine     *sim.Engine
	cfg        core.Config
	mode       Mode
	leaves     []string
	byName     []string // leaves ordered by their first rack's name
	pollPeriod time.Duration
	agg        map[string]AggregateReply
	snaps      []Snapshot // evaluate's view buffer, reused every generation
	was        map[string]bool
	metrics    Metrics

	deadlineLabel string

	inj        *faults.Injector
	staleAfter time.Duration
	evalAfter  time.Duration
	gen        uint64
	down       bool
	resync     bool

	// Storm admission state: the queue of paused recharges, and the grants
	// in flight — racks told to resume that telemetry has not yet confirmed
	// charging. A grant unconfirmed past the resume timeout is re-enqueued,
	// so a lost resume message degrades a rack's charge start, never loses it.
	stormQ  *storm.Queue
	resumed map[string]time.Duration
	grid    *grid.Policy // nil unless the grid signal plane is attached

	obsHandles
}

// UpperEndpoint returns the bus endpoint name for an upper controller.
func UpperEndpoint(nodeName string) string { return "ctl/" + nodeName }

// NewAsyncUpper registers an upper controller polling the given leaf
// controllers every poll period.
func NewAsyncUpper(b *bus.Bus, engine *sim.Engine, node *power.Node, leaves []*AsyncLeaf, mode Mode, cfg core.Config, poll time.Duration) *AsyncUpper {
	return NewAsyncUpperOpts(b, engine, node, leaves, mode, cfg, poll, AsyncOptions{})
}

// NewAsyncUpperOpts is NewAsyncUpper with degraded-mode options (Retry and
// Heartbeat are leaf concerns and ignored here).
func NewAsyncUpperOpts(b *bus.Bus, engine *sim.Engine, node *power.Node, leaves []*AsyncLeaf, mode Mode, cfg core.Config, poll time.Duration, opts AsyncOptions) *AsyncUpper {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	u := &AsyncUpper{
		name:       UpperEndpoint(node.Name()),
		node:       node,
		b:          b,
		engine:     engine,
		cfg:        cfg,
		mode:       mode,
		pollPeriod: poll,
		agg:        make(map[string]AggregateReply),
		was:        make(map[string]bool),
		inj:        opts.Injector,
		staleAfter: opts.StaleAfter,
		evalAfter:  opts.evalAfter(poll),
	}
	u.deadlineLabel = "deadline:" + u.name
	u.obsHandles = newObsHandles(opts.Obs, node.Name())
	u.grid = opts.Grid
	if opts.Storm != nil {
		u.stormQ = storm.NewQueue(*opts.Storm)
		u.resumed = make(map[string]time.Duration)
		if opts.Obs != nil {
			u.stormQ.SetObs(opts.Obs)
		}
	}
	for _, l := range leaves {
		u.leaves = append(u.leaves, l.name)
	}
	// Flattening the aggregates in this order yields a name-sorted view
	// outright whenever each leaf owns a contiguous range of rack names.
	ordered := slices.Clone(leaves)
	slices.SortStableFunc(ordered, func(a, b *AsyncLeaf) int { return strings.Compare(a.firstRack(), b.firstRack()) })
	for _, l := range ordered {
		u.byName = append(u.byName, l.name)
	}
	b.Register(u.name, func(now time.Duration, msg *bus.Message) {
		panic(fmt.Errorf("dynamo: upper %s received unexpected %q", u.name, msg.Kind))
	})
	engine.Every(poll, "poll:"+u.name, u.poll)
	return u
}

// Metrics returns the controller's protective-action counters.
func (u *AsyncUpper) Metrics() Metrics { return u.metrics }

// Down reports whether the controller is currently crashed.
func (u *AsyncUpper) Down() bool { return u.down }

func (u *AsyncUpper) coordinates() bool {
	return u.mode == ModeGlobal || u.mode == ModePriorityAware || u.mode == ModePostpone
}

// StormQueue returns the controller's admission queue, nil unless storm
// admission is armed. Breaker guards attach to it so charges they pause
// re-enter through admission rather than the guards' own quiet-time resume.
func (u *AsyncUpper) StormQueue() *storm.Queue { return u.stormQ }

func (u *AsyncUpper) crash() {
	u.down = true
	u.metrics.Crashes++
	u.cCrashes.Inc()
	u.agg = make(map[string]AggregateReply)
	u.was = make(map[string]bool)
	if u.stormQ != nil {
		// The in-memory queue dies with the process; racks keep their
		// pending DOD locally and the restart sweep rebuilds it.
		u.stormQ.Reset()
		u.resumed = make(map[string]time.Duration)
	}
}

func (u *AsyncUpper) poll(now time.Duration) {
	up := !u.down
	if u.inj != nil {
		up = u.inj.Up(u.name, now)
	}
	if !up {
		if !u.down {
			u.crash()
		}
		return
	}
	if u.down {
		u.down = false
		u.resync = true
		u.metrics.Restarts++
		u.cRestarts.Inc()
		u.sink.Event(now, u.name, "restart")
	}
	u.gen++
	g := &pollGen{c: u, gen: u.gen, pending: len(u.leaves)}
	for _, ep := range u.leaves {
		ep := ep
		u.b.Request(u.name, ep, "aggregate", nil, func(now time.Duration, payload any) {
			u.agg[ep] = payload.(AggregateReply)
			g.replied(now)
		})
	}
	u.engine.PostAfter(u.evalAfter, u.deadlineLabel, g)
}

func (u *AsyncUpper) current(gen uint64) bool { return u.gen == gen && !u.down }

// sortByName orders snapshots by rack name, in one pass when they already
// are.
func sortByName(snaps []Snapshot) {
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Name < snaps[i-1].Name {
			slices.SortFunc(snaps, func(a, b Snapshot) int { return strings.Compare(a.Name, b.Name) })
			return
		}
	}
}

// leafOf returns the leaf endpoint owning a rack name in the current
// aggregate generation.
func (u *AsyncUpper) leafOf(rackName string) string {
	for _, ep := range u.leaves {
		for _, s := range u.agg[ep].Racks {
			if s.Name == rackName {
				return ep
			}
		}
	}
	return ""
}

// fresh reports whether a snapshot is within the upper's staleness bound.
func (u *AsyncUpper) fresh(s Snapshot, now time.Duration) bool {
	return u.staleAfter <= 0 || now-s.Taken <= u.staleAfter
}

func (u *AsyncUpper) evaluate(now time.Duration) {
	// Deterministic flattened view, stale entries rewritten conservatively
	// (a crashed or unreachable leaf leaves its racks' snapshots aging in
	// the aggregate cache; they are assumed to draw worst case).
	snaps := u.snaps[:0]
	for _, ep := range u.byName {
		snaps = append(snaps, u.agg[ep].Racks...)
	}
	sortByName(snaps)
	u.snaps = snaps
	stale := 0
	for i, s := range snaps {
		if !u.fresh(s, now) {
			u.metrics.StaleTelemetry++
			u.cStale.Inc()
			stale++
			snaps[i] = conservativeView(s, u.cfg)
		}
	}
	if u.sink != nil {
		u.gHeadroom.Set(float64(u.node.Headroom()))
		// One telemetry summary per evaluation generation (per-rack events
		// would flood the flight recorder at fleet scale).
		u.sink.Event(now, u.name, "telemetry",
			"fresh", strconv.Itoa(len(snaps)-stale),
			"stale", strconv.Itoa(stale),
			"headroom_w", strconv.FormatFloat(float64(u.node.Headroom()), 'f', 0, 64))
	}

	if u.resync {
		for _, s := range snaps {
			u.was[s.Name] = s.Charging
			// Rebuild the admission queue a crash wiped: any paused charge
			// still owed re-enters admission from its rack-local pending DOD.
			if u.stormQ != nil && u.fresh(s, now) && !s.Charging && s.PendingDOD > 0 {
				u.stormQ.Enqueue(now, storm.Request{Name: s.Name, Priority: s.Priority, DOD: s.PendingDOD, Since: s.ChargeStart})
			}
		}
		u.resync = false
	} else if u.coordinates() {
		// A generation that planned (or paused a storm) defers protection and
		// admission to the next poll: the directives are in flight and cached
		// setpoints are stale.
		if u.planFresh(now, snaps) {
			return
		}
	}
	u.protect(now, snaps)
	u.admitStorm(now, snaps)
}

func (u *AsyncUpper) planFresh(now time.Duration, snaps []Snapshot) bool {
	var fresh []core.RackInfo
	var it units.Power
	for i, s := range snaps {
		if s.InputUp {
			it += s.ITLoad
		}
		if !u.fresh(s, now) {
			continue
		}
		if u.stormQ != nil {
			if _, granted := u.resumed[s.Name]; granted {
				// Admission grant in flight; observed charging confirms it.
				// Either way this is not a fresh start to re-plan.
				if s.Charging {
					delete(u.resumed, s.Name)
					u.was[s.Name] = true
				}
				continue
			}
			if s.Charging && u.stormQ.Contains(s.Name) {
				// Charging while queued and not granted: a new outage cycle
				// restarted the charge locally (or our pause was lost). The
				// queued request is stale — supersede it and let fresh-start
				// detection below route the charge back through admission.
				u.stormQ.Remove(s.Name)
				u.was[s.Name] = false
			}
			if !s.Charging && s.PendingDOD > 0 && !u.stormQ.Contains(s.Name) {
				// Paused charge nobody is tracking (a guard paused it while
				// detached, or an enqueue was lost to a crash): adopt it.
				u.stormQ.Enqueue(now, storm.Request{Name: s.Name, Priority: s.Priority, DOD: s.PendingDOD, Since: s.ChargeStart})
			}
		}
		if s.Charging && !u.was[s.Name] {
			fresh = append(fresh, core.RackInfo{ID: i, Name: s.Name, Priority: s.Priority, DOD: s.DOD})
		}
		u.was[s.Name] = s.Charging
	}
	if len(fresh) == 0 {
		return false
	}
	deferred := u.grid != nil && u.grid.DeferCharging(now)
	if u.stormQ != nil && (deferred || len(fresh) >= u.stormQ.Config().MinRacks || u.stormQ.Len() > 0) {
		// Correlated start (or a storm already in progress, or the grid
		// policy deferring charge admission): pause the fresh starts into
		// the admission queue instead of planning them. The racks keep
		// charging until the pause lands; leaving was=false means a rack
		// whose pause message is lost shows up fresh again next generation
		// and is re-paused.
		if len(fresh) >= u.stormQ.Config().MinRacks {
			u.stormQ.NoteStorm(now)
		}
		if u.sink != nil {
			u.sink.Event(now, u.name, "storm-pause",
				"starts", strconv.Itoa(len(fresh)),
				"deferred", strconv.FormatBool(deferred))
		}
		byLeaf := map[string][]string{}
		for _, ri := range fresh {
			u.stormQ.Enqueue(now, storm.Request{Name: ri.Name, Priority: ri.Priority, DOD: snaps[ri.ID].DOD, Since: snaps[ri.ID].ChargeStart})
			u.was[ri.Name] = false
			if leaf := u.leafOf(ri.Name); leaf != "" {
				byLeaf[leaf] = append(byLeaf[leaf], ri.Name)
			}
		}
		for _, leaf := range sortedKeys(byLeaf) {
			u.b.Send(u.name, leaf, "pausecharges", byLeaf[leaf])
		}
		return true
	}
	available := u.effLimit(now) - it
	var plan []core.Assignment
	switch u.mode {
	case ModeGlobal:
		plan = core.PlanGlobal(available, fresh, u.cfg)
	default:
		cfg := u.cfg
		cfg.AllowPostpone = u.mode == ModePostpone
		plan = core.PlanPriorityAware(available, fresh, cfg)
	}
	u.metrics.PlansComputed++
	u.cPlans.Inc()
	if u.sink != nil {
		u.sink.Event(now, u.name, "plan",
			"starts", strconv.Itoa(len(fresh)),
			"available_w", strconv.FormatFloat(float64(available), 'f', 0, 64))
	}
	byLeaf := map[string]map[string]units.Current{}
	for _, asg := range plan {
		if asg.DOD <= 0 || asg.Postponed {
			continue
		}
		leaf := u.leafOf(asg.Name)
		if leaf == "" {
			continue
		}
		if byLeaf[leaf] == nil {
			byLeaf[leaf] = map[string]units.Current{}
		}
		byLeaf[leaf][asg.Name] = asg.Current
		u.metrics.OverridesIssued++
		u.cOverrides.Inc()
	}
	for _, leaf := range sortedKeys(byLeaf) {
		u.b.Send(u.name, leaf, "setcurrents", byLeaf[leaf])
	}
	return true
}

// resumeTimeout is how long a resume grant may sit unconfirmed by telemetry
// before it is assumed lost and the request re-enqueued. Several poll round
// trips: long enough for the grant to land and its effect to be read back,
// short enough that a lost grant costs queue time, not the charge.
func (u *AsyncUpper) resumeTimeout() time.Duration { return 4 * u.pollPeriod }

// effLimit is the feed limit planning and admission budget against: the
// breaker limit, further clamped by the interconnection cap when the grid
// signal plane is attached.
func (u *AsyncUpper) effLimit(now time.Duration) units.Power {
	if u.grid != nil {
		return u.grid.EffectiveLimit(now)
	}
	return u.node.Limit()
}

// admitStorm reconciles in-flight resume grants against telemetry, then
// admits the next wave of paused recharges under the breaker's measured
// headroom net of the configured reserve.
func (u *AsyncUpper) admitStorm(now time.Duration, snaps []Snapshot) {
	if u.stormQ == nil {
		return
	}
	for _, s := range snaps {
		t, granted := u.resumed[s.Name]
		if !granted || !u.fresh(s, now) {
			continue
		}
		switch {
		case s.Charging:
			delete(u.resumed, s.Name)
			u.was[s.Name] = true
		case now-t > u.resumeTimeout():
			// Lost resume: back through admission with the rack's own
			// pending DOD (zero means the pause itself never landed, in
			// which case fresh-start detection owns the rack again).
			delete(u.resumed, s.Name)
			if s.PendingDOD > 0 {
				u.stormQ.Enqueue(now, storm.Request{Name: s.Name, Priority: s.Priority, DOD: s.PendingDOD, Since: s.ChargeStart})
			}
		}
	}
	if u.stormQ.Len() == 0 {
		return
	}
	if u.grid != nil && u.grid.DeferCharging(now) {
		// Grid policy says hold: queued recharges wait out the price/carbon
		// spike (the SLA valve in the policy bounds how long).
		return
	}
	// Headroom from the same conservative view protection uses: stale racks
	// are assumed charging at worst case, so staleness under-admits rather
	// than over-admits. The budget derives from the effective feed limit so
	// a shrinking interconnection cap re-scopes every admission wave.
	var wouldBe units.Power
	for _, s := range snaps {
		if s.InputUp {
			wouldBe += s.ITLoad + s.Recharge
		}
	}
	limit := u.effLimit(now)
	budget := limit - wouldBe - u.stormQ.Config().Margin(limit)
	grants := u.stormQ.Admit(now, budget, u.cfg)
	byLeaf := map[string]map[string]units.Current{}
	for _, g := range grants {
		leaf := u.leafOf(g.Name)
		if leaf == "" {
			// Unroutable (the owning leaf's reply never arrived this
			// generation): requeue rather than lose the charge.
			u.stormQ.Enqueue(now, g.Request)
			continue
		}
		if byLeaf[leaf] == nil {
			byLeaf[leaf] = map[string]units.Current{}
		}
		byLeaf[leaf][g.Name] = g.Current
		u.resumed[g.Name] = now
		u.metrics.OverridesIssued++
		u.cOverrides.Inc()
	}
	for _, leaf := range sortedKeys(byLeaf) {
		u.b.Send(u.name, leaf, "resumecharges", byLeaf[leaf])
	}
}

func (u *AsyncUpper) protect(now time.Duration, snaps []Snapshot) {
	var wouldBe units.Power
	for _, s := range snaps {
		if s.InputUp {
			wouldBe += s.Demand + s.Recharge
		}
	}
	excess := wouldBe - u.effLimit(now)
	if excess <= 0 {
		for _, ep := range u.leaves {
			racks := u.agg[ep].Racks
			names := make([]string, len(racks))
			for i := range racks {
				names[i] = racks[i].Name
			}
			u.b.Send(u.name, ep, "uncaps", names)
		}
		return
	}
	// Battery throttling first, lowest-priority-highest-DOD order.
	var active []core.ActiveCharge
	for i, s := range snaps {
		if s.InputUp && s.Charging {
			active = append(active, core.ActiveCharge{
				RackInfo: core.RackInfo{ID: i, Name: s.Name, Priority: s.Priority, DOD: s.DOD},
				Current:  s.Setpoint,
			})
		}
	}
	ids := core.ThrottleToMinimum(excess, active, u.cfg)
	if len(ids) > 0 {
		u.metrics.ThrottleEvents++
		u.cThrottles.Inc()
		if u.sink != nil {
			u.sink.Event(now, u.name, "throttle",
				"sheds", strconv.Itoa(len(ids)),
				"excess_w", strconv.FormatFloat(float64(excess), 'f', 0, 64))
		}
	}
	min := u.cfg.Surface.MinCurrent()
	byLeaf := map[string]map[string]units.Current{}
	for _, id := range ids {
		s := snaps[id]
		leaf := u.leafOf(s.Name)
		if leaf == "" {
			continue
		}
		if byLeaf[leaf] == nil {
			byLeaf[leaf] = map[string]units.Current{}
		}
		byLeaf[leaf][s.Name] = min
		u.metrics.OverridesIssued++
		u.cOverrides.Inc()
		if u.fresh(s, now) {
			excess -= units.Power(float64(s.Setpoint-min) * u.cfg.WattsPerAmp)
		}
	}
	for _, leaf := range sortedKeys(byLeaf) {
		u.b.Send(u.name, leaf, "setcurrents", byLeaf[leaf])
	}
	if excess <= 0 {
		return
	}
	// Server capping as the last resort, delegated to the leaves.
	order := append([]Snapshot(nil), snaps...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Priority > order[j].Priority })
	caps := map[string]map[string]units.Power{}
	var applied, it units.Power
	for _, s := range order {
		if s.InputUp {
			it += s.ITLoad
		}
	}
	for _, s := range order {
		if excess <= 0 {
			break
		}
		if !s.InputUp {
			continue
		}
		cut := s.Demand
		if cut > excess {
			cut = excess
		}
		leaf := u.leafOf(s.Name)
		if leaf == "" {
			continue
		}
		if caps[leaf] == nil {
			caps[leaf] = map[string]units.Power{}
		}
		caps[leaf][s.Name] = s.Demand - cut
		excess -= cut
		applied += cut
	}
	for _, leaf := range sortedKeys(caps) {
		u.b.Send(u.name, leaf, "caps", caps[leaf])
	}
	if applied > 0 && u.sink != nil {
		u.sink.Event(now, u.name, "cap",
			"applied_w", strconv.FormatFloat(float64(applied), 'f', 0, 64))
	}
	if applied > u.metrics.MaxCapping {
		u.metrics.MaxCapping = applied
		if it > 0 {
			u.metrics.MaxCappingFraction = units.Fraction(float64(applied) / float64(it))
		}
	}
}

// WireBusFaults attaches injector-driven perturbation to the bus carrying
// the async control plane: telemetry messages ("read"/"aggregate" requests
// and all replies) are subject to read loss; command messages (overrides,
// caps, heartbeats, leaf directives) are subject to command loss, delay, and
// duplication.
func WireBusFaults(b *bus.Bus, inj *faults.Injector) {
	b.Perturb = func(now time.Duration, msg *bus.Message) (bool, time.Duration, int) {
		telemetry := msg.Kind == "read" || msg.Kind == "aggregate" ||
			len(msg.Kind) > 6 && msg.Kind[:6] == "reply:"
		if telemetry {
			if inj.DropRead() {
				return true, 0, 0
			}
			return false, 0, 0
		}
		if inj.DropCommand() {
			return true, 0, 0
		}
		dup := 0
		if inj.DupCommand() {
			dup = 1
		}
		return false, inj.CommandDelay(), dup
	}
}
