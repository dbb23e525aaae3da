package dynamo

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"coordcharge/internal/bus"
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
// in dynamo.go runs the same decision core (decide.go) over direct reads —
// convenient for large parameter sweeps; this variant makes polling cadence,
// network latency, and message loss first-class, and upper-level
// controllers communicate exclusively through leaf controllers, as in
// production.
//
// Protocol, all over internal/bus:
//
//	controller → agent   "read"        → reply *bus.Box[Snapshot]
//	controller → agent   "override"    (units.Current; one-way)
//	controller → agent   "cap"/"uncap" (CapRequest/string; one-way)
//	controller → agent   "heartbeat"   (one-way watchdog keepalive)
//	controller → agent   "postpone"    (pause a charge; one-way)
//	controller → agent   "resume"      (units.Current admission grant; one-way)
//	upper → leaf         "aggregate"   → reply *bus.Box[AggregateReply]
//	upper → leaf         "setcurrents" (map[string]units.Current; one-way)
//	upper → leaf         "caps"        (map[string]units.Power; one-way)
//	upper → leaf         "uncaps"      (*bus.Box[[]string]; one-way)
//	upper → leaf         "pausecharges"  ([]string; one-way)
//	upper → leaf         "resumecharges" (map[string]units.Current; one-way)
//
// The boxed payloads are the ones every quiescent poll sends. Each comes
// from a free list its sender owns, and the bus hands it back when the
// message carrying it is recycled, so a receiver copies what it keeps. A
// request carries its poll generation as its tag, and the reply brings the
// tag back, so a reply counts only toward the generation that asked.
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

// evalAfter is how long after a poll opens an incomplete generation
// evaluates anyway from the telemetry that did arrive: 0.8 of the period.
// Lost replies then degrade decisions instead of stalling the controller
// forever, and the deadline always fires before the next poll opens.
func evalAfter(poll time.Duration) time.Duration {
	return time.Duration(0.8 * float64(poll))
}

// AsyncAgent is the message-driven per-rack request handler.
type AsyncAgent struct {
	name        string
	settleLabel string
	r           *rack.Rack
	b           *bus.Bus
	engine      *sim.Engine
	settle      time.Duration
	sched       *faults.Component  // the agent's crash schedule; nil never crashes
	snaps       bus.Pool[Snapshot] // read replies
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
func (a *AsyncAgent) SetFaults(inj *faults.Injector) {
	a.sched = nil
	if inj != nil {
		a.sched = inj.Component(a.name)
	}
}

func (a *AsyncAgent) handle(now time.Duration, msg *bus.Message) {
	if !a.sched.Up(now) {
		return
	}
	switch msg.Kind {
	case "read":
		x := a.snaps.Get()
		x.V = snapshotRack(a.r, now)
		a.b.Reply(now, msg, x)
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
	decider
	pollLoop
	b          *bus.Bus
	self       *bus.Endpoint
	plans      bool
	pollPeriod time.Duration
	agents     []*bus.Endpoint // agent endpoints in poll order
	racks      []leafRack      // the polled racks in name order: the telemetry cache
	slot       map[string]int  // rack name -> index in racks
	snaps      []Snapshot      // evaluate's view buffer, reused every generation
	viewRack   []int           // the index in racks of each entry of snaps
	was        map[string]bool
	tracker    overrideTracker // overrides by index in racks
	heartbeat  bool
	resyncing  bool // the first generation after a restart rebuilds was

	// Built once: the cap sources (boxed as uncap payloads) of the leaf's
	// own caps and those it forwards, and the read-reply callback.
	upperSource           string
	uncapSelf, uncapUpper any
	onRead                bus.Handler

	aggs bus.Pool[AggregateReply] // aggregate replies, rack slices reused
}

// leafRack is one polled rack: its agent's endpoint and latest snapshot.
type leafRack struct {
	name  string
	agent *bus.Endpoint
	snap  Snapshot
	have  bool // snap holds telemetry; a crash clears it
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
	name := LeafEndpoint(node.Name())
	l := &AsyncLeaf{
		b:          b,
		plans:      plans,
		pollPeriod: poll,
		slot:       make(map[string]int),
		was:        make(map[string]bool),
		heartbeat:  opts.Heartbeat,
	}
	l.decider = newDecider(l, name, node, mode, cfg, opts.StaleAfter, opts.Injector, opts.Obs)
	l.self = b.Endpoint(name)
	l.upperSource = name + "/upper"
	l.uncapSelf, l.uncapUpper = name, l.upperSource
	l.onRead = l.readReply
	for _, r := range agentRacks {
		ep := b.Endpoint(AgentEndpoint(r.Name()))
		l.agents = append(l.agents, ep)
		l.racks = append(l.racks, leafRack{name: r.Name(), agent: ep})
	}
	slices.SortFunc(l.racks, func(a, b leafRack) int { return strings.Compare(a.name, b.name) })
	for i, lr := range l.racks {
		l.slot[lr.name] = i
	}
	l.pollLoop = newPollLoop(l, engine, name, len(l.agents), evalAfter(poll))
	l.tracker = newOverrideTracker(&l.decider, l, opts.Retry, engine, "retry:"+name+"/", len(l.racks))
	b.Register(name, l.handle)
	engine.Every(poll, "poll:"+name, l.tick)
	return l
}

// forget drops the telemetry cache, charge tracking and tracked overrides a
// crash loses.
func (l *AsyncLeaf) forget(time.Duration) {
	for i := range l.racks {
		l.racks[i].have = false
	}
	l.was = make(map[string]bool)
	l.tracker.reset()
}

// resync restarts with empty state; the first completed generation rebuilds
// the charge-tracking state from telemetry before planning resumes.
func (l *AsyncLeaf) resync(time.Duration) { l.resyncing = true }

// request asks every agent for a fresh snapshot. The generation evaluates
// when the last reply arrives, or — should replies be lost — at the
// evaluation deadline, from whatever telemetry did arrive.
func (l *AsyncLeaf) request(_ time.Duration, gen uint64) {
	for _, ep := range l.agents {
		l.b.RequestTo(l.self, ep, "read", gen, nil, l.onRead)
	}
}

// readReply caches a read reply's snapshot and counts the reply toward the
// generation that asked for it.
func (l *AsyncLeaf) readReply(now time.Duration, r *bus.Message) {
	snap := &r.Payload.(*bus.Box[Snapshot]).V
	// A delayed duplicate must not overwrite newer telemetry.
	if c := &l.racks[l.slot[snap.Name]]; !c.have || snap.Taken >= c.snap.Taken {
		c.snap, c.have = *snap, true
	}
	l.replied(now, r.Tag)
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

// firstRack returns the leaf's first rack name in name order.
func (l *AsyncLeaf) firstRack() string {
	if len(l.racks) == 0 {
		return ""
	}
	return l.racks[0].name
}

// agentOf returns the endpoint of a rack's agent.
func (l *AsyncLeaf) agentOf(rackName string) *bus.Endpoint {
	if i, ok := l.slot[rackName]; ok {
		return l.racks[i].agent
	}
	return l.b.Endpoint(AgentEndpoint(rackName))
}

// override issues an override to a rack this leaf polls, through the
// tracker.
func (l *AsyncLeaf) override(now time.Duration, rackName string, want units.Current) {
	if i, ok := l.slot[rackName]; ok {
		l.tracker.issue(now, i, want)
	}
}

// deliver, readback and rackName carry the override tracker's commands over
// the bus; confirming telemetry is whatever the polls last cached.
func (l *AsyncLeaf) deliver(_ time.Duration, i int, want units.Current) bool {
	l.b.SendTo(l.self, l.racks[i].agent, "override", want)
	return true
}

func (l *AsyncLeaf) readback(i int) (Snapshot, time.Duration, bool) {
	return l.racks[i].snap, 0, l.racks[i].have
}

func (l *AsyncLeaf) rackName(i int) string { return l.racks[i].name }

// evaluate runs the leaf's control logic over the poll generation, stale
// entries rewritten conservatively. A generation that just planned skips
// protection: the plan's overrides are still in flight and the cached
// setpoints are stale; the next poll sees their effect (plan, then monitor —
// the paper's sequencing).
func (l *AsyncLeaf) evaluate(now time.Duration) {
	l.snaps, l.viewRack = l.snaps[:0], l.viewRack[:0]
	for i := range l.racks {
		if c := &l.racks[i]; c.have {
			l.snaps = append(l.snaps, c.snap)
			l.viewRack = append(l.viewRack, i)
		}
	}
	snaps := l.snaps
	l.rewriteStale(snaps, now)
	l.gHeadroom.Set(float64(l.node.Headroom()))
	planned := false
	if l.resyncing {
		// First generation after a restart: rebuild charge tracking from
		// observed telemetry without re-planning charges already in flight.
		for i := range snaps {
			l.was[snaps[i].Name] = snaps[i].Charging
		}
		l.resyncing = false
	} else if l.plans && l.mode.coordinates() {
		planned = l.planFresh(now, snaps)
	}
	if !planned {
		l.protect(now, snaps)
	}
	if l.heartbeat {
		for _, ep := range l.agents {
			l.b.SendTo(l.self, ep, "heartbeat", nil)
		}
	}
}

// planFresh detects racks whose charge began since the previous poll —
// judged from fresh telemetry only, so a conservatively-assumed stale rack
// is never mistaken for a new charging sequence — and plans their currents
// from this breaker's available power. It reports whether a plan was issued.
func (l *AsyncLeaf) planFresh(now time.Duration, snaps []Snapshot) bool {
	var starts []core.RackInfo
	for i := range snaps {
		s := &snaps[i]
		if !l.fresh(s.Taken, now) {
			continue
		}
		if s.Charging && !l.was[s.Name] {
			starts = append(starts, core.RackInfo{ID: i, Name: s.Name, Priority: s.Priority, DOD: s.DOD})
		}
		l.was[s.Name] = s.Charging
	}
	if len(starts) == 0 {
		return false
	}
	available := l.effLimit(now) - l.itLoad(snaps)
	for _, asg := range l.plan(now, available, starts) {
		if asg.DOD <= 0 || asg.Postponed {
			continue
		}
		l.override(now, asg.Name, asg.Current)
	}
	return true
}

// protect throttles and caps from cached state when the breaker is
// overloaded. Caps stay in place until a generation sees no excess.
func (l *AsyncLeaf) protect(now time.Duration, snaps []Snapshot) {
	excess := l.excess(now, snaps)
	if excess <= 0 {
		for i := range snaps {
			l.b.SendTo(l.self, l.viewAgent(i), "uncap", l.uncapSelf)
		}
		return
	}
	if l.mode.coordinates() {
		min := l.cfg.Surface.MinCurrent()
		for _, id := range l.throttle(now, snaps, excess) {
			s := &snaps[id]
			l.override(now, s.Name, min)
			// Projected recovery only counts for racks whose setpoint is
			// actually known; a stale rack's assumed worst-case setpoint
			// must not offset the excess.
			if l.fresh(s.Taken, now) {
				excess -= l.recovery(s)
			}
		}
	}
	if excess <= 0 {
		return
	}
	applied, it := l.capServers(snaps, excess, func(i int, level units.Power) bool {
		l.b.SendTo(l.self, l.viewAgent(i), "cap", CapRequest{Source: l.comp, Level: level})
		return true
	}, func(i int) {
		l.b.SendTo(l.self, l.viewAgent(i), "uncap", l.uncapSelf)
	})
	// CappedEnergy integrates at the poll period: caps hold until at least
	// the next generation.
	l.noteCapping(now, applied, it, l.pollPeriod)
}

// viewAgent returns the agent endpoint of entry i of evaluate's view.
func (l *AsyncLeaf) viewAgent(i int) *bus.Endpoint { return l.racks[l.viewRack[i]].agent }

// handle serves upper-controller requests. A crashed leaf serves nothing:
// requests go unanswered (the upper's evaluation deadline copes) and
// directives vanish, as they would with a dead process.
func (l *AsyncLeaf) handle(now time.Duration, msg *bus.Message) {
	if !l.up(now) || l.down {
		return
	}
	switch msg.Kind {
	case "aggregate":
		x := l.aggs.Get()
		x.V.Racks = l.appendSnapshots(x.V.Racks[:0])
		x.V.Power = l.draw(x.V.Racks)
		l.b.Reply(now, msg, x)
	case "setcurrents":
		currents := msg.Payload.(map[string]units.Current)
		for _, name := range sortedKeys(currents) {
			l.override(now, name, currents[name])
		}
	case "caps":
		caps := msg.Payload.(map[string]units.Power)
		for _, name := range sortedKeys(caps) {
			l.b.SendTo(l.self, l.agentOf(name), "cap", CapRequest{Source: l.upperSource, Level: caps[name]})
		}
	case "uncaps":
		for _, name := range msg.Payload.(*bus.Box[[]string]).V {
			l.b.SendTo(l.self, l.agentOf(name), "uncap", l.uncapUpper)
		}
	case "pausecharges":
		for _, name := range msg.Payload.([]string) {
			l.b.SendTo(l.self, l.agentOf(name), "postpone", nil)
			// A pending override for a rack being paused is moot; cancel it
			// rather than let retries race the pause.
			if i, ok := l.slot[name]; ok {
				l.tracker.drop(i)
			}
			l.was[name] = false
		}
	case "resumecharges":
		currents := msg.Payload.(map[string]units.Current)
		for _, name := range sortedKeys(currents) {
			l.b.SendTo(l.self, l.agentOf(name), "resume", currents[name])
		}
	default:
		panic(fmt.Errorf("dynamo: leaf %s received unknown message kind %q", l.comp, msg.Kind))
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
	decider
	pollLoop
	b          *bus.Bus
	self       *bus.Endpoint
	leaves     []*bus.Endpoint // in poll order
	byName     []int           // leaf indices ordered by their first rack's name
	byEndpoint []int           // leaf indices ordered by endpoint name: the send order
	pollPeriod time.Duration
	// agg holds a copy of each leaf's latest reply, by leaf index, in
	// buffers the upper owns: the reply itself goes back to its leaf.
	agg         []AggregateReply
	onAggregate []bus.Handler      // each leaf's reply callback, by leaf index
	names       bus.Pool[[]string] // uncaps lists
	snaps       []Snapshot         // evaluate's view buffer, reused every generation
	was         map[string]bool
	resyncing   bool // the first generation after a restart rebuilds was and the queue

	// The admission grants in flight: racks told to resume that telemetry
	// has not yet confirmed charging. A grant unconfirmed past the resume
	// timeout is re-enqueued, so a lost resume message degrades a rack's
	// charge start, never loses it.
	resumed map[string]time.Duration
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
	name := UpperEndpoint(node.Name())
	u := &AsyncUpper{
		b:          b,
		self:       b.Endpoint(name),
		pollPeriod: poll,
		agg:        make([]AggregateReply, len(leaves)),
		was:        make(map[string]bool),
	}
	u.decider = newDecider(u, name, node, mode, cfg, opts.StaleAfter, opts.Injector, opts.Obs)
	u.grid = opts.Grid
	if opts.Storm != nil {
		u.armStorm(*opts.Storm, opts.Obs)
		u.resumed = make(map[string]time.Duration)
	}
	for i, l := range leaves {
		u.leaves = append(u.leaves, b.Endpoint(l.comp))
		u.byName = append(u.byName, i)
		u.byEndpoint = append(u.byEndpoint, i)
		u.onAggregate = append(u.onAggregate, func(now time.Duration, r *bus.Message) {
			rep, a := &r.Payload.(*bus.Box[AggregateReply]).V, &u.agg[i]
			a.Power, a.Racks = rep.Power, append(a.Racks[:0], rep.Racks...)
			u.replied(now, r.Tag)
		})
	}
	// Flattening the aggregates in this order yields a name-sorted view
	// outright whenever each leaf owns a contiguous range of rack names.
	slices.SortStableFunc(u.byName, func(a, b int) int { return strings.Compare(leaves[a].firstRack(), leaves[b].firstRack()) })
	slices.SortFunc(u.byEndpoint, func(a, b int) int { return strings.Compare(leaves[a].comp, leaves[b].comp) })
	u.pollLoop = newPollLoop(u, engine, name, len(u.leaves), evalAfter(poll))
	b.Register(name, func(now time.Duration, msg *bus.Message) {
		panic(fmt.Errorf("dynamo: upper %s received unexpected %q", name, msg.Kind))
	})
	engine.Every(poll, "poll:"+name, u.tick)
	return u
}

// StormQueue returns the controller's admission queue, nil unless storm
// admission is armed. Breaker guards attach to it so charges they pause
// re-enter through admission rather than the guards' own quiet-time resume.
func (u *AsyncUpper) StormQueue() *storm.Queue { return u.stormQ }

// forget drops the aggregates, charge tracking and admission grants a crash
// loses.
func (u *AsyncUpper) forget(time.Duration) {
	for i := range u.agg {
		u.agg[i] = AggregateReply{Racks: u.agg[i].Racks[:0]}
	}
	u.was = make(map[string]bool)
	if u.stormQ != nil {
		u.resumed = make(map[string]time.Duration)
	}
}

// resync restarts with empty state; the first completed generation rebuilds
// charge tracking and the admission queue from telemetry.
func (u *AsyncUpper) resync(time.Duration) { u.resyncing = true }

// request asks every leaf for its aggregate.
func (u *AsyncUpper) request(_ time.Duration, gen uint64) {
	for i, ep := range u.leaves {
		u.b.RequestTo(u.self, ep, "aggregate", gen, nil, u.onAggregate[i])
	}
}

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

// leafOf returns the index of the leaf owning a rack name in the current
// aggregate generation, or -1.
func (u *AsyncUpper) leafOf(rackName string) int {
	for i := range u.agg {
		for _, s := range u.agg[i].Racks {
			if s.Name == rackName {
				return i
			}
		}
	}
	return -1
}

// route adds a directive for a rack to its leaf's batch; it reports false
// when no leaf owned the rack in the current aggregate generation.
func route[V any](u *AsyncUpper, batch map[int]map[string]V, rackName string, v V) bool {
	leaf := u.leafOf(rackName)
	if leaf < 0 {
		return false
	}
	if batch[leaf] == nil {
		batch[leaf] = map[string]V{}
	}
	batch[leaf][rackName] = v
	return true
}

// sendBatch sends each leaf its part of a batch, in leaf name order.
func sendBatch[V any](u *AsyncUpper, kind string, batch map[int]V) {
	for _, leaf := range u.byEndpoint {
		if v, ok := batch[leaf]; ok {
			u.b.SendTo(u.self, u.leaves[leaf], kind, v)
		}
	}
}

func (u *AsyncUpper) evaluate(now time.Duration) {
	// Deterministic flattened view, stale entries rewritten conservatively
	// (a crashed or unreachable leaf leaves its racks' snapshots aging in
	// the aggregate cache; they are assumed to draw worst case).
	snaps := u.snaps[:0]
	for _, i := range u.byName {
		snaps = append(snaps, u.agg[i].Racks...)
	}
	sortByName(snaps)
	u.snaps = snaps
	stale := u.rewriteStale(snaps, now)
	if u.sink != nil {
		u.gHeadroom.Set(float64(u.node.Headroom()))
		// One telemetry summary per evaluation generation (per-rack events
		// would flood the flight recorder at fleet scale).
		u.sink.Event(now, u.comp, "telemetry",
			"fresh", strconv.Itoa(len(snaps)-stale),
			"stale", strconv.Itoa(stale),
			"headroom_w", strconv.FormatFloat(float64(u.node.Headroom()), 'f', 0, 64))
	}

	if u.resyncing {
		for i := range snaps {
			s := &snaps[i]
			u.was[s.Name] = s.Charging
			// Rebuild the admission queue a crash wiped: any paused charge
			// still owed re-enters admission from its rack-local pending DOD.
			if u.stormQ != nil && u.fresh(s.Taken, now) && !s.Charging && s.PendingDOD > 0 {
				u.stormQ.Enqueue(now, storm.Request{Name: s.Name, Priority: s.Priority, DOD: s.PendingDOD, Since: s.ChargeStart})
			}
		}
		u.resyncing = false
	} else if u.mode.coordinates() {
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
	var starts []core.RackInfo
	for i := range snaps {
		s := &snaps[i]
		if !u.fresh(s.Taken, now) {
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
			starts = append(starts, core.RackInfo{ID: i, Name: s.Name, Priority: s.Priority, DOD: s.DOD})
		}
		u.was[s.Name] = s.Charging
	}
	if len(starts) == 0 {
		return false
	}
	if u.pauseStarts(now, len(starts)) {
		// The racks keep charging until the pause lands; leaving was=false
		// means a rack whose pause message is lost shows up fresh again next
		// generation and is re-paused.
		byLeaf := map[int][]string{}
		for _, ri := range starts {
			u.stormQ.Enqueue(now, storm.Request{Name: ri.Name, Priority: ri.Priority, DOD: snaps[ri.ID].DOD, Since: snaps[ri.ID].ChargeStart})
			u.was[ri.Name] = false
			if leaf := u.leafOf(ri.Name); leaf >= 0 {
				byLeaf[leaf] = append(byLeaf[leaf], ri.Name)
			}
		}
		sendBatch(u, "pausecharges", byLeaf)
		return true
	}
	available := u.effLimit(now) - u.itLoad(snaps)
	batch := map[int]map[string]units.Current{}
	for _, asg := range u.plan(now, available, starts) {
		if asg.DOD <= 0 || asg.Postponed {
			continue
		}
		if route(u, batch, asg.Name, asg.Current) {
			u.countOverride()
		}
	}
	sendBatch(u, "setcurrents", batch)
	return true
}

// resumeTimeout is how long a resume grant may sit unconfirmed by telemetry
// before it is assumed lost and the request re-enqueued. Several poll round
// trips: long enough for the grant to land and its effect to be read back,
// short enough that a lost grant costs queue time, not the charge.
func (u *AsyncUpper) resumeTimeout() time.Duration { return 4 * u.pollPeriod }

// admitStorm reconciles in-flight resume grants against telemetry, then
// admits the next wave of paused recharges. Headroom comes from the same
// conservative view protection uses: stale racks are assumed charging at
// worst case, so staleness under-admits rather than over-admits.
func (u *AsyncUpper) admitStorm(now time.Duration, snaps []Snapshot) {
	if u.stormQ == nil {
		return
	}
	for i := range snaps {
		s := &snaps[i]
		t, granted := u.resumed[s.Name]
		if !granted || !u.fresh(s.Taken, now) {
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
	if !u.admitting(now) {
		return
	}
	batch := map[int]map[string]units.Current{}
	for _, g := range u.admit(now, u.draw(snaps)) {
		if !route(u, batch, g.Name, g.Current) {
			// Unroutable (the owning leaf's reply never arrived this
			// generation): requeue rather than lose the charge.
			u.stormQ.Enqueue(now, g.Request)
			continue
		}
		u.resumed[g.Name] = now
		u.countOverride()
	}
	sendBatch(u, "resumecharges", batch)
}

// protect throttles batteries (coordinating modes) and then caps servers
// through the leaves when the breaker is overloaded. Caps stay in place
// until a generation sees no excess: racks past the cut are left alone.
func (u *AsyncUpper) protect(now time.Duration, snaps []Snapshot) {
	excess := u.excess(now, snaps)
	if excess <= 0 {
		for li, ep := range u.leaves {
			x := u.names.Get()
			x.V = x.V[:0]
			for _, s := range u.agg[li].Racks {
				x.V = append(x.V, s.Name)
			}
			u.b.SendTo(u.self, ep, "uncaps", x)
		}
		return
	}
	if u.mode.coordinates() {
		min := u.cfg.Surface.MinCurrent()
		batch := map[int]map[string]units.Current{}
		for _, id := range u.throttle(now, snaps, excess) {
			s := &snaps[id]
			if !route(u, batch, s.Name, min) {
				continue
			}
			u.countOverride()
			if u.fresh(s.Taken, now) {
				excess -= u.recovery(s)
			}
		}
		sendBatch(u, "setcurrents", batch)
	}
	if excess <= 0 {
		return
	}
	caps := map[int]map[string]units.Power{}
	applied, it := u.capServers(snaps, excess, func(i int, level units.Power) bool {
		return route(u, caps, snaps[i].Name, level)
	}, func(int) {})
	sendBatch(u, "caps", caps)
	u.noteCapping(now, applied, it, 0)
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
