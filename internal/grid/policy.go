package grid

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"coordcharge/internal/core"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/storm"
	"coordcharge/internal/units"
)

// Metrics counts grid-policy activity over a run.
type Metrics struct {
	// CapChanges counts effective-cap level changes (series steps and
	// cap-shrink event edges).
	CapChanges int
	// DroopEvents counts frequency-droop events fired.
	DroopEvents int
	// DRWindows counts demand-response windows opened.
	DRWindows int
	// DeferTicks counts ticks on which charge admission was deferred.
	DeferTicks int
	// DeferLifts counts times the MaxDefer SLA valve cut a deferral short.
	DeferLifts int
	// ShaveStarts counts rack discharges begun for peak shaving.
	ShaveStarts int
	// ShaveStops counts shaves ended by the policy (window close or
	// per-rack battery budget).
	ShaveStops int
	// ShaveRotations counts shaves ended early because the rack hit its
	// MaxShaveDOD battery budget.
	ShaveRotations int
	// ShavedEnergy is the IT energy carried by batteries during shaves —
	// energy the grid did not deliver at the peak.
	ShavedEnergy units.Energy
	// CapDemotions and CapPauses count the policy's within-tick cap
	// enforcement actions (charge demoted to safe current / paused into
	// the admission queue).
	CapDemotions int
	CapPauses    int
	// SLARepairs counts demoted charges restored to their deadline-aware
	// SLA current once headroom under the effective cap returned.
	SLARepairs int
	// ViolationTicks counts ticks whose measured feed draw exceeded the
	// effective cap; MaxOverCap is the worst excursion. A healthy run
	// keeps both at zero.
	ViolationTicks int
	MaxOverCap     units.Power
	// PeakDraw is the highest feed draw measured over the run.
	PeakDraw units.Power
	// GridEnergy is the total energy drawn from the feed.
	GridEnergy units.Energy
	// EnergyCost is the integral of price x draw, in dollars (price is
	// $/MWh). Zero when no price series is configured.
	EnergyCost float64
	// CarbonKg is the integral of carbon intensity x draw, in kg CO2
	// (intensity is gCO2/kWh). Zero when no carbon series is configured.
	CarbonKg float64
}

// Policy is the grid signal plane's runtime: the planning tick consults it
// for the effective feed limit and the defer signal, and its own Tick fires
// grid events, manages peak shaving, and enforces downward cap steps within
// the tick.
//
// Like the breaker guard, the policy acts over the server-management plane:
// it holds direct rack handles, so its pause/demote/shave actions are not
// subject to the charger-override command channel's latency or faults. That
// is what makes "zero cap violations at any tick" achievable on the async
// control plane, where planner-issued commands land a bus latency later.
//
// Call order per simulation tick (the scenario tick loop owns this):
//
//	Tick(now)        after racks stepped and the async engine ran,
//	                 before the sync controllers and guards
//	Account(now, dt) after controllers and guards, so it measures the
//	                 draw the grid actually saw this tick
//
// Policy is not safe for concurrent use; the control planes are
// single-threaded per tick.
type Policy struct {
	spec *Spec
	cfg  PolicyConfig // spec.Policy with defaults resolved

	node  *power.Node
	racks []*rack.Rack
	queue *storm.Queue
	ccfg  core.Config

	// Grid cursor: the index of the next unfired event (events are sorted
	// by Validate). This plus the defer/shave fields below is the mutable
	// state Snapshot exports.
	eventCursor int
	droopUntil  time.Duration
	deferring   bool
	deferSince  time.Duration
	deferLifted bool
	lastCap     units.Power // 0 until the first Tick observes the cap

	shaving  []*rack.Rack // discharge order preserved for determinism
	shaveSet map[string]bool
	order    []*rack.Rack // shedOrder's buffer, reused every call

	metrics Metrics

	// Observability (nil when detached).
	sink                    *obs.Sink
	gCap, gPrice, gCarbon   *obs.Gauge
	gExport, gDefer         *obs.Gauge
	cDroop, cDR, cDeferred  *obs.Counter
	cShaveStart, cShaveStop *obs.Counter
	cCapShed, cViolation    *obs.Counter
}

// NewPolicy validates spec and builds its runtime. The policy is inert
// until Bind attaches it to a feed node, its racks, and the storm queue.
func NewPolicy(spec *Spec) (*Policy, error) {
	if spec == nil {
		return nil, fmt.Errorf("grid: nil spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Policy{
		spec:     spec,
		cfg:      spec.Policy.withDefaults(),
		shaveSet: make(map[string]bool),
	}, nil
}

// Spec returns the validated spec this policy runs.
func (p *Policy) Spec() *Spec {
	if p == nil {
		return nil
	}
	return p.spec
}

// SetObs attaches an observability sink: the grid signals surface as
// grid.cap_w / grid.price / grid.carbon / grid.export_w / grid.deferring
// gauges, policy activity is counted under grid.*, and every event fire,
// defer edge, shave, and cap-enforcement action is journaled to the flight
// recorder.
func (p *Policy) SetObs(s *obs.Sink) {
	if p == nil {
		return
	}
	p.sink = s
	p.gCap = s.Gauge("grid.cap_w")
	p.gPrice = s.Gauge("grid.price")
	p.gCarbon = s.Gauge("grid.carbon")
	p.gExport = s.Gauge("grid.export_w")
	p.gDefer = s.Gauge("grid.deferring")
	p.cDroop = s.Counter("grid.droop_events")
	p.cDR = s.Counter("grid.dr_windows")
	p.cDeferred = s.Counter("grid.defer_ticks")
	p.cShaveStart = s.Counter("grid.shave_starts")
	p.cShaveStop = s.Counter("grid.shave_stops")
	p.cCapShed = s.Counter("grid.cap_sheds")
	p.cViolation = s.Counter("grid.violation_ticks")
}

// Bind attaches the policy to the feed breaker it governs, the racks it may
// act on, and the storm admission queue its pauses feed. The queue is
// required: every pause the policy issues (droop, cap enforcement) is
// re-admitted by the existing storm machinery, never by the policy itself.
func (p *Policy) Bind(node *power.Node, racks []*rack.Rack, queue *storm.Queue, ccfg core.Config) error {
	if node == nil {
		return fmt.Errorf("grid: bind: nil node")
	}
	if queue == nil {
		return fmt.Errorf("grid: bind: a storm admission queue is required (grid pauses re-admit through it)")
	}
	rs := make([]*rack.Rack, len(racks))
	copy(rs, racks)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Name() < rs[j].Name() })
	p.node, p.racks, p.queue, p.ccfg = node, rs, queue, ccfg
	return nil
}

// CapAt returns the interconnection cap at virtual time now, in watts, or 0
// when the grid places no cap (no cap series and no active cap-shrink
// event). The breaker guard consults this to shed against the effective
// limit instead of the breaker rating alone.
func (p *Policy) CapAt(now time.Duration) units.Power {
	if p == nil || p.spec == nil {
		return 0
	}
	base := 0.0
	if p.spec.Cap != nil {
		base = p.spec.Cap.At(now)
	}
	mult := 1.0
	for _, e := range p.spec.Events {
		if e.Kind == CapShrink && e.window(now) {
			mult *= 1 - e.Frac
		}
	}
	if base == 0 {
		if mult == 1 {
			return 0
		}
		if p.node == nil {
			return 0
		}
		base = float64(p.node.Limit())
	}
	return units.Power(base * mult)
}

// EffectiveLimit returns the feed limit the planner must respect at now:
// the minimum of the breaker limit and the interconnection cap.
func (p *Policy) EffectiveLimit(now time.Duration) units.Power {
	limit := p.node.Limit()
	if cap := p.CapAt(now); cap > 0 && cap < limit {
		return cap
	}
	return limit
}

// DeferCharging reports whether charge admission should be deferred at now
// — the postpone_charge idiom: while the energy price or carbon intensity
// sits above its threshold (or a frequency-droop event is in force), fresh
// charge starts route into the admission queue and admission waves hold.
// The MaxDefer SLA valve bounds each continuous deferral so a long
// expensive stretch cannot starve recharge deadlines; Tick maintains the
// underlying state machine.
func (p *Policy) DeferCharging(now time.Duration) bool {
	if p == nil {
		return false
	}
	return p.deferring || p.droopUntil > now
}

// deferSignal reports whether the price/carbon signal asks for deferral at
// now, ignoring the MaxDefer valve.
func (p *Policy) deferSignal(now time.Duration) bool {
	if p.cfg.DeferPrice > 0 && p.spec.Price.At(now) >= p.cfg.DeferPrice {
		return true
	}
	if p.cfg.DeferCarbon > 0 && p.spec.Carbon.At(now) >= p.cfg.DeferCarbon {
		return true
	}
	// An open shave window defers admission too: a freshly started
	// grid-powered charge would eat the very reduction the window exists to
	// deliver, so rotated-out racks queue until the window closes.
	if _, active := p.shaveTarget(now); active {
		return true
	}
	return false
}

// Busy reports whether the grid schedule still has work in flight at now:
// events yet to fire, a window still open, or racks still discharging for a
// shave. The scenario's early-exit check consults this so a run does not
// end before a scheduled demand-response window opens.
func (p *Policy) Busy(now time.Duration) bool {
	if p == nil {
		return false
	}
	if len(p.shaving) > 0 || p.droopUntil > now {
		return true
	}
	if p.eventCursor < len(p.spec.Events) {
		return true
	}
	for _, e := range p.spec.Events {
		if e.window(now) {
			return true
		}
	}
	return false
}

// ShavedPower returns the IT load currently carried by shaving batteries —
// the draw the grid is not seeing, exported as grid.export_w.
func (p *Policy) ShavedPower() units.Power {
	if p == nil {
		return 0
	}
	var sum units.Power
	for _, r := range p.shaving {
		sum += r.ITLoad()
	}
	return sum
}

// Shaving returns how many racks are currently discharging for a shave.
func (p *Policy) Shaving() int {
	if p == nil {
		return 0
	}
	return len(p.shaving)
}

// Metrics returns the accumulated policy counters.
func (p *Policy) Metrics() Metrics {
	if p == nil {
		return Metrics{}
	}
	return p.metrics
}

// comp is the policy's flight-recorder component label.
func (p *Policy) comp() string { return "grid/" + p.node.Name() }

// Tick advances the grid plane at virtual time now: fires due events,
// maintains the defer state machine, starts/stops peak shaving, and
// enforces a shrunken effective cap within the tick. Call after racks have
// stepped and the async engine ran, before the sync controllers and guards.
func (p *Policy) Tick(now time.Duration) {
	if p == nil || p.spec == nil {
		return
	}
	p.fireEvents(now)
	p.updateDefer(now)
	p.manageShave(now)
	p.enforceCap(now)
	p.repairSLA(now)
}

// fireEvents advances the event cursor over every event due at now.
func (p *Policy) fireEvents(now time.Duration) {
	for p.eventCursor < len(p.spec.Events) {
		e := p.spec.Events[p.eventCursor]
		if e.At > now {
			return
		}
		p.eventCursor++
		switch e.Kind {
		case FreqDroop:
			p.metrics.DroopEvents++
			p.cDroop.Inc()
			if until := e.At + e.Dur; until > p.droopUntil {
				p.droopUntil = until
			}
			if p.sink != nil {
				p.sink.Event(now, p.comp(), "droop-fire",
					"until_s", fmt.Sprintf("%.0f", (e.At+e.Dur).Seconds()))
			}
			p.pauseAllCharging(now)
		case DemandResponse:
			p.metrics.DRWindows++
			p.cDR.Inc()
			if p.sink != nil {
				p.sink.Event(now, p.comp(), "dr-open",
					"dur_s", fmt.Sprintf("%.0f", e.Dur.Seconds()),
					"frac", fmt.Sprintf("%.2f", e.Frac))
			}
		case CapShrink:
			if p.sink != nil {
				p.sink.Event(now, p.comp(), "capshrink-fire",
					"frac", fmt.Sprintf("%.2f", e.Frac),
					"dur_s", fmt.Sprintf("%.0f", e.Dur.Seconds()))
			}
		}
	}
}

// updateDefer runs the defer state machine: deferral starts when the
// price/carbon signal crosses its threshold and ends when the signal clears
// or the continuous stretch exceeds the MaxDefer SLA valve. A lifted
// deferral stays lifted until the signal clears, so one long expensive
// stretch defers at most MaxDefer.
func (p *Policy) updateDefer(now time.Duration) {
	signal := p.deferSignal(now)
	if !signal {
		if p.deferring && p.sink != nil {
			p.sink.Event(now, p.comp(), "defer-off")
		}
		p.deferring, p.deferLifted = false, false
		return
	}
	if p.deferLifted {
		return
	}
	if !p.deferring {
		p.deferring, p.deferSince = true, now
		if p.sink != nil {
			p.sink.Event(now, p.comp(), "defer-on",
				"price", fmt.Sprintf("%.1f", p.spec.Price.At(now)),
				"carbon", fmt.Sprintf("%.1f", p.spec.Carbon.At(now)))
		}
		return
	}
	if p.cfg.MaxDefer > 0 && now-p.deferSince >= p.cfg.MaxDefer {
		p.deferring, p.deferLifted = false, true
		p.metrics.DeferLifts++
		if p.sink != nil {
			p.sink.Event(now, p.comp(), "defer-lift",
				"held_s", fmt.Sprintf("%.0f", (now-p.deferSince).Seconds()))
		}
	}
}

// pauseAllCharging pauses every active charge into the admission queue —
// the frequency-droop response, the same mass pause a site outage causes.
// Reverse priority order for a deterministic flight journal.
func (p *Policy) pauseAllCharging(now time.Duration) {
	for _, r := range p.shedOrder() {
		if !r.InputUp() || !r.Charging() {
			continue
		}
		r.Postpone()
		p.queue.Enqueue(now, storm.Request{Name: r.Name(), Priority: r.Priority(), DOD: r.PendingDOD(), Since: r.ChargeStart()})
		if p.sink != nil {
			p.sink.Event(now, p.comp(), "droop-pause", "rack", r.Name())
		}
	}
}

// shaveTarget returns the grid-draw target in force at now and whether any
// shave window is active. Demand-response windows with a depth fraction
// target (1-Frac) x the effective cap; otherwise the configured
// ShaveTarget applies. Overlapping windows take the tightest target.
func (p *Policy) shaveTarget(now time.Duration) (units.Power, bool) {
	var target units.Power
	active := false
	consider := func(t units.Power) {
		if t <= 0 {
			return
		}
		if !active || t < target {
			target = t
		}
		active = true
	}
	for _, e := range p.spec.Events {
		if e.Kind != DemandResponse || !e.window(now) {
			continue
		}
		if e.Frac > 0 {
			consider(units.Power(float64(p.EffectiveLimit(now)) * (1 - e.Frac)))
		} else {
			consider(p.cfg.ShaveTarget)
		}
	}
	if p.cfg.ShavePrice > 0 && p.spec.Price.At(now) >= p.cfg.ShavePrice {
		consider(p.cfg.ShaveTarget)
	}
	return target, active
}

// manageShave starts and stops voluntary rack discharges to hold feed draw
// at the shave target. A shaving rack rides the same machinery as an
// outage: LoseInput puts its IT load on the battery, and the RestoreInput
// at shave end reports the true depth of discharge and starts the recharge
// that the storm admission queue then paces — so recharge SLAs are tracked
// exactly as for any other discharge.
func (p *Policy) manageShave(now time.Duration) {
	if p.node == nil {
		return
	}
	// Racks restored behind the policy's back (a site-wide Reenergize) are
	// no longer shaving, whatever our books say.
	p.reconcileShaving()
	if !p.node.Energized() {
		// An outage owns every battery; shave bookkeeping cleared above
		// does not apply (input is down fleet-wide), and no new shave may
		// start until the site re-energizes.
		return
	}
	target, active := p.shaveTarget(now)
	if !active {
		for len(p.shaving) > 0 {
			p.stopShave(now, 0, "window-closed")
		}
		return
	}
	// Rotate out racks that spent their battery budget; their recharge
	// enters the normal admission path immediately.
	for i := 0; i < len(p.shaving); {
		if p.shaving[i].BatteryDOD() >= p.cfg.MaxShaveDOD {
			p.metrics.ShaveRotations++
			p.stopShave(now, i, "dod-budget")
			continue
		}
		i++
	}
	// Recruit more batteries while draw sits above target.
	for p.node.Power() > target {
		r := p.nextShaveCandidate()
		if r == nil {
			return
		}
		r.LoseInput(now)
		p.shaving = append(p.shaving, r)
		p.shaveSet[r.Name()] = true
		p.metrics.ShaveStarts++
		p.cShaveStart.Inc()
		if p.sink != nil {
			p.sink.Event(now, p.comp(), "shave-start",
				"rack", r.Name(),
				"carry_w", fmt.Sprintf("%.0f", float64(r.ITLoad())))
		}
	}
}

// reconcileShaving drops racks from the shaving set whose input is already
// up — something outside the policy (site restore) ended their discharge.
func (p *Policy) reconcileShaving() {
	kept := p.shaving[:0]
	for _, r := range p.shaving {
		if r.InputUp() {
			delete(p.shaveSet, r.Name())
			p.metrics.ShaveStops++
			p.cShaveStop.Inc()
			continue
		}
		kept = append(kept, r)
	}
	p.shaving = kept
}

// stopShave restores input on shaving[i]: the rack reports its shave DOD
// and begins the recharge the admission machinery will pace.
func (p *Policy) stopShave(now time.Duration, i int, why string) {
	r := p.shaving[i]
	p.shaving = append(p.shaving[:i], p.shaving[i+1:]...)
	delete(p.shaveSet, r.Name())
	r.RestoreInput(now)
	p.metrics.ShaveStops++
	p.cShaveStop.Inc()
	if p.sink != nil {
		p.sink.Event(now, p.comp(), "shave-stop",
			"rack", r.Name(), "why", why,
			"dod", fmt.Sprintf("%.3f", float64(r.LastDOD())))
	}
}

// nextShaveCandidate picks the next rack to discharge: least critical class
// first, fullest battery first (most carry to give), then name. Returns nil
// when no rack is eligible.
func (p *Policy) nextShaveCandidate() *rack.Rack {
	var best *rack.Rack
	for _, r := range p.racks {
		if !p.eligibleToShave(r) {
			continue
		}
		if best == nil {
			best = r
			continue
		}
		if r.Priority() != best.Priority() {
			if r.Priority() > best.Priority() {
				best = r
			}
			continue
		}
		if r.BatteryDOD() != best.BatteryDOD() {
			if r.BatteryDOD() < best.BatteryDOD() {
				best = r
			}
			continue
		}
		if r.Name() < best.Name() {
			best = r
		}
	}
	return best
}

// eligibleToShave reports whether a rack may start a voluntary discharge:
// it must be on input power with real load, not charging or owing a paused
// charge (recharge SLAs outrank grid revenue), within its battery budget,
// and in a class the config allows to volunteer.
func (p *Policy) eligibleToShave(r *rack.Rack) bool {
	return r.InputUp() &&
		!p.shaveSet[r.Name()] &&
		r.Priority() >= p.cfg.ShavePriority &&
		r.ITLoad() > 0 &&
		!r.Charging() &&
		r.PendingDOD() <= 0 &&
		!p.queue.Contains(r.Name()) &&
		r.BatteryDOD() < p.cfg.MaxShaveDOD
}

// shedOrder returns racks in cap-enforcement order: reverse priority,
// deepest discharge first, then name — the breaker guard's ladder. The
// slice is the policy's buffer, valid until the next call.
func (p *Policy) shedOrder() []*rack.Rack {
	p.order = append(p.order[:0], p.racks...)
	slices.SortStableFunc(p.order, shedCmp)
	return p.order
}

// shedCmp orders two racks for shedOrder: a total order on (priority
// descending, DOD descending, name).
func shedCmp(a, b *rack.Rack) int {
	if pa, pb := a.Priority(), b.Priority(); pa != pb {
		return cmp.Compare(pb, pa)
	}
	if da, db := a.BatteryDOD(), b.BatteryDOD(); da != db {
		return cmp.Compare(db, da)
	}
	return strings.Compare(a.Name(), b.Name())
}

// enforceCap brings feed draw under the effective cap within this tick when
// a cap step lands mid-recharge: demote charging racks to the safe current,
// then pause them into the admission queue, reverse priority — the guard's
// first two rungs, acted over direct rack handles so the correction is not
// subject to command-plane latency. IT capping is left to the breaker
// guard: an interconnection cap never outranks availability.
func (p *Policy) enforceCap(now time.Duration) {
	if p.node == nil || !p.node.Energized() {
		return
	}
	cap := p.CapAt(now)
	if cap <= 0 || cap >= p.node.Limit() {
		return
	}
	if p.node.Power() <= cap {
		return
	}
	safe := p.ccfg.SafeCurrent()
	order := p.shedOrder()
	for _, r := range order {
		if p.node.Power() <= cap {
			return
		}
		if !r.InputUp() || !r.Charging() || r.Pack().Setpoint() <= safe {
			continue
		}
		r.OverrideCurrent(safe)
		p.metrics.CapDemotions++
		p.cCapShed.Inc()
		if p.sink != nil {
			p.sink.Event(now, p.comp(), "cap-demote",
				"rack", r.Name(), "amps", fmt.Sprintf("%d", int(safe)))
		}
	}
	for _, r := range order {
		if p.node.Power() <= cap {
			return
		}
		if !r.InputUp() || !r.Charging() {
			continue
		}
		r.Postpone()
		p.metrics.CapPauses++
		p.cCapShed.Inc()
		p.queue.Enqueue(now, storm.Request{Name: r.Name(), Priority: r.Priority(), DOD: r.PendingDOD(), Since: r.ChargeStart()})
		if p.sink != nil {
			p.sink.Event(now, p.comp(), "cap-pause", "rack", r.Name())
		}
	}
}

// repairSLA is the demotion rungs' symmetric counterpart: charges stuck at
// or below the safe current — demoted by enforceCap or the breaker guard
// during a squeeze — are restored to the current their remaining deadline
// budget now requires, once headroom under the effective limit allows it.
// Without this, a charge demoted under a transient cap step crawls at the
// safe current for the rest of its recharge no matter how much room the
// restored cap leaves. Highest priority first, shallowest discharge first:
// the exact reverse of the shed ladder.
func (p *Policy) repairSLA(now time.Duration) {
	if p.node == nil || !p.node.Energized() {
		return
	}
	eff := p.EffectiveLimit(now)
	budget := eff - p.queue.Config().Margin(eff) - p.node.Power()
	if budget <= 0 {
		return
	}
	safe := p.ccfg.SafeCurrent()
	if !slices.ContainsFunc(p.racks, func(r *rack.Rack) bool { return p.repairable(r, safe) }) {
		return // nothing to repair: skip the sort
	}
	order := p.shedOrder()
	for i := len(order) - 1; i >= 0; i-- {
		r := order[i]
		if !p.repairable(r, safe) {
			continue
		}
		setpoint := r.Pack().Setpoint()
		remaining := p.ccfg.Deadlines[r.Priority()] - (now - r.ChargeStart())
		want, _ := p.ccfg.SLACurrentWithin(r.Priority(), r.BatteryDOD(), remaining)
		if want <= setpoint {
			continue
		}
		cost := units.Power(float64(want-setpoint) * p.ccfg.WattsPerAmp)
		if cost > budget {
			continue
		}
		budget -= cost
		r.OverrideCurrent(want)
		p.metrics.SLARepairs++
		if p.sink != nil {
			p.sink.Event(now, p.comp(), "sla-repair",
				"rack", r.Name(), "amps", fmt.Sprintf("%d", int(want)))
		}
	}
}

// repairable reports whether repairSLA may act on r: a charge on input
// power, not shaving, whose setpoint sits at or below the safe current.
func (p *Policy) repairable(r *rack.Rack, safe units.Current) bool {
	return r.InputUp() && r.Charging() && r.Pack().Setpoint() <= safe && !p.shaveSet[r.Name()]
}

// Account closes the tick: it measures the draw the feed actually presented
// to the grid after every controller and guard acted, scores it against the
// effective cap, integrates energy/cost/carbon, and publishes the grid
// gauges. dt is the tick length.
func (p *Policy) Account(now time.Duration, dt time.Duration) {
	if p == nil || p.spec == nil || p.node == nil {
		return
	}
	eff := p.EffectiveLimit(now)
	if p.lastCap == 0 {
		p.lastCap = eff
	} else if eff != p.lastCap {
		p.metrics.CapChanges++
		if p.sink != nil {
			p.sink.Event(now, p.comp(), "cap-change",
				"from_w", fmt.Sprintf("%.0f", float64(p.lastCap)),
				"to_w", fmt.Sprintf("%.0f", float64(eff)))
		}
		p.lastCap = eff
	}
	draw := units.Power(0)
	if p.node.Energized() {
		draw = p.node.Power()
	}
	if draw > p.metrics.PeakDraw {
		p.metrics.PeakDraw = draw
	}
	if over := draw - eff; over > capViolationSlack {
		p.metrics.ViolationTicks++
		p.cViolation.Inc()
		if over > p.metrics.MaxOverCap {
			p.metrics.MaxOverCap = over
		}
		if p.sink != nil {
			p.sink.Event(now, p.comp(), "cap-violation",
				"draw_w", fmt.Sprintf("%.0f", float64(draw)),
				"cap_w", fmt.Sprintf("%.0f", float64(eff)))
		}
	}
	if p.DeferCharging(now) {
		p.metrics.DeferTicks++
		p.cDeferred.Inc()
		p.gDefer.Set(1)
	} else {
		p.gDefer.Set(0)
	}
	hours := dt.Hours()
	p.metrics.GridEnergy += units.EnergyOver(draw, dt)
	shaved := p.ShavedPower()
	p.metrics.ShavedEnergy += units.EnergyOver(shaved, dt)
	var price, carbon float64
	if p.spec.Price != nil {
		price = p.spec.Price.At(now)
		p.metrics.EnergyCost += price * draw.MW() * hours
	}
	if p.spec.Carbon != nil {
		carbon = p.spec.Carbon.At(now)
		p.metrics.CarbonKg += carbon * draw.KW() * hours / 1000
	}
	p.gCap.Set(float64(eff))
	p.gPrice.Set(price)
	p.gCarbon.Set(carbon)
	p.gExport.Set(float64(shaved))
}

// capViolationSlack absorbs float accumulation noise in the draw sum; any
// real excursion is orders of magnitude larger.
const capViolationSlack units.Power = 0.5
