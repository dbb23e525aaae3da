package storm

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"coordcharge/internal/core"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/units"
)

// GuardConfig parameterises the last-line breaker guard.
type GuardConfig struct {
	// FireFraction is the fraction of the breaker TripRule's sustain window
	// after which sustained overdraw makes the guard act. Zero selects the
	// default (0.5): the guard fires halfway into the window the breaker
	// would need to trip, leaving the other half as margin for its shedding
	// to take effect.
	FireFraction float64
	// ResumeAfter is how long draw must stay below the limit before the
	// guard releases its actions (restores IT caps, resumes paused charges).
	// Zero selects the breaker's own sustain window.
	ResumeAfter time.Duration
	// MaxResumePerTick bounds the paused charges the guard itself resumes
	// per quiet tick, so a release cannot recreate the storm it shed. Zero
	// selects 1. Ignored for charges handed to an admission queue.
	MaxResumePerTick int
}

// DefaultGuardConfig returns the default guard parameters.
func DefaultGuardConfig() GuardConfig {
	return GuardConfig{FireFraction: 0.5, MaxResumePerTick: 1}
}

// GuardMetrics counts guard activity. ITCapped and MaxITCut are the
// acceptance signals: a healthy storm run keeps both at zero (charge
// shedding alone contains the overdraw).
type GuardMetrics struct {
	// Fires counts overdraw episodes in which the guard shed anything.
	Fires int
	// Demoted counts charging racks demoted to the safe current.
	Demoted int
	// Paused counts charges the guard paused outright.
	Paused int
	// ITCapped counts racks whose servers the guard capped (final resort).
	ITCapped int
	// MaxITCut is the largest total server power the guard capped away at
	// any instant.
	MaxITCut units.Power
	// Resumed counts paused charges the guard itself resumed after quiet.
	Resumed int
}

// Guard is the per-breaker last line of defence against recharge storms the
// planner failed to contain (a planner bug, a stale-telemetry storm, or a
// crashed controller). It watches the breaker's draw directly and sheds
// charging current first — demote to the safe current, then pause, walking
// reverse priority and deepest discharge first — escalating to server power
// capping only when charge shedding alone cannot clear the trip threshold.
//
// Like Dynamo's capping path, the guard acts over the server-management
// plane: it holds direct rack handles and its actions are not subject to the
// charger-override command channel's latency or faults. That is what makes
// it a credible last line when the coordination plane is degraded.
type Guard struct {
	node     *power.Node
	racks    []*rack.Rack
	ccfg     core.Config
	cfg      GuardConfig
	queue    *Queue                          // optional: paused charges handed to storm admission
	capacity func(time.Duration) units.Power // optional: external feed capacity (interconnection cap)

	over       bool
	overSince  time.Duration
	fired      bool
	quietSince time.Duration
	quiet      bool

	paused []*rack.Rack // self-managed paused charges (no queue attached)
	order  []*rack.Rack // ShedOrder's buffer, reused every fire
	capped map[*rack.Rack]bool

	metrics GuardMetrics

	// Observability (nil when detached).
	sink                                         *obs.Sink
	cFires, cDemoted, cPaused, cCapped, cResumed *obs.Counter
	gProximity                                   *obs.Gauge
}

// NewGuard builds a guard for node, shedding among the given racks (the
// racks fed by node). ccfg supplies the safe current and override grid.
func NewGuard(node *power.Node, racks []*rack.Rack, ccfg core.Config, cfg GuardConfig) *Guard {
	if cfg.FireFraction <= 0 {
		cfg.FireFraction = 0.5
	}
	if cfg.MaxResumePerTick <= 0 {
		cfg.MaxResumePerTick = 1
	}
	rs := make([]*rack.Rack, len(racks))
	copy(rs, racks)
	return &Guard{
		node:   node,
		racks:  rs,
		ccfg:   ccfg,
		cfg:    cfg,
		capped: make(map[*rack.Rack]bool),
	}
}

// AttachQueue hands the guard's paused charges to a storm admission queue
// instead of the guard's own quiet-time resume.
func (g *Guard) AttachQueue(q *Queue) { g.queue = q }

// SetCapacity clamps the draw level the guard defends with charge shedding
// (demote and pause) to an externally supplied feed capacity — the
// interconnection cap from the grid signal plane. The escalation to server
// power capping keeps its breaker-based trip threshold: IT capping defends
// trip physics, not grid compliance. A nil fn, or a capacity at or above
// the breaker limit, leaves the breaker limit in force.
func (g *Guard) SetCapacity(fn func(now time.Duration) units.Power) { g.capacity = fn }

// limitAt is the draw level the guard defends at time now: the breaker
// limit, clamped down by the attached capacity hook when one is set.
func (g *Guard) limitAt(now time.Duration) units.Power {
	limit := g.node.Limit()
	if g.capacity != nil {
		if c := g.capacity(now); c > 0 && c < limit {
			return c
		}
	}
	return limit
}

// SetObs attaches an observability sink: shed/release activity is counted
// under guard.* metrics, a per-node trip-proximity gauge tracks how far into
// the breaker's sustain window the current overdraw episode has run, and
// every escalation rung is journaled to the flight recorder.
func (g *Guard) SetObs(s *obs.Sink) {
	g.sink = s
	g.cFires = s.Counter("guard.fires")
	g.cDemoted = s.Counter("guard.demoted")
	g.cPaused = s.Counter("guard.paused")
	g.cCapped = s.Counter("guard.it_capped")
	g.cResumed = s.Counter("guard.resumed")
	g.gProximity = s.Gauge("guard.trip_proximity." + g.node.Name())
}

// comp is the guard's flight-recorder component label.
func (g *Guard) comp() string { return "guard/" + g.node.Name() }

// Node returns the breaker this guard watches.
func (g *Guard) Node() *power.Node { return g.node }

// Metrics returns the accumulated guard counters.
func (g *Guard) Metrics() GuardMetrics { return g.metrics }

// fireAfter is the sustained-overdraw duration that makes the guard shed.
func (g *Guard) fireAfter() time.Duration {
	sustain := g.node.Rule().Sustain
	if sustain <= 0 {
		sustain = 30 * time.Second
	}
	return time.Duration(g.cfg.FireFraction * float64(sustain))
}

// proximity is how far the current overdraw episode has run into the
// breaker's sustain window: 0 at breach, 1 at the window the TripRule needs
// to trip. It can exceed 1 when overdraw persists past the window without
// crossing the trip threshold fraction.
func (g *Guard) proximity(now time.Duration) float64 {
	sustain := g.node.Rule().Sustain
	if sustain <= 0 {
		sustain = 30 * time.Second
	}
	return float64(now-g.overSince) / float64(sustain)
}

// resumeAfter is the quiet time before the guard releases its actions.
func (g *Guard) resumeAfter() time.Duration {
	if g.cfg.ResumeAfter > 0 {
		return g.cfg.ResumeAfter
	}
	if s := g.node.Rule().Sustain; s > 0 {
		return s
	}
	return 30 * time.Second
}

// Tick advances the guard at virtual time now. Call once per simulation
// tick, after loads and controllers have updated; the guard re-measures the
// breaker directly and acts within the tick.
func (g *Guard) Tick(now time.Duration) {
	if !g.node.Energized() {
		// No draw while de-energized; clear the episode.
		g.over, g.fired, g.quiet = false, false, false
		g.gProximity.Set(0)
		return
	}
	p := g.node.Power()
	limit := g.limitAt(now)
	if p > limit {
		g.quiet = false
		if !g.over {
			g.over, g.overSince = true, now
			if g.sink != nil {
				g.sink.Event(now, g.comp(), "breach",
					"power_w", fmt.Sprintf("%.0f", float64(p)),
					"limit_w", fmt.Sprintf("%.0f", float64(limit)))
			}
		}
		g.gProximity.Set(g.proximity(now))
		if now-g.overSince >= g.fireAfter() {
			g.shed(now)
		}
		return
	}
	// Below the limit: the episode (if any) is contained.
	g.over, g.fired = false, false
	g.gProximity.Set(0)
	if !g.hasActions() {
		g.quiet = false
		return
	}
	if !g.quiet {
		g.quiet, g.quietSince = true, now
	}
	if now-g.quietSince >= g.resumeAfter() {
		g.release(now)
	}
}

// hasActions reports whether the guard holds any shed state to release.
func (g *Guard) hasActions() bool {
	return len(g.paused) > 0 || len(g.capped) > 0
}

// Idle reports whether the guard holds no episode state at all: no open
// breach, nothing shed, no quiet timer running. An idle guard's Tick below
// the limit is a pure no-op (modulo gauges), which is what lets the event
// kernel skip it.
func (g *Guard) Idle() bool {
	return !g.over && !g.fired && !g.quiet && !g.hasActions()
}

// ShedOrder writes racks into dst in shedding order and returns it: reverse
// priority (P3 first), deepest discharge first, then name — the same
// reverse order the planner's emergency throttle uses. With unique names
// the order is total, so it does not depend on the order of racks. dst's
// storage is reused, so a caller that keeps the result as its buffer sorts
// without allocating.
func ShedOrder(dst, racks []*rack.Rack) []*rack.Rack {
	dst = append(dst[:0], racks...)
	slices.SortStableFunc(dst, func(a, b *rack.Rack) int {
		if pa, pb := a.Priority(), b.Priority(); pa != pb {
			return cmp.Compare(pb, pa)
		}
		if da, db := a.BatteryDOD(), b.BatteryDOD(); da != db {
			return cmp.Compare(db, da)
		}
		return strings.Compare(a.Name(), b.Name())
	})
	return dst
}

// ShedCharging walks the charge-shedding rungs of the ladder over order,
// re-measuring node before every rack, until its draw fits limit: (1) demote
// every charge on input above the safe current to it, then (2) pause the
// charges still running. demoted and paused run after each action, for the
// caller's counters, journal and admission queue. fits reports whether the
// draw fitted before the ladder ran out of charges to shed.
func ShedCharging(node *power.Node, order []*rack.Rack, limit units.Power, safe units.Current, demoted, paused func(*rack.Rack)) (fits bool) {
	for _, r := range order {
		if node.Power() <= limit {
			return true
		}
		if !r.InputUp() || !r.Charging() || r.Pack().Setpoint() <= safe {
			continue
		}
		r.OverrideCurrent(safe)
		demoted(r)
	}
	for _, r := range order {
		if node.Power() <= limit {
			return true
		}
		if !r.InputUp() || !r.Charging() {
			continue
		}
		r.Postpone()
		paused(r)
	}
	return false
}

// shed walks the escalation ladder within one tick, re-measuring the breaker
// after every action: (1) demote charging racks to the safe current until
// draw fits the limit; (2) pause remaining charges; (3) only if draw still
// exceeds the trip threshold — a storm charge shedding alone cannot contain
// — cap server power down to the limit, reverse priority.
func (g *Guard) shed(now time.Duration) {
	if !g.fired {
		g.fired = true
		g.metrics.Fires++
		g.cFires.Inc()
		if g.sink != nil {
			g.sink.Event(now, g.comp(), "guard-fire",
				"power_w", fmt.Sprintf("%.0f", float64(g.node.Power())),
				"limit_w", fmt.Sprintf("%.0f", float64(g.limitAt(now))))
		}
	}
	safe := g.ccfg.SafeCurrent()
	g.order = ShedOrder(g.order, g.racks)
	if ShedCharging(g.node, g.order, g.limitAt(now), safe, func(r *rack.Rack) {
		g.metrics.Demoted++
		g.cDemoted.Inc()
		if g.sink != nil {
			g.sink.Event(now, g.comp(), "demote",
				"rack", r.Name(), "amps", fmt.Sprintf("%d", int(safe)))
		}
	}, func(r *rack.Rack) {
		g.metrics.Paused++
		g.cPaused.Inc()
		if g.sink != nil {
			g.sink.Event(now, g.comp(), "guard-pause", "rack", r.Name())
		}
		if g.queue != nil {
			g.queue.Enqueue(now, Request{Name: r.Name(), Priority: r.Priority(), DOD: r.PendingDOD(), Since: r.ChargeStart()})
		} else {
			g.paused = append(g.paused, r)
		}
	}) {
		return
	}
	// Rung 3 (final resort): charge shedding was not enough. Cap servers
	// only when the draw still sits beyond the trip threshold. Both the
	// threshold and the cut target are the breaker's own limit, never an
	// interconnection cap: servers are capped to keep the breaker up, not
	// to honour a grid signal (availability over compliance).
	breaker := g.node.Limit()
	rule := g.node.Rule()
	threshold := units.Power(float64(breaker) * (1 + float64(rule.Fraction)))
	if g.node.Power() <= threshold {
		return
	}
	var cut units.Power
	for _, r := range g.order {
		over := g.node.Power() - breaker
		if over <= 0 {
			break
		}
		if !r.InputUp() || r.ITLoad() <= 0 {
			continue
		}
		c := r.ITLoad()
		if c > over {
			c = over
		}
		r.Cap(g.capSource(), r.ITLoad()-c)
		if !g.capped[r] {
			g.metrics.ITCapped++
			g.cCapped.Inc()
		}
		g.capped[r] = true
		if g.sink != nil {
			g.sink.Event(now, g.comp(), "it-cap",
				"rack", r.Name(), "cut_w", fmt.Sprintf("%.0f", float64(c)))
		}
		cut += c
	}
	if cut > g.metrics.MaxITCut {
		g.metrics.MaxITCut = cut
	}
}

// release unwinds the guard's actions after sustained quiet: server caps
// lift first (availability before charge time), then — when no admission
// queue owns them — paused charges resume at the safe current, at most
// MaxResumePerTick per tick so the release cannot recreate the storm.
func (g *Guard) release(now time.Duration) {
	if (len(g.capped) > 0 || len(g.paused) > 0) && g.sink != nil {
		g.sink.Event(now, g.comp(), "guard-release",
			"capped", fmt.Sprintf("%d", len(g.capped)),
			"paused", fmt.Sprintf("%d", len(g.paused)))
	}
	for r := range g.capped {
		r.Uncap(g.capSource())
		delete(g.capped, r)
	}
	resumed := 0
	for len(g.paused) > 0 && resumed < g.cfg.MaxResumePerTick {
		r := g.paused[0]
		g.paused = g.paused[1:]
		if r.PendingDOD() <= 0 {
			continue
		}
		r.ResumeCharge(g.ccfg.SafeCurrent())
		g.metrics.Resumed++
		g.cResumed.Inc()
		if g.sink != nil {
			g.sink.Event(now, g.comp(), "guard-resume", "rack", r.Name())
		}
		resumed++
	}
	if !g.hasActions() {
		g.quiet = false
	}
}

// capSource is the cap-registry key this guard caps racks under.
func (g *Guard) capSource() string { return "guard/" + g.node.Name() }

// TotalGuardMetrics aggregates counters across guards; MaxITCut takes the
// guard-wide maximum.
func TotalGuardMetrics(gs []*Guard) GuardMetrics {
	var m GuardMetrics
	for _, g := range gs {
		gm := g.Metrics()
		m.Fires += gm.Fires
		m.Demoted += gm.Demoted
		m.Paused += gm.Paused
		m.ITCapped += gm.ITCapped
		m.Resumed += gm.Resumed
		if gm.MaxITCut > m.MaxITCut {
			m.MaxITCut = gm.MaxITCut
		}
	}
	return m
}
