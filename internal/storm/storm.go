// Package storm implements recharge-storm survival for the coordinated
// charging control plane: the paper's motivating hazard is the *correlated*
// grid event (§I, Fig 2) in which one outage drains every BBU under a
// breaker and the synchronized recharge that follows overloads it.
//
// Two layers live here:
//
//   - Admission control (Queue): after a correlated discharge event the
//     planner pauses the fleet's simultaneous CC starts and re-admits them
//     in priority-aware waves sized to the breaker's measured headroom.
//     Waiting ages a request toward higher effective priority so P3 racks
//     cannot starve behind a long P1/P2 backlog.
//
//   - Last-line breaker guard (Guard): a per-node watchdog that sheds
//     charging current — demote, then pause, by reverse priority — when
//     sustained overdraw approaches the breaker's TripRule window,
//     escalating to IT power capping only as a final resort. A planner bug
//     or stale-telemetry storm then degrades charge time, not availability.
package storm

import (
	"fmt"
	"sort"
	"time"

	"coordcharge/internal/core"
	"coordcharge/internal/obs"
	"coordcharge/internal/rack"
	"coordcharge/internal/units"
)

// Config parameterises storm admission control.
type Config struct {
	// MinRacks is the correlated-start threshold: a planning cycle that
	// sees at least this many racks begin charging at once is treated as a
	// recharge storm and routed through the admission queue. Zero selects
	// the default (4).
	MinRacks int
	// Reserve is the fraction of the breaker limit withheld from admission
	// grants as a safety margin against load growth between planning cycles.
	// Zero selects the default (0.05); negative disables the reserve.
	Reserve units.Fraction
	// AgeBoost is the queue wait that promotes a request by one priority
	// class when ordering admissions (deficit aging, so P3 cannot starve).
	// Zero selects the default (10 min); negative disables aging.
	AgeBoost time.Duration
	// MaxWave caps the racks admitted per planning cycle. Zero means
	// headroom-limited only.
	MaxWave int
}

// Default returns the default storm admission parameters.
func Default() Config {
	return Config{MinRacks: 4, Reserve: 0.05, AgeBoost: 10 * time.Minute}
}

// withDefaults resolves zero fields to their defaults.
func (c Config) withDefaults() Config {
	d := Default()
	if c.MinRacks == 0 {
		c.MinRacks = d.MinRacks
	}
	if c.Reserve == 0 {
		c.Reserve = d.Reserve
	}
	if c.AgeBoost == 0 {
		c.AgeBoost = d.AgeBoost
	}
	return c
}

// Margin returns the admission reserve in watts for a breaker limit.
func (c Config) Margin(limit units.Power) units.Power {
	r := c.withDefaults().Reserve
	if r < 0 {
		return 0
	}
	return units.Power(float64(r) * float64(limit))
}

// Request is a paused recharge waiting for admission.
type Request struct {
	Name     string
	Priority rack.Priority
	DOD      units.Fraction
	// Since is the virtual time the rack's charge episode began — the SLA
	// clock admission grants are sized against. A charge paused mid-flight
	// and re-enqueued keeps its original clock this way; zero means the
	// episode begins at enqueue time.
	Since time.Duration
}

// Grant is an admitted recharge and the charging current it may start at.
type Grant struct {
	Request
	Current units.Current
}

// Metrics counts admission-control activity.
type Metrics struct {
	// Storms is the number of correlated-start events detected.
	Storms int
	// Enqueued is the number of recharges paused into the queue.
	Enqueued int
	// Admitted is the number of recharges granted a start.
	Admitted int
	// Waves is the number of planning cycles that admitted at least one rack.
	Waves int
	// MaxQueue is the high-water mark of the queue length.
	MaxQueue int
	// Promotions counts admissions that were age-promoted above their
	// nominal priority class.
	Promotions int
}

type waiter struct {
	Request
	since time.Duration
}

// Queue is the storm admission queue. It is owned by the planning controller
// (one per coordination domain) and is not safe for concurrent use — the
// simulator's control planes are single-threaded per tick.
type Queue struct {
	cfg     Config
	waiting []waiter
	member  map[string]bool
	metrics Metrics

	// Observability (nil when detached).
	sink                                               *obs.Sink
	cStorms, cEnqueued, cAdmitted, cWaves, cPromotions *obs.Counter
	gDepth                                             *obs.Gauge
	hWait                                              *obs.Histogram
}

// NewQueue returns an empty admission queue.
func NewQueue(cfg Config) *Queue {
	return &Queue{cfg: cfg.withDefaults(), member: make(map[string]bool)}
}

// SetObs attaches an observability sink: admission activity is counted under
// storm.* metrics (queue depth gauge, queue-wait histogram) and every
// pause/admission decision is journaled to the flight recorder.
func (q *Queue) SetObs(s *obs.Sink) {
	q.sink = s
	q.cStorms = s.Counter("storm.storms")
	q.cEnqueued = s.Counter("storm.enqueued")
	q.cAdmitted = s.Counter("storm.admitted")
	q.cWaves = s.Counter("storm.waves")
	q.cPromotions = s.Counter("storm.promotions")
	q.gDepth = s.Gauge("storm.queue_depth")
	q.hWait = s.Histogram("storm.queue_wait_s", 0)
}

// Config returns the queue's resolved parameters.
func (q *Queue) Config() Config { return q.cfg }

// Metrics returns the accumulated admission counters.
func (q *Queue) Metrics() Metrics { return q.metrics }

// Len returns the number of requests waiting.
func (q *Queue) Len() int { return len(q.waiting) }

// Contains reports whether the named rack is waiting for admission.
func (q *Queue) Contains(name string) bool { return q.member[name] }

// NoteStorm records a detected correlated-start event at virtual time now.
func (q *Queue) NoteStorm(now time.Duration) {
	q.metrics.Storms++
	q.cStorms.Inc()
	q.sink.Event(now, "storm/queue", "storm-detected")
}

// Enqueue pauses a recharge into the queue at virtual time now. Requests
// with nothing owed or already queued are ignored.
func (q *Queue) Enqueue(now time.Duration, r Request) {
	if r.DOD <= 0 || q.member[r.Name] {
		return
	}
	q.waiting = append(q.waiting, waiter{Request: r, since: now})
	q.member[r.Name] = true
	q.metrics.Enqueued++
	if len(q.waiting) > q.metrics.MaxQueue {
		q.metrics.MaxQueue = len(q.waiting)
	}
	q.cEnqueued.Inc()
	q.gDepth.Set(float64(len(q.waiting)))
	if q.sink != nil {
		q.sink.Event(now, "storm/queue", "enqueue",
			"rack", r.Name,
			"priority", fmt.Sprintf("%d", r.Priority),
			"dod", fmt.Sprintf("%.3f", float64(r.DOD)))
	}
}

// Remove drops the named rack from the queue (it lost input again, or a
// locally restarted charge superseded the queued one). It reports whether
// the rack was queued.
func (q *Queue) Remove(name string) bool {
	if !q.member[name] {
		return false
	}
	delete(q.member, name)
	for i, w := range q.waiting {
		if w.Name == name {
			q.waiting = append(q.waiting[:i], q.waiting[i+1:]...)
			break
		}
	}
	q.gDepth.Set(float64(len(q.waiting)))
	return true
}

// Reset clears the queue without touching the counters: a crashed controller
// loses its in-memory queue and reconstructs it from agent reads (racks keep
// their pending DOD locally).
func (q *Queue) Reset() {
	q.waiting = nil
	q.member = make(map[string]bool)
	q.gDepth.Set(0)
}

// effectivePriority is the admission-ordering priority after deficit aging:
// every AgeBoost of waiting promotes a request one class, clamped at P1.
func (q *Queue) effectivePriority(w waiter, now time.Duration) rack.Priority {
	p := w.Priority
	if q.cfg.AgeBoost <= 0 {
		return p
	}
	steps := int((now - w.since) / q.cfg.AgeBoost)
	p -= rack.Priority(steps)
	if p < rack.P1 {
		p = rack.P1
	}
	return p
}

// Admit grants the next wave of recharges under the power budget (the
// breaker's measured headroom net of the reserve). Ordering is effective
// priority first (aged), then nominal priority, then shallower DOD (faster
// to clear), then name for determinism. Admission is head-of-line: once the front request cannot fit
// even the minimum charging current, nothing behind it is admitted — that is
// what preserves strict P1 < P2 < P3 wave ordering. The front request is
// granted its SLA current when the budget allows, or the largest feasible
// current on the override grid otherwise. Granted racks leave the queue.
func (q *Queue) Admit(now time.Duration, budget units.Power, cfg core.Config) []Grant {
	if len(q.waiting) == 0 || budget <= 0 {
		return nil
	}
	order := make([]waiter, len(q.waiting))
	copy(order, q.waiting)
	sort.SliceStable(order, func(i, j int) bool {
		pi, pj := q.effectivePriority(order[i], now), q.effectivePriority(order[j], now)
		if pi != pj {
			return pi < pj
		}
		// At equal effective priority the nominal class still orders the
		// wave: requests that enqueued together age together, so a promoted
		// P3 outranks later arrivals without ever jumping a P1 (or P2) it
		// has merely caught up with.
		if order[i].Priority != order[j].Priority {
			return order[i].Priority < order[j].Priority
		}
		if order[i].DOD != order[j].DOD {
			return order[i].DOD < order[j].DOD
		}
		return order[i].Name < order[j].Name
	})

	min := cfg.Surface.MinCurrent()
	res := cfg.Resolution
	if res <= 0 {
		res = 1
	}
	var grants []Grant
	left := float64(budget)
	for _, w := range order {
		if q.cfg.MaxWave > 0 && len(grants) >= q.cfg.MaxWave {
			break
		}
		// The rack's SLA clock has been running since its charge episode
		// began — before it enqueued, for a charge paused mid-flight — so
		// size the grant against the deadline budget it has left, not the
		// full one.
		start := w.since
		if w.Since > 0 && w.Since < start {
			start = w.Since
		}
		want, _ := cfg.SLACurrentWithin(w.Priority, w.DOD, cfg.Deadlines[w.Priority]-(now-start))
		if want < min {
			want = min
		}
		grant := units.Current(0)
		for i := want; i >= min; i -= res {
			if float64(i)*cfg.WattsPerAmp <= left {
				grant = i
				break
			}
		}
		if grant <= 0 {
			break // head-of-line: keep the wave priority-ordered
		}
		left -= float64(grant) * cfg.WattsPerAmp
		grants = append(grants, Grant{Request: w.Request, Current: grant})
		if q.effectivePriority(w, now) < w.Priority {
			q.metrics.Promotions++
			q.cPromotions.Inc()
		}
		wait := (now - w.since).Seconds()
		q.hWait.Observe(wait)
		if q.sink != nil {
			q.sink.Event(now, "storm/queue", "admit",
				"rack", w.Name,
				"amps", fmt.Sprintf("%d", int(grant)),
				"wait_s", fmt.Sprintf("%.0f", wait))
		}
	}
	for _, g := range grants {
		q.Remove(g.Name)
	}
	q.metrics.Admitted += len(grants)
	q.cAdmitted.Add(int64(len(grants)))
	if len(grants) > 0 {
		q.metrics.Waves++
		q.cWaves.Inc()
		if q.sink != nil {
			q.sink.Event(now, "storm/queue", "admission-wave",
				"granted", fmt.Sprintf("%d", len(grants)),
				"budget_w", fmt.Sprintf("%.0f", float64(budget)))
		}
	}
	return grants
}
