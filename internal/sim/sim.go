// Package sim provides a small discrete-event simulation kernel: a virtual
// clock, a time-ordered event queue, periodic processes, and run-loop
// control.
//
// The kernel is single-threaded by design. Data-center power events span
// seconds (open transitions) to years (Monte Carlo reliability runs), so a
// sequential event loop with a virtual clock is both simpler and faster than
// wall-clock concurrency, and it keeps every experiment deterministic.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"
)

// Handler is the unit of simulated work. It runs at its scheduled virtual
// time and may schedule further events.
type Handler func(now time.Duration)

// Fire runs the handler, making every Handler a Target.
func (h Handler) Fire(now time.Duration) { h(now) }

// Target is anything that runs itself when its event comes due. A payload
// that implements it (a bus message, a controller's poll generation) is
// posted directly, with no closure wrapped around it.
type Target interface {
	Fire(now time.Duration)
}

// Event is a scheduled target. ScheduleAt and its relatives return it so the
// caller can cancel it; Post's events have no handle and are recycled.
type Event struct {
	at        time.Duration
	seq       uint64 // tie-break: FIFO among events at the same instant
	target    Target
	index     int // heap index, -1 once popped or cancelled
	cancelled bool
	posted    bool // handle-less: back on the free list once it fires
	label     string
}

// At returns the virtual time the event is scheduled for.
func (e *Event) At() time.Duration { return e.at }

// Label returns the optional debug label attached to the event.
func (e *Event) Label() string { return e.label }

// Cancelled reports whether the event has been cancelled.
func (e *Event) Cancelled() bool { return e.cancelled }

// before orders events by (at, seq): a total order, so every heap shape pops
// the same sequence.
func before(a, b *Event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Engine is the simulation driver: a virtual clock plus a pending-event
// queue. The zero value is not usable; construct with NewEngine.
type Engine struct {
	now    time.Duration
	queue  []*Event // binary min-heap under before
	free   []*Event // fired Post events awaiting reuse
	seq    uint64
	count  uint64 // events executed
	halted bool
}

// NewEngine returns an engine with its clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.count }

// Seq returns the number of events ever scheduled (the schedule-order
// counter). Together with Now and Executed it pins the engine's progress, so
// a checkpoint resume can verify that a deterministic replay reconstructed
// the event timeline exactly.
func (e *Engine) Seq() uint64 { return e.seq }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.queue) }

// NextAt returns the virtual time of the earliest pending event and whether
// one exists (Cancel removes events from the heap, so everything resident is
// live). This is the batched-wakeup primitive: a time-skipping caller peeks
// the next deadline, advances analytically up to it, and lets Run execute
// the batch of events due at that instant.
func (e *Engine) NextAt() (time.Duration, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// EventView is the inspectable projection of a pending event: its deadline
// and debug label. Handler closures cannot be compared or printed, so tests
// check a queue's schedule through views.
type EventView struct {
	At    time.Duration `json:"at"`
	Label string        `json:"label"`
}

// Snapshot returns the pending events as views in deterministic execution
// order (at, then schedule seq). It allocates a fresh slice and never
// perturbs the heap.
func (e *Engine) Snapshot() []EventView {
	pending := slices.Clone(e.queue)
	slices.SortFunc(pending, func(a, b *Event) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	views := make([]EventView, len(pending))
	for i, ev := range pending {
		views[i] = EventView{At: ev.at, Label: ev.label}
	}
	return views
}

// ErrPast is returned when an event is scheduled before the current virtual
// time.
var ErrPast = errors.New("sim: event scheduled in the past")

// ScheduleAt queues fn to run at absolute virtual time at. Scheduling at the
// current instant is allowed (the event runs after all handlers already
// queued for this instant). It panics if at precedes the clock: that is
// always a modelling bug, never a recoverable condition.
func (e *Engine) ScheduleAt(at time.Duration, label string, fn Handler) *Event {
	e.checkAt(at, label)
	ev := &Event{}
	e.push(ev, at, label, fn)
	return ev
}

// ScheduleAfter queues fn to run d after the current virtual time.
func (e *Engine) ScheduleAfter(d time.Duration, label string, fn Handler) *Event {
	return e.ScheduleAt(e.now+d, label, fn)
}

// Post queues t to fire at absolute virtual time at, ordered exactly as
// ScheduleAt would order it. It returns no handle, so the event cannot be
// cancelled; once it fires the engine reuses it for a later Post, which makes
// fire-and-forget traffic (message deliveries, command settling, evaluation
// deadlines) allocation-free in steady state.
func (e *Engine) Post(at time.Duration, label string, t Target) {
	e.checkAt(at, label)
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{posted: true}
	}
	e.push(ev, at, label, t)
}

// PostAfter posts t to fire d after the current virtual time.
func (e *Engine) PostAfter(d time.Duration, label string, t Target) {
	e.Post(e.now+d, label, t)
}

func (e *Engine) checkAt(at time.Duration, label string) {
	if at < e.now {
		panic(fmt.Errorf("%w: at=%v now=%v label=%q", ErrPast, at, e.now, label))
	}
}

// Cancel removes ev from the queue if it has not yet run. It is safe to call
// multiple times and on already-run events.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	if !ev.cancelled && ev.index >= 0 {
		e.remove(ev.index)
	}
	ev.cancelled = true
}

// push stamps ev with its deadline and schedule seq and sifts it into the
// heap.
func (e *Engine) push(ev *Event, at time.Duration, label string, t Target) {
	ev.at, ev.seq, ev.label, ev.target = at, e.seq, label, t
	e.seq++
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.up(ev.index)
}

// remove takes the event at heap index i out of the queue.
func (e *Engine) remove(i int) *Event {
	q := e.queue
	last := len(q) - 1
	ev := q[i]
	if i != last {
		q[i] = q[last]
		q[i].index = i
	}
	q[last] = nil
	e.queue = q[:last]
	if i != last {
		if !e.down(i) {
			e.up(i)
		}
	}
	ev.index = -1
	return ev
}

func (e *Engine) up(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !before(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

// down sifts the event at i toward the leaves and reports whether it moved.
func (e *Engine) down(i int) bool {
	q := e.queue
	ev := q[i]
	start := i
	for {
		child := 2*i + 1
		if child >= len(q) {
			break
		}
		if r := child + 1; r < len(q) && before(q[r], q[child]) {
			child = r
		}
		if !before(q[child], ev) {
			break
		}
		q[i] = q[child]
		q[i].index = i
		i = child
	}
	q[i] = ev
	ev.index = i
	return i > start
}

// Ticker runs a handler at a fixed period. Cancel it with Stop.
type Ticker struct {
	engine *Engine
	period time.Duration
	fn     Handler
	next   *Event
	done   bool
}

// Every schedules fn to run every period, with the first invocation one
// period from now. Period must be positive.
func (e *Engine) Every(period time.Duration, label string, fn Handler) *Ticker {
	if period <= 0 {
		panic(fmt.Errorf("sim: non-positive ticker period %v (%s)", period, label))
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	var tick Handler
	tick = func(now time.Duration) {
		if t.done {
			return
		}
		t.fn(now)
		if !t.done {
			t.next = e.ScheduleAfter(t.period, label, tick)
		}
	}
	t.next = e.ScheduleAfter(period, label, tick)
	return t
}

// Stop cancels future ticks. The current tick, if executing, completes.
func (t *Ticker) Stop() {
	t.done = true
	t.engine.Cancel(t.next)
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.remove(0)
	e.now = ev.at
	e.count++
	t := ev.target
	if ev.posted {
		// Nothing outside the engine refers to a posted event: recycle it
		// before firing, so the target's own posts can reuse it.
		ev.target, ev.label = nil, ""
		e.free = append(e.free, ev)
	}
	t.Fire(e.now)
	return true
}

// Halt stops a Run in progress after the current event completes.
func (e *Engine) Halt() { e.halted = true }

// Run executes events until the clock would pass until or until Halt is
// called, then advances the clock to until. Events scheduled exactly at
// until are executed. Advancing the clock past an empty queue matters:
// callers driving a time-stepped co-simulation rely on ScheduleAfter being
// relative to the stepped clock, not to the last event.
func (e *Engine) Run(until time.Duration) time.Duration {
	e.halted = false
	for !e.halted {
		if len(e.queue) == 0 || e.queue[0].at > until {
			if until > e.now {
				e.now = until
			}
			return e.now
		}
		e.Step()
	}
	return e.now
}

// RunAll executes events until the queue is empty or Halt is called. Use
// only when the event population is known to be finite.
func (e *Engine) RunAll() time.Duration {
	e.halted = false
	for !e.halted && e.Step() {
	}
	return e.now
}
