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
// that implements it (a bus message, a controller's poll deadline) is
// posted directly, with no closure wrapped around it.
type Target interface {
	Fire(now time.Duration)
}

// Event is a scheduled target. ScheduleAt and its relatives return it so the
// caller can cancel it; Post's events have no handle and are recycled.
// PostAfter's events live in FIFO lanes instead (see lane).
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

// maxLanes bounds the FIFO lanes an engine keeps. A message plane posts
// after a handful of recurring delays (network latency, the poll deadline,
// command settling); a delay beyond the first maxLanes goes to the heap.
const maxLanes = 4

// lane holds the PostAfter events of one delay in a ring buffer whose length
// is a power of two, so positions wrap with a mask. The clock never goes
// back and seq only grows, so events appended at now+delay are in (at, seq)
// order by construction: a lane needs no sifting, and its head is its least
// event.
type lane struct {
	delay   time.Duration
	buf     []laneEvent
	head, n int
}

// laneEvent is a pending PostAfter event, held by value in its lane.
type laneEvent struct {
	at     time.Duration
	seq    uint64
	target Target
	label  string
}

func (l *lane) push(ev laneEvent) {
	if l.n == len(l.buf) {
		grown := make([]laneEvent, max(8, 2*len(l.buf)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.at(i)
		}
		l.buf, l.head = grown, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = ev
	l.n++
}

// at returns the lane's i-th pending event, counting from the head.
func (l *lane) at(i int) laneEvent { return l.buf[(l.head+i)&(len(l.buf)-1)] }

func (l *lane) pop() laneEvent {
	ev := l.buf[l.head]
	l.buf[l.head] = laneEvent{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return ev
}

// Engine is the simulation driver: a virtual clock plus the pending events,
// held in a binary heap and in FIFO lanes. Every event carries a schedule
// seq, and Step always runs the least (at, seq) across both, so where an
// event waits never changes the order events run in. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now    time.Duration
	queue  []*Event // binary min-heap under before
	lanes  []lane   // PostAfter events, one lane per delay
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
func (e *Engine) Pending() int {
	n := len(e.queue)
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	return n
}

// NextAt returns the virtual time of the earliest pending event and whether
// one exists (Cancel removes events from the heap, so everything resident is
// live). This is the batched-wakeup primitive: a time-skipping caller peeks
// the next deadline, advances analytically up to it, and lets Run execute
// the batch of events due at that instant.
func (e *Engine) NextAt() (time.Duration, bool) {
	at, _, ok := e.peek()
	return at, ok
}

// peek finds the least pending event: its time, and the lane holding it or
// -1 for the heap.
func (e *Engine) peek() (at time.Duration, from int, ok bool) {
	var seq uint64
	from = -1
	if len(e.queue) > 0 {
		at, seq, ok = e.queue[0].at, e.queue[0].seq, true
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		if l.n == 0 {
			continue
		}
		if h := &l.buf[l.head]; !ok || h.at < at || h.at == at && h.seq < seq {
			at, seq, from, ok = h.at, h.seq, i, true
		}
	}
	return at, from, ok
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
// perturbs the queue.
func (e *Engine) Snapshot() []EventView {
	pending := make([]laneEvent, 0, e.Pending())
	for _, ev := range e.queue {
		pending = append(pending, laneEvent{at: ev.at, seq: ev.seq, label: ev.label})
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		for j := 0; j < l.n; j++ {
			pending = append(pending, l.at(j))
		}
	}
	slices.SortFunc(pending, func(a, b laneEvent) int {
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

// PostAfter posts t to fire d after the current virtual time, ordered
// exactly as Post would order it. Events posted after the same delay share a
// FIFO lane, so a recurring delay (a link's latency, a deadline, command
// settling) costs no heap sift; pass a one-off delay to Post instead, so it
// does not take a lane.
func (e *Engine) PostAfter(d time.Duration, label string, t Target) {
	at := e.now + d
	e.checkAt(at, label)
	for i := range e.lanes {
		if l := &e.lanes[i]; l.delay == d {
			l.push(laneEvent{at: at, seq: e.seq, target: t, label: label})
			e.seq++
			return
		}
	}
	if len(e.lanes) == maxLanes {
		e.Post(at, label, t)
		return
	}
	e.lanes = append(e.lanes, lane{delay: d})
	e.lanes[len(e.lanes)-1].push(laneEvent{at: at, seq: e.seq, target: t, label: label})
	e.seq++
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
	label  string
	ev     *Event // the one event every period reuses
	done   bool
}

// Every schedules fn to run every period, with the first invocation one
// period from now. Period must be positive.
func (e *Engine) Every(period time.Duration, label string, fn Handler) *Ticker {
	if period <= 0 {
		panic(fmt.Errorf("sim: non-positive ticker period %v (%s)", period, label))
	}
	t := &Ticker{engine: e, period: period, fn: fn, label: label, ev: &Event{}}
	e.push(t.ev, e.now+period, label, Handler(t.tick))
	return t
}

// tick runs one period and queues the ticker's event for the next, exactly
// where a fresh ScheduleAfter would have put it.
func (t *Ticker) tick(now time.Duration) {
	if t.done {
		return
	}
	t.fn(now)
	if !t.done {
		t.engine.push(t.ev, now+t.period, t.label, t.ev.target)
	}
}

// Stop cancels future ticks. The current tick, if executing, completes.
func (t *Ticker) Stop() {
	t.done = true
	t.engine.Cancel(t.ev)
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	_, from, ok := e.peek()
	if ok {
		e.fire(from)
	}
	return ok
}

// fire runs the least pending event, found by peek in lane from (-1: the
// heap).
func (e *Engine) fire(from int) {
	e.count++
	if from >= 0 {
		ev := e.lanes[from].pop()
		e.now = ev.at
		ev.target.Fire(e.now)
		return
	}
	ev := e.remove(0)
	e.now = ev.at
	t := ev.target
	if ev.posted {
		// Nothing outside the engine refers to a posted event: recycle it
		// before firing, so the target's own posts can reuse it.
		ev.target, ev.label = nil, ""
		e.free = append(e.free, ev)
	}
	t.Fire(e.now)
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
		at, from, ok := e.peek()
		if !ok || at > until {
			if until > e.now {
				e.now = until
			}
			return e.now
		}
		e.fire(from)
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
