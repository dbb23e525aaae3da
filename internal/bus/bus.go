// Package bus provides deterministic in-simulation message passing between
// control-plane components: the network that connects Dynamo agents on TOR
// switches to the distributed controllers (paper §IV-B). Messages are
// delivered through the discrete-event engine with a configurable latency
// model, so ordering is reproducible run-to-run and network delay becomes a
// first-class experimental variable (the ~20 s override settling of Fig 11
// is mostly command execution, but the read/override round trips themselves
// ride this bus).
package bus

import (
	"fmt"
	"time"

	"coordcharge/internal/sim"
)

// Message is one datagram between endpoints. It is also the engine event
// that delivers it: the bus posts the message itself, and once its last
// delivery has fired it goes back on the bus's free list for a later send. A
// handler, reply callback or Perturb hook must therefore not keep a *Message
// after it returns; copy the fields it needs.
type Message struct {
	From, To string
	// Kind discriminates the protocol operation ("read", "override", ...).
	Kind string
	// Payload carries the operation's argument or result. It lives exactly
	// as long as the message: a payload that implements Releaser is handed
	// back when the message is recycled, so a receiver copies what it keeps
	// and reads nothing of it after its handler or callback returns.
	Payload any
	// Tag is the requester's correlation value: a request's tag comes back
	// on its reply, however late the reply arrives.
	Tag uint64

	bus      *Bus
	src, dst *Endpoint // From and To, resolved
	// onReply is the requester's callback. It makes a request answerable,
	// and a reply is delivered to it instead of to an endpoint's handler.
	onReply Handler
	isReply bool
	pending int // posted deliveries (injected duplicates included) yet to fire
}

// Releaser is a payload with a release hook: the bus calls Release exactly
// once, when it recycles the message carrying the payload — after the
// message's last delivery (injected duplicates included), at once on a
// Perturb drop, or at once when the destination is unregistered.
type Releaser interface{ Release() }

// Box is a pooled payload: a value its sender fills in and sends by pointer,
// handed back to its Pool when the message carrying it is recycled. V keeps
// what it last carried, so a slice-valued box reuses its backing array.
type Box[T any] struct {
	V    T
	pool *Pool[T]
}

// Release returns the box to its pool; the bus calls it.
func (x *Box[T]) Release() { x.pool.free = append(x.pool.free, x) }

// Pool is a free list of payload boxes. It belongs to one sender (an agent
// or a controller) and so to one simulation, never to package state:
// simulations run concurrently, and each must allocate alike run to run.
type Pool[T any] struct{ free []*Box[T] }

// Get returns a box off the free list, or a new one.
func (p *Pool[T]) Get() *Box[T] {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	return &Box[T]{pool: p}
}

// Fire delivers the message when its latency elapses; it implements
// sim.Target for the bus and is not meant to be called directly. A reply goes
// to its requester's callback; anything else goes to its endpoint's handler,
// or counts as dropped if nobody registered the endpoint. After the last
// delivery the message is recycled.
func (m *Message) Fire(now time.Duration) {
	b := m.bus
	m.pending--
	switch {
	case m.isReply:
		m.onReply(now, m)
	case m.dst.h == nil:
		b.dropped++
	default:
		b.delivered++
		m.dst.h(now, m)
	}
	if m.pending == 0 {
		b.recycle(m)
	}
}

// Handler processes a delivered message, or a reply handed to its
// requester. The message and its payload are only valid until the handler
// returns: the bus then reuses the message and releases the payload, so a
// handler copies what it keeps.
type Handler func(now time.Duration, msg *Message)

// LatencyModel returns the one-way delivery delay between two endpoints.
type LatencyModel func(from, to string) time.Duration

// ConstantLatency returns a LatencyModel with a fixed one-way delay.
func ConstantLatency(d time.Duration) LatencyModel {
	return func(_, _ string) time.Duration { return d }
}

// Bus is the message fabric. Construct with New.
type Bus struct {
	engine    *sim.Engine
	latency   LatencyModel
	endpoints map[string]*Endpoint
	// replyKinds interns "reply:<kind>" by request kind.
	replyKinds []interned
	free       []*Message // delivered messages awaiting reuse
	delivered  uint64
	dropped    uint64
	// Perturb, when set, lets a fault injector act on every message —
	// requests, one-way sends, and replies (replies are presented with
	// Kind "reply:<kind>" and swapped From/To). Returning drop discards
	// the message, extra adds delivery delay beyond the latency model,
	// and dup delivers that many additional copies. Like a handler, it
	// must not keep the message.
	Perturb func(now time.Duration, msg *Message) (drop bool, extra time.Duration, dup int)
}

// interned is a string derived from a message kind, kept for reuse.
type interned struct{ kind, s string }

// lookup returns the string interned for kind in list, making it with mk
// on first use. An endpoint sees few kinds, so a scan beats hashing.
func lookup(list *[]interned, kind string, mk func() string) string {
	for i := range *list {
		if (*list)[i].kind == kind {
			return (*list)[i].s
		}
	}
	s := mk()
	*list = append(*list, interned{kind, s})
	return s
}

// Endpoint is a resolved bus address: one name, its handler (nil until
// registered), and its delivery-event labels interned by message kind.
// Senders resolve their peers once with Bus.Endpoint, so no message hashes
// a name.
type Endpoint struct {
	name   string
	h      Handler
	labels []interned
}

// label returns the interned "bus:<kind>:<name>" delivery-event label.
func (ep *Endpoint) label(kind string) string {
	return lookup(&ep.labels, kind, func() string { return "bus:" + kind + ":" + ep.name })
}

// New builds a bus over the engine. A nil latency model means instant
// delivery (still engine-ordered).
func New(engine *sim.Engine, latency LatencyModel) *Bus {
	if engine == nil {
		panic(fmt.Errorf("bus: nil engine"))
	}
	if latency == nil {
		latency = ConstantLatency(0)
	}
	return &Bus{engine: engine, latency: latency, endpoints: make(map[string]*Endpoint)}
}

// Register attaches a handler to an endpoint name. Registering a name twice
// panics: endpoint identity is a wiring invariant.
func (b *Bus) Register(name string, h Handler) {
	ep := b.Endpoint(name)
	if ep.h != nil {
		panic(fmt.Errorf("bus: endpoint %q registered twice", name))
	}
	if h == nil {
		panic(fmt.Errorf("bus: nil handler for %q", name))
	}
	ep.h = h
}

// Endpoint resolves a name, creating its endpoint unregistered on first
// use: a message to a name nobody has registered yet still gets an interned
// label, and is dropped if the name is still unregistered when it arrives.
func (b *Bus) Endpoint(name string) *Endpoint {
	ep, ok := b.endpoints[name]
	if !ok {
		ep = &Endpoint{name: name}
		b.endpoints[name] = ep
	}
	return ep
}

// Delivered and Dropped report traffic counters.
func (b *Bus) Delivered() uint64 { return b.delivered }

// Dropped counts messages discarded by the Perturb hook and messages sent to
// unknown endpoints.
func (b *Bus) Dropped() uint64 { return b.dropped }

// Send dispatches a one-way message by endpoint names; see SendTo.
func (b *Bus) Send(from, to, kind string, payload any) {
	b.SendTo(b.Endpoint(from), b.Endpoint(to), kind, payload)
}

// SendTo dispatches a one-way message; delivery happens after the latency
// model's delay. Messages to unregistered endpoints are counted as dropped
// (a controller may poll an agent that has been decommissioned).
func (b *Bus) SendTo(from, to *Endpoint, kind string, payload any) {
	b.dispatch(b.message(from, to, kind, payload))
}

// Request dispatches a request by endpoint names; see RequestTo.
func (b *Bus) Request(from, to, kind string, tag uint64, payload any, onReply Handler) {
	b.RequestTo(b.Endpoint(from), b.Endpoint(to), kind, tag, payload, onReply)
}

// RequestTo dispatches a message and routes the response back through the
// bus to from (paying latency both ways). The responder completes the
// exchange by calling Reply on the delivered message; onReply then receives
// the reply, which carries the reply's payload and the request's tag.
func (b *Bus) RequestTo(from, to *Endpoint, kind string, tag uint64, payload any, onReply Handler) {
	m := b.message(from, to, kind, payload)
	m.Tag, m.onReply = tag, onReply
	b.dispatch(m)
}

// Reply completes a request/response exchange. Replying to a one-way
// message is a protocol bug and panics.
func (b *Bus) Reply(now time.Duration, msg *Message, payload any) {
	if msg.onReply == nil {
		panic(fmt.Errorf("bus: reply to one-way %s message from %s", msg.Kind, msg.From))
	}
	// The response travels back to the requester's endpoint with its own
	// delay and is subject to the same fault perturbation as a forward
	// message.
	kind := lookup(&b.replyKinds, msg.Kind, func() string { return "reply:" + msg.Kind })
	r := b.message(msg.dst, msg.src, kind, payload)
	r.Tag, r.onReply, r.isReply = msg.Tag, msg.onReply, true
	b.dispatch(r)
}

// message takes a message off the free list, or allocates one, and
// addresses it.
func (b *Bus) message(from, to *Endpoint, kind string, payload any) *Message {
	var m *Message
	if n := len(b.free); n > 0 {
		m = b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
	} else {
		m = &Message{bus: b}
	}
	m.From, m.To, m.Kind, m.Payload = from.name, to.name, kind, payload
	m.src, m.dst = from, to
	return m
}

// recycle releases the payload of a message whose deliveries are all done,
// clears the message and puts it on the free list.
func (b *Bus) recycle(m *Message) {
	if r, ok := m.Payload.(Releaser); ok {
		r.Release()
	}
	*m = Message{bus: b}
	b.free = append(b.free, m)
}

// dispatch applies the fault perturbation to m, then posts it for delivery
// after the latency model's delay (plus any injected extra), once per
// injected duplicate. A dropped message is recycled at once.
func (b *Bus) dispatch(m *Message) {
	var extra time.Duration
	var dup int
	if b.Perturb != nil {
		var drop bool
		drop, extra, dup = b.Perturb(b.engine.Now(), m)
		if drop {
			b.dropped++
			b.recycle(m)
			return
		}
	}
	d := b.latency(m.From, m.To)
	label := m.dst.label(m.Kind)
	m.pending = 1 + dup
	for i := 0; i <= dup; i++ {
		if extra == 0 {
			b.engine.PostAfter(d, label, m)
		} else {
			// An injected delay is one-off: it goes to the engine's heap
			// rather than taking a FIFO lane.
			b.engine.Post(b.engine.Now()+d+extra, label, m)
		}
	}
}
