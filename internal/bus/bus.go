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
// that delivers it: the bus posts the message itself, so a send costs one
// allocation and no closure.
type Message struct {
	From, To string
	// Kind discriminates the protocol operation ("read", "override", ...).
	Kind string
	// Payload carries the operation's argument or result.
	Payload any

	bus *Bus
	dst *endpoint // To, resolved when the message is dispatched
	// onReply is the requester's callback. It makes a request answerable,
	// and delivering a reply hands the reply's payload to it.
	onReply func(now time.Duration, payload any)
	isReply bool
}

// Fire delivers the message when its latency elapses; it implements
// sim.Target for the bus and is not meant to be called directly. A reply goes
// to its requester's callback; anything else goes to its endpoint's handler,
// or counts as dropped if nobody registered the endpoint.
func (m *Message) Fire(now time.Duration) {
	if m.isReply {
		m.onReply(now, m.Payload)
		return
	}
	if m.dst.h == nil {
		m.bus.dropped++
		return
	}
	m.bus.delivered++
	m.dst.h(now, m)
}

// Handler processes a delivered message.
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
	endpoints map[string]*endpoint
	// replyKinds interns "reply:<kind>" by request kind.
	replyKinds map[string]string
	delivered  uint64
	dropped    uint64
	// Perturb, when set, lets a fault injector act on every message —
	// requests, one-way sends, and replies (replies are presented with
	// Kind "reply:<kind>" and swapped From/To). Returning drop discards
	// the message, extra adds delivery delay beyond the latency model,
	// and dup delivers that many additional copies.
	Perturb func(now time.Duration, msg *Message) (drop bool, extra time.Duration, dup int)
}

// endpoint is one destination name: its handler, nil until registered, and
// its delivery-event labels interned by message kind.
type endpoint struct {
	name   string
	h      Handler
	labels map[string]string
}

// label returns the interned "bus:<kind>:<name>" delivery-event label.
func (ep *endpoint) label(kind string) string {
	l, ok := ep.labels[kind]
	if !ok {
		l = "bus:" + kind + ":" + ep.name
		ep.labels[kind] = l
	}
	return l
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
	return &Bus{
		engine: engine, latency: latency,
		endpoints: make(map[string]*endpoint), replyKinds: make(map[string]string),
	}
}

// Register attaches a handler to an endpoint name. Registering a name twice
// panics: endpoint identity is a wiring invariant.
func (b *Bus) Register(name string, h Handler) {
	ep := b.endpoint(name)
	if ep.h != nil {
		panic(fmt.Errorf("bus: endpoint %q registered twice", name))
	}
	if h == nil {
		panic(fmt.Errorf("bus: nil handler for %q", name))
	}
	ep.h = h
}

// endpoint returns the named endpoint, creating it unregistered on first use:
// a message to a name nobody has registered yet still gets an interned label,
// and is dropped if the name is still unregistered when it arrives.
func (b *Bus) endpoint(name string) *endpoint {
	ep, ok := b.endpoints[name]
	if !ok {
		ep = &endpoint{name: name, labels: make(map[string]string)}
		b.endpoints[name] = ep
	}
	return ep
}

// Delivered and Dropped report traffic counters.
func (b *Bus) Delivered() uint64 { return b.delivered }

// Dropped counts messages discarded by the Perturb hook and messages sent to
// unknown endpoints.
func (b *Bus) Dropped() uint64 { return b.dropped }

// Send dispatches a one-way message; delivery happens after the latency
// model's delay. Messages to unregistered endpoints are counted as dropped
// (a controller may poll an agent that has been decommissioned).
func (b *Bus) Send(from, to, kind string, payload any) {
	b.dispatch(&Message{From: from, To: to, Kind: kind, Payload: payload, bus: b})
}

// Request dispatches a message and routes the response back through the bus
// (paying latency both ways). The responder completes the exchange by
// calling Reply on the delivered message.
func (b *Bus) Request(from, to, kind string, payload any, onReply func(now time.Duration, payload any)) {
	b.dispatch(&Message{From: from, To: to, Kind: kind, Payload: payload, bus: b, onReply: onReply})
}

// Reply completes a request/response exchange. Replying to a one-way
// message is a protocol bug and panics.
func (b *Bus) Reply(now time.Duration, msg *Message, payload any) {
	if msg.onReply == nil {
		panic(fmt.Errorf("bus: reply to one-way %s message from %s", msg.Kind, msg.From))
	}
	// The response travels back with its own delay and is subject to the
	// same fault perturbation as a forward message.
	b.dispatch(&Message{
		From: msg.To, To: msg.From, Kind: b.replyKind(msg.Kind), Payload: payload,
		bus: b, onReply: msg.onReply, isReply: true,
	})
}

// dispatch applies the fault perturbation to msg, then posts it for delivery
// after the latency model's delay (plus any injected extra), once per
// injected duplicate.
func (b *Bus) dispatch(msg *Message) {
	var extra time.Duration
	var dup int
	if b.Perturb != nil {
		var drop bool
		drop, extra, dup = b.Perturb(b.engine.Now(), msg)
		if drop {
			b.dropped++
			return
		}
	}
	d := b.latency(msg.From, msg.To) + extra
	msg.dst = b.endpoint(msg.To)
	label := msg.dst.label(msg.Kind)
	for i := 0; i <= dup; i++ {
		b.engine.PostAfter(d, label, msg)
	}
}

// replyKind returns the interned "reply:<kind>" kind of a reply.
func (b *Bus) replyKind(kind string) string {
	r, ok := b.replyKinds[kind]
	if !ok {
		r = "reply:" + kind
		b.replyKinds[kind] = r
	}
	return r
}
