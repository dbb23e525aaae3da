package bus

import (
	"fmt"
	"testing"
	"time"

	"coordcharge/internal/sim"
)

func TestSendDeliversWithLatency(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(100*time.Millisecond))
	var gotAt time.Duration
	var gotPayload any
	b.Register("dst", func(now time.Duration, msg *Message) {
		gotAt = now
		gotPayload = msg.Payload
	})
	b.Send("src", "dst", "ping", 42)
	e.Run(time.Second)
	if gotAt != 100*time.Millisecond {
		t.Errorf("delivered at %v, want 100ms", gotAt)
	}
	if gotPayload != 42 {
		t.Errorf("payload = %v", gotPayload)
	}
	if b.Delivered() != 1 || b.Dropped() != 0 {
		t.Errorf("counters = %d/%d", b.Delivered(), b.Dropped())
	}
}

func TestRequestReplyRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(50*time.Millisecond))
	b.Register("server", func(now time.Duration, msg *Message) {
		b.Reply(now, msg, msg.Payload.(int)*2)
	})
	var replyAt time.Duration
	var result any
	b.Request("client", "server", "double", 0, 21, func(now time.Duration, r *Message) {
		replyAt = now
		result = r.Payload
	})
	e.Run(time.Second)
	if result != 42 {
		t.Errorf("result = %v", result)
	}
	if replyAt != 100*time.Millisecond { // 50ms out + 50ms back
		t.Errorf("reply at %v, want 100ms", replyAt)
	}
}

func TestUnknownEndpointDropped(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, nil)
	b.Send("a", "ghost", "x", nil)
	e.Run(time.Second)
	if b.Dropped() != 1 || b.Delivered() != 0 {
		t.Errorf("counters = %d/%d", b.Delivered(), b.Dropped())
	}
}

func TestReplyToOneWayPanics(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, nil)
	b.Register("dst", func(now time.Duration, msg *Message) {
		defer func() {
			if recover() == nil {
				t.Error("reply to one-way message did not panic")
			}
		}()
		b.Reply(now, msg, nil)
	})
	b.Send("a", "dst", "oneway", nil)
	e.Run(time.Second)
}

func TestRegisterTwicePanics(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, nil)
	b.Register("x", func(time.Duration, *Message) {})
	defer func() {
		if recover() == nil {
			t.Error("double registration did not panic")
		}
	}()
	b.Register("x", func(time.Duration, *Message) {})
}

func TestNilArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil engine did not panic")
		}
	}()
	New(nil, nil)
}

func TestPerPathLatency(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, func(from, to string) time.Duration {
		if to == "far" {
			return time.Second
		}
		return time.Millisecond
	})
	var nearAt, farAt time.Duration
	b.Register("near", func(now time.Duration, _ *Message) { nearAt = now })
	b.Register("far", func(now time.Duration, _ *Message) { farAt = now })
	b.Send("src", "near", "x", nil)
	b.Send("src", "far", "x", nil)
	e.Run(2 * time.Second)
	if nearAt != time.Millisecond || farAt != time.Second {
		t.Errorf("near=%v far=%v", nearAt, farAt)
	}
}

func TestFIFOBetweenSameEndpoints(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(10*time.Millisecond))
	var order []int
	b.Register("dst", func(_ time.Duration, msg *Message) {
		order = append(order, msg.Payload.(int))
	})
	for i := 0; i < 5; i++ {
		b.Send("src", "dst", "seq", i)
	}
	e.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("out-of-order delivery: %v", order)
		}
	}
}

func TestPerturbDropDelayDuplicate(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(10*time.Millisecond))
	var arrivals []time.Duration
	b.Register("dst", func(now time.Duration, msg *Message) {
		arrivals = append(arrivals, now)
	})
	b.Perturb = func(_ time.Duration, msg *Message) (bool, time.Duration, int) {
		switch msg.Kind {
		case "lost":
			return true, 0, 0
		case "slow":
			return false, 90 * time.Millisecond, 0
		case "dup":
			return false, 0, 1
		}
		return false, 0, 0
	}
	b.Send("src", "dst", "lost", nil)
	b.Send("src", "dst", "slow", nil)
	b.Send("src", "dst", "dup", nil)
	e.Run(time.Second)
	if b.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", b.Dropped())
	}
	// slow arrives at 100 ms; dup arrives twice at 10 ms.
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}
	if len(arrivals) != len(want) {
		t.Fatalf("arrivals = %v, want %v", arrivals, want)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Errorf("arrival %d at %v, want %v", i, arrivals[i], want[i])
		}
	}
}

func TestPerturbAppliesToReplies(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(time.Millisecond))
	b.Register("svc", func(now time.Duration, msg *Message) {
		b.Reply(now, msg, "pong")
	})
	dropReplies := true
	var kinds []string
	b.Perturb = func(_ time.Duration, msg *Message) (bool, time.Duration, int) {
		kinds = append(kinds, msg.Kind)
		return dropReplies && msg.Kind == "reply:ping", 0, 0
	}
	replies := 0
	b.Request("cli", "svc", "ping", 0, nil, func(time.Duration, *Message) { replies++ })
	e.Run(time.Second)
	if replies != 0 {
		t.Fatal("dropped reply was delivered")
	}
	if b.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", b.Dropped())
	}
	// The reply path presents the swapped route to the perturbation hook.
	if len(kinds) != 2 || kinds[0] != "ping" || kinds[1] != "reply:ping" {
		t.Errorf("perturbed kinds = %v", kinds)
	}
	dropReplies = false
	b.Request("cli", "svc", "ping", 0, nil, func(time.Duration, *Message) { replies++ })
	e.Run(2 * time.Second)
	if replies != 1 {
		t.Error("healed reply not delivered")
	}
}

// Delivery events carry "bus:<kind>:<to>" labels, replies "bus:reply:<kind>:<requester>";
// checkpoints record these labels, so they must not drift.
func TestDeliveryEventLabels(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(time.Millisecond))
	b.Register("svc", func(now time.Duration, msg *Message) {
		if msg.Kind == "ping" {
			b.Reply(now, msg, nil)
		}
	})
	b.Request("cli", "svc", "ping", 0, nil, func(time.Duration, *Message) {})
	b.Send("cli", "svc", "note", nil)
	if got := e.Snapshot(); len(got) != 2 || got[0].Label != "bus:ping:svc" || got[1].Label != "bus:note:svc" {
		t.Errorf("pending = %+v", got)
	}
	e.Step()
	if got := e.Snapshot(); len(got) != 2 || got[1].Label != "bus:reply:ping:cli" {
		t.Errorf("pending after the request landed = %+v", got)
	}
	e.RunAll()
	// Replies go to the requester's callback, not an endpoint: only the
	// request and the one-way note count as delivered.
	if b.Delivered() != 2 || b.Dropped() != 0 {
		t.Errorf("counters = %d/%d, want 2/0", b.Delivered(), b.Dropped())
	}
}

// An endpoint resolves when the message arrives, not when it is sent.
func TestRegisterBeforeArrivalDelivers(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(time.Second))
	b.Send("a", "late", "x", nil)
	got := 0
	b.Register("late", func(time.Duration, *Message) { got++ })
	e.RunAll()
	if got != 1 || b.Delivered() != 1 || b.Dropped() != 0 {
		t.Errorf("got %d, counters %d/%d; want the message delivered", got, b.Delivered(), b.Dropped())
	}
}

// A one-way send allocates nothing in steady state: the message comes off
// the bus's free list, its delivery event rides a FIFO lane, and its label
// is interned.
func TestSendAllocatesNothing(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(time.Millisecond))
	b.Register("dst", func(time.Duration, *Message) {})
	allocs := testing.AllocsPerRun(100, func() {
		b.Send("src", "dst", "ping", nil)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Send→delivery allocates %v times, want 0", allocs)
	}
}

// A round trip allocates nothing in steady state: request and reply are
// both recycled, with no reply closure or wrapper message (the reply
// payload here is boxed once, outside the loop; see
// TestPooledRoundTripAllocatesNothing for payloads built per message).
func TestRequestReplyAllocatesNothing(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(time.Millisecond))
	var result any = 42
	b.Register("svc", func(now time.Duration, msg *Message) { b.Reply(now, msg, result) })
	replies := 0
	onReply := func(time.Duration, *Message) { replies++ }
	cli, svc := b.Endpoint("cli"), b.Endpoint("svc")
	allocs := testing.AllocsPerRun(100, func() {
		b.RequestTo(cli, svc, "read", 0, nil, onReply)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Request→Reply→onReply allocates %v times, want 0", allocs)
	}
	if replies != 101 {
		t.Errorf("replies = %d, want 101", replies)
	}
}

// An injected duplicate delivers every copy with its fields intact, and the
// message is reused only after its last copy: a send made between the
// copies gets a different message.
func TestDuplicateDeliversEveryCopyBeforeReuse(t *testing.T) {
	for _, dup := range []int{1, 2} {
		e := sim.NewEngine()
		b := New(e, ConstantLatency(10*time.Millisecond))
		type seen struct {
			from, to, kind string
			payload        any
			msg            *Message
		}
		var got []seen
		var probes []*Message
		b.Register("dst", func(now time.Duration, msg *Message) {
			if msg.Kind == "probe" {
				probes = append(probes, msg)
				return
			}
			got = append(got, seen{msg.From, msg.To, msg.Kind, msg.Payload, msg})
			// Sends between copies must not take the duplicated message.
			b.Send("other", "dst", "probe", nil)
		})
		b.Perturb = func(_ time.Duration, msg *Message) (bool, time.Duration, int) {
			if msg.Kind == "cmd" {
				return false, 0, dup
			}
			return false, 0, 0
		}
		b.Send("src", "dst", "cmd", 7)
		e.RunAll()
		if len(got) != dup+1 {
			t.Fatalf("dup %d: %d deliveries, want %d", dup, len(got), dup+1)
		}
		for i, g := range got {
			if g.from != "src" || g.to != "dst" || g.kind != "cmd" || g.payload != 7 || g.msg != got[0].msg {
				t.Errorf("dup %d: copy %d = %+v, want the same intact message", dup, i, g)
			}
		}
		for _, p := range probes[:dup] {
			if p == got[0].msg {
				t.Errorf("dup %d: a probe reused the message before its last copy fired", dup)
			}
		}
		if b.Delivered() != uint64(2*(dup+1)) {
			t.Errorf("dup %d: delivered = %d, want %d", dup, b.Delivered(), 2*(dup+1))
		}
		// Every copy has fired: the next send reuses a recycled message.
		b.Send("src", "dst", "probe", nil)
		if n := len(b.free); n != dup+1 {
			t.Errorf("dup %d: free list holds %d messages, want %d", dup, n, dup+1)
		}
	}
}

// A message the Perturb hook drops is recycled at once, before any event
// runs; so is one delivered to an unregistered endpoint.
func TestDroppedMessagesRecycle(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(time.Millisecond))
	b.Perturb = func(_ time.Duration, msg *Message) (bool, time.Duration, int) {
		return msg.Kind == "lost", 0, 0
	}
	b.Send("a", "ghost", "lost", nil)
	if len(b.free) != 1 || e.Pending() != 0 || b.Dropped() != 1 {
		t.Fatalf("after a drop: free %d, pending %d, dropped %d; want 1, 0, 1", len(b.free), e.Pending(), b.Dropped())
	}
	dropped := b.free[0]
	b.Send("a", "ghost", "x", nil)
	if len(b.free) != 0 {
		t.Fatalf("send did not reuse the dropped message")
	}
	e.RunAll()
	if len(b.free) != 1 || b.free[0] != dropped || b.Dropped() != 2 || b.Delivered() != 0 {
		t.Errorf("after an unregistered delivery: free %d, dropped %d, delivered %d; want the message back, 2, 0",
			len(b.free), b.Dropped(), b.Delivered())
	}
	if m := b.free[0]; m.From != "" || m.Payload != nil || m.onReply != nil || m.dst != nil {
		t.Errorf("recycled message keeps fields: %+v", m)
	}
}

// Replies reach their own requester however the messages are reused: two
// clients interleave requests over recycled messages, and each reply
// carries its own request's answer back along the swapped route.
func TestRepliesReachRequesterAfterReuse(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(time.Millisecond))
	b.Register("svc", func(now time.Duration, msg *Message) {
		b.Reply(now, msg, msg.From+":"+msg.Payload.(string))
	})
	var routes []string
	b.Perturb = func(_ time.Duration, msg *Message) (bool, time.Duration, int) {
		routes = append(routes, msg.From+">"+msg.To+" "+msg.Kind)
		return false, 0, 0
	}
	got := map[string][]string{}
	for round := 0; round < 5; round++ {
		for _, cli := range []string{"a", "b"} {
			cli := cli
			b.Request(cli, "svc", "ask", 0, fmt.Sprint(round), func(_ time.Duration, r *Message) {
				got[cli] = append(got[cli], r.Payload.(string))
			})
		}
		e.RunAll()
	}
	for _, cli := range []string{"a", "b"} {
		want := fmt.Sprint([]string{cli + ":0", cli + ":1", cli + ":2", cli + ":3", cli + ":4"})
		if fmt.Sprint(got[cli]) != want {
			t.Errorf("client %s got %v, want %s", cli, got[cli], want)
		}
	}
	if len(routes) != 20 || routes[2] != "svc>a reply:ask" || routes[3] != "svc>b reply:ask" {
		t.Errorf("perturbed routes = %v", routes)
	}
	// Two requests in flight, plus the first reply, made while its request
	// was still being handled; the second reply reuses the first request.
	if len(b.free) != 3 {
		t.Errorf("free list holds %d messages, want the 3 a round needs", len(b.free))
	}
}

// released is a payload that counts its releases.
type released struct{ n int }

func (r *released) Release() { r.n++ }

// A payload with a release hook is released exactly once, when its message
// is recycled: after the last of its injected duplicates has fired, at once
// on a Perturb drop (a reply's included), and at once for an unregistered
// destination.
func TestPayloadReleasedOnceWhenRecycled(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(10*time.Millisecond))
	var atDelivery []int
	b.Register("dst", func(_ time.Duration, msg *Message) {
		atDelivery = append(atDelivery, msg.Payload.(*released).n)
	})
	b.Perturb = func(_ time.Duration, msg *Message) (bool, time.Duration, int) {
		switch msg.Kind {
		case "lost", "reply:ask":
			return true, 0, 0
		case "dup":
			return false, 0, 2
		case "late":
			return false, 50 * time.Millisecond, 1
		}
		return false, 0, 0
	}

	lost := &released{}
	b.Send("src", "dst", "lost", lost)
	if lost.n != 1 || e.Pending() != 0 {
		t.Fatalf("dropped payload: %d releases with %d events pending, want 1 at once", lost.n, e.Pending())
	}

	dup, late := &released{}, &released{}
	b.Send("src", "dst", "dup", dup)
	b.Send("src", "dst", "late", late)
	e.Run(20 * time.Millisecond)
	if dup.n != 1 || late.n != 0 {
		t.Fatalf("after the duplicates fired: dup %d, late %d releases; want 1, 0", dup.n, late.n)
	}
	e.RunAll()
	if late.n != 1 {
		t.Fatalf("delayed payload released %d times, want 1", late.n)
	}
	// No copy saw its payload released: release follows the last delivery.
	if fmt.Sprint(atDelivery) != "[0 0 0 0 0]" {
		t.Errorf("releases seen at each delivery = %v, want five 0s", atDelivery)
	}

	ghost := &released{}
	b.Send("src", "ghost", "x", ghost)
	if ghost.n != 0 {
		t.Fatal("payload released before its message arrived")
	}
	e.Step()
	if ghost.n != 1 {
		t.Errorf("payload to an unregistered endpoint released %d times, want 1", ghost.n)
	}

	// A dropped reply releases its payload inside Reply; the request's own
	// payload goes once the handler returns.
	req, rep := &released{}, &released{}
	b.Register("svc", func(now time.Duration, msg *Message) {
		b.Reply(now, msg, rep)
		if rep.n != 1 || req.n != 0 {
			t.Errorf("in the handler: reply %d, request %d releases; want 1, 0", rep.n, req.n)
		}
	})
	b.Request("src", "svc", "ask", 0, req, func(time.Duration, *Message) { t.Error("dropped reply delivered") })
	e.RunAll()
	if req.n != 1 || rep.n != 1 {
		t.Errorf("after the exchange: request %d, reply %d releases; want 1, 1", req.n, rep.n)
	}
}

// A pooled payload is reused only once its message is recycled, so every
// duplicate and every delayed copy shows its handler or reply callback the
// values its sender put in, though both sides keep taking boxes from the
// same pools in between; and each reply carries its request's tag.
func TestPooledPayloadIntactInEveryCopy(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(10*time.Millisecond))
	var cmds, notes, answers Pool[int]
	send := func(pool *Pool[int], kind string, v int) {
		x := pool.Get()
		x.V = v
		b.Send("src", "dst", kind, x)
	}
	var cmdSeen, noteSeen []int
	b.Register("dst", func(_ time.Duration, msg *Message) {
		v := msg.Payload.(*Box[int]).V
		if msg.Kind == "note" {
			noteSeen = append(noteSeen, v)
			return
		}
		cmdSeen = append(cmdSeen, v)
		send(&notes, "note", 100+v) // a send between the copies
	})
	b.Register("svc", func(now time.Duration, msg *Message) {
		x := answers.Get()
		x.V = 2 * int(msg.Tag)
		b.Reply(now, msg, x)
	})
	// Every command and reply is duplicated; odd ones are also delayed, so
	// copies of different messages interleave.
	b.Perturb = func(_ time.Duration, msg *Message) (bool, time.Duration, int) {
		var v int
		switch msg.Kind {
		case "cmd":
			v = msg.Payload.(*Box[int]).V
		case "reply:ask":
			v = int(msg.Tag)
		default:
			return false, 0, 0
		}
		return false, time.Duration(v%2) * 25 * time.Millisecond, 1
	}
	var replies []string
	onReply := func(_ time.Duration, r *Message) {
		replies = append(replies, fmt.Sprint(r.Tag, ":", r.Payload.(*Box[int]).V))
	}
	for i := 0; i < 6; i++ {
		send(&cmds, "cmd", i)
		b.Request("cli", "svc", "ask", uint64(i), nil, onReply)
		e.Run(e.Now() + 5*time.Millisecond)
	}
	e.RunAll()

	count := func(seen []int) map[int]int {
		m := map[int]int{}
		for _, v := range seen {
			m[v]++
		}
		return m
	}
	cmdCount, noteCount := count(cmdSeen), count(noteSeen)
	for i := 0; i < 6; i++ {
		if cmdCount[i] != 2 || noteCount[100+i] != 2 {
			t.Errorf("value %d: %d command and %d note deliveries, want 2 and 2 (commands %v, notes %v)",
				i, cmdCount[i], noteCount[100+i], cmdSeen, noteSeen)
		}
	}
	replyCount := map[string]int{}
	for _, r := range replies {
		replyCount[r]++
	}
	for i := 0; i < 6; i++ {
		if k := fmt.Sprint(i, ":", 2*i); replyCount[k] != 2 {
			t.Errorf("reply %s delivered %d times, want 2 (replies %v)", k, replyCount[k], replies)
		}
	}
	// Every box came back, and no more were made than were ever in flight.
	for name, p := range map[string]*Pool[int]{"cmds": &cmds, "notes": &notes, "answers": &answers} {
		if n := len(p.free); n == 0 || n > 6 {
			t.Errorf("%s pool holds %d boxes after the run, want between 1 and 6", name, n)
		}
	}
}

// A pooled request/reply round trip allocates nothing in steady state:
// both payloads come from pools, their slices keep their backing arrays,
// and the bus hands each box back when its message is recycled.
func TestPooledRoundTripAllocatesNothing(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(time.Millisecond))
	var asks, answers Pool[[]int]
	b.Register("svc", func(now time.Duration, msg *Message) {
		x := answers.Get()
		x.V = append(x.V[:0], msg.Payload.(*Box[[]int]).V...)
		b.Reply(now, msg, x)
	})
	sum := 0
	onReply := func(_ time.Duration, r *Message) {
		for _, v := range r.Payload.(*Box[[]int]).V {
			sum += v
		}
	}
	cli, svc := b.Endpoint("cli"), b.Endpoint("svc")
	allocs := testing.AllocsPerRun(100, func() {
		x := asks.Get()
		x.V = append(x.V[:0], 1, 2, 3)
		b.RequestTo(cli, svc, "read", 7, x, onReply)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("pooled Request→Reply→onReply allocates %v times, want 0", allocs)
	}
	if sum != 6*101 {
		t.Errorf("replies summed to %d, want %d", sum, 6*101)
	}
	if len(asks.free) != 1 || len(answers.free) != 1 {
		t.Errorf("pools hold %d and %d boxes, want one each", len(asks.free), len(answers.free))
	}
}
