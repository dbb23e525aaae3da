package bus

import (
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
	b.Request("client", "server", "double", 21, func(now time.Duration, payload any) {
		replyAt = now
		result = payload
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
	b.Request("cli", "svc", "ping", nil, func(time.Duration, any) { replies++ })
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
	b.Request("cli", "svc", "ping", nil, func(time.Duration, any) { replies++ })
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
	b.Request("cli", "svc", "ping", nil, func(time.Duration, any) {})
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

// A one-way send costs one allocation, the message: its delivery event is
// recycled and its label interned.
func TestSendAllocatesOnlyTheMessage(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(time.Millisecond))
	b.Register("dst", func(time.Duration, *Message) {})
	allocs := testing.AllocsPerRun(100, func() {
		b.Send("src", "dst", "ping", nil)
		e.Step()
	})
	if allocs != 1 {
		t.Errorf("Send→delivery allocates %v times, want 1", allocs)
	}
}

// A round trip costs two allocations, the request and the reply, with no
// reply closure or wrapper message (payloads are boxed by the caller).
func TestRequestReplyAllocatesTwoMessages(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(time.Millisecond))
	var result any = 42
	b.Register("svc", func(now time.Duration, msg *Message) { b.Reply(now, msg, result) })
	replies := 0
	onReply := func(time.Duration, any) { replies++ }
	allocs := testing.AllocsPerRun(100, func() {
		b.Request("cli", "svc", "read", nil, onReply)
		e.Step()
		e.Step()
	})
	if allocs != 2 {
		t.Errorf("Request→Reply→onReply allocates %v times, want 2", allocs)
	}
	if replies != 101 {
		t.Errorf("replies = %d, want 101", replies)
	}
}
