package bus

import (
	"testing"
	"time"

	"coordcharge/internal/sim"
)

// BenchmarkBusRequestReply is one telemetry round trip: request delivery,
// the responder's reply, and the reply's delivery to the requester.
func BenchmarkBusRequestReply(b *testing.B) {
	e := sim.NewEngine()
	fabric := New(e, ConstantLatency(10*time.Millisecond))
	var result any = 42
	fabric.Register("agent", func(now time.Duration, msg *Message) { fabric.Reply(now, msg, result) })
	onReply := func(time.Duration, *Message) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fabric.Request("leaf", "agent", "read", 0, nil, onReply)
		e.Step()
		e.Step()
	}
}
