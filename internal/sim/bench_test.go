package sim

import (
	"testing"
	"time"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.ScheduleAfter(time.Duration(1+i%1000)*time.Millisecond, "b", func(time.Duration) {})
		if e.Pending() >= 1024 {
			e.Run(e.Now() + time.Second)
		}
	}
	e.RunAll()
}

func BenchmarkTickerHour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		tk := e.Every(3*time.Second, "t", func(time.Duration) {})
		e.Run(time.Hour)
		tk.Stop()
	}
}

// BenchmarkEngineStep is the per-event cost of the kernel: one Post into a
// queue holding a message plane's worth of pending events, then one Step.
func BenchmarkEngineStep(b *testing.B) {
	e := NewEngine()
	fire := Handler(func(time.Duration) {})
	for i := 0; i < 128; i++ {
		e.PostAfter(time.Duration(i)*time.Millisecond, "pending", fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PostAfter(time.Duration(1+i%1000)*time.Millisecond, "step", fire)
		e.Step()
	}
}
