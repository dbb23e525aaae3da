package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleAt(3*time.Second, "c", func(time.Duration) { order = append(order, 3) })
	e.ScheduleAt(1*time.Second, "a", func(time.Duration) { order = append(order, 1) })
	e.ScheduleAt(2*time.Second, "b", func(time.Duration) { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v, want [1 2 3]", order)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("final time = %v, want 3s", e.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleAt(time.Second, "tie", func(time.Duration) { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events ran out of FIFO order: %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	for _, post := range []bool{false, true} {
		e := NewEngine()
		e.ScheduleAt(time.Minute, "x", func(time.Duration) {})
		e.Step()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scheduling in the past did not panic (post=%t)", post)
				}
			}()
			if post {
				e.Post(time.Second, "past", Handler(func(time.Duration) {}))
			} else {
				e.ScheduleAt(time.Second, "past", func(time.Duration) {})
			}
		}()
	}
}

func TestScheduleAfter(t *testing.T) {
	e := NewEngine()
	var ran time.Duration
	e.ScheduleAt(10*time.Second, "outer", func(now time.Duration) {
		e.ScheduleAfter(5*time.Second, "inner", func(now time.Duration) { ran = now })
	})
	e.RunAll()
	if ran != 15*time.Second {
		t.Errorf("nested ScheduleAfter ran at %v, want 15s", ran)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.ScheduleAt(time.Second, "x", func(time.Duration) { ran = true })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel is a no-op
	e.RunAll()
	if ran {
		t.Error("cancelled event ran")
	}
	if e.Executed() != 0 {
		t.Errorf("executed = %d, want 0", e.Executed())
	}
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []string
	a := e.ScheduleAt(1*time.Second, "a", func(time.Duration) { got = append(got, "a") })
	e.ScheduleAt(2*time.Second, "b", func(time.Duration) { got = append(got, "b") })
	e.ScheduleAt(3*time.Second, "c", func(time.Duration) { got = append(got, "c") })
	e.Cancel(a)
	e.RunAll()
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Errorf("got %v, want [b c]", got)
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	var ran []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		d := d * time.Second
		e.ScheduleAt(d, "x", func(now time.Duration) { ran = append(ran, now) })
	}
	end := e.Run(2 * time.Second)
	if len(ran) != 2 {
		t.Errorf("ran %d events before horizon, want 2", len(ran))
	}
	if end != 2*time.Second {
		t.Errorf("Run returned %v, want 2s", end)
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	// Resume: the queue drains and the clock advances to the horizon.
	end = e.Run(10 * time.Second)
	if len(ran) != 4 {
		t.Errorf("ran %d events total, want 4", len(ran))
	}
	if end != 10*time.Second {
		t.Errorf("second Run returned %v, want 10s (clock advances to horizon)", end)
	}
}

func TestHalt(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = e.Every(time.Second, "tick", func(time.Duration) {
		n++
		if n == 5 {
			e.Halt()
			tk.Stop()
		}
	})
	e.Run(time.Hour)
	if n != 5 {
		t.Errorf("ticks = %d, want 5 (halted)", n)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []time.Duration
	tk := e.Every(3*time.Second, "t", func(now time.Duration) { ticks = append(ticks, now) })
	e.Run(10 * time.Second)
	tk.Stop()
	want := []time.Duration{3 * time.Second, 6 * time.Second, 9 * time.Second}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopInsideHandler(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = e.Every(time.Second, "t", func(time.Duration) {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	e.Run(time.Minute)
	if n != 2 {
		t.Errorf("ticks after in-handler Stop = %d, want 2", n)
	}
}

func TestZeroPeriodTickerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("Every(0) did not panic")
		}
	}()
	e.Every(0, "bad", func(time.Duration) {})
}

func TestExecutedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.ScheduleAfter(time.Duration(i+1)*time.Second, "x", func(time.Duration) {})
	}
	e.RunAll()
	if e.Executed() != 7 {
		t.Errorf("Executed = %d, want 7", e.Executed())
	}
}

func TestClockMonotoneProperty(t *testing.T) {
	// Whatever permutation of delays we schedule, execution times are
	// monotone nondecreasing.
	prop := func(delays []uint16) bool {
		e := NewEngine()
		var times []time.Duration
		for _, d := range delays {
			e.ScheduleAt(time.Duration(d)*time.Millisecond, "p", func(now time.Duration) {
				times = append(times, now)
			})
		}
		e.RunAll()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCancelledAccessor(t *testing.T) {
	e := NewEngine()
	ev := e.ScheduleAt(time.Second, "x", func(time.Duration) {})
	if ev.Cancelled() {
		t.Error("fresh event reports cancelled")
	}
	e.Cancel(ev)
	if !ev.Cancelled() {
		t.Error("cancelled event reports live")
	}
	// Cancelling an already-run event still marks it.
	ran := e.ScheduleAt(2*time.Second, "y", func(time.Duration) {})
	e.RunAll()
	if ran.Cancelled() {
		t.Error("executed event reports cancelled")
	}
	e.Cancel(ran)
	if !ran.Cancelled() {
		t.Error("post-run cancel did not mark the event")
	}
}

func TestNextAt(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Error("empty engine reports a pending deadline")
	}
	e.ScheduleAt(5*time.Second, "late", func(time.Duration) {})
	early := e.ScheduleAt(2*time.Second, "early", func(time.Duration) {})
	if at, ok := e.NextAt(); !ok || at != 2*time.Second {
		t.Errorf("NextAt = %v, %t; want 2s, true", at, ok)
	}
	e.Cancel(early)
	if at, ok := e.NextAt(); !ok || at != 5*time.Second {
		t.Errorf("NextAt after cancel = %v, %t; want 5s, true", at, ok)
	}
	e.RunAll()
	if _, ok := e.NextAt(); ok {
		t.Error("drained engine reports a pending deadline")
	}
}

func TestSnapshotOrderAndIsolation(t *testing.T) {
	e := NewEngine()
	e.ScheduleAt(3*time.Second, "c", func(time.Duration) {})
	e.ScheduleAt(1*time.Second, "a", func(time.Duration) {})
	e.ScheduleAt(1*time.Second, "b", func(time.Duration) {}) // same instant: seq breaks the tie
	views := e.Snapshot()
	want := []EventView{
		{At: 1 * time.Second, Label: "a"},
		{At: 1 * time.Second, Label: "b"},
		{At: 3 * time.Second, Label: "c"},
	}
	if len(views) != len(want) {
		t.Fatalf("snapshot has %d views, want %d", len(views), len(want))
	}
	for i := range want {
		if views[i] != want[i] {
			t.Errorf("views[%d] = %+v, want %+v", i, views[i], want[i])
		}
	}
	// The snapshot must not perturb execution order.
	var order []string
	e2 := NewEngine()
	e2.ScheduleAt(2*time.Second, "y", func(time.Duration) { order = append(order, "y") })
	e2.ScheduleAt(1*time.Second, "x", func(time.Duration) { order = append(order, "x") })
	_ = e2.Snapshot()
	e2.RunAll()
	if len(order) != 2 || order[0] != "x" || order[1] != "y" {
		t.Errorf("execution order after Snapshot = %v, want [x y]", order)
	}
}

func TestPostOrdersWithScheduledEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	note := func(s string) Handler { return func(time.Duration) { order = append(order, s) } }
	e.ScheduleAt(time.Second, "a", note("a"))
	e.Post(time.Second, "b", note("b"))
	e.ScheduleAt(time.Second, "c", note("c"))
	e.PostAfter(500*time.Millisecond, "early", note("early"))
	if e.Seq() != 4 {
		t.Errorf("seq = %d, want 4: posts take schedule slots like ScheduleAt", e.Seq())
	}
	views := e.Snapshot()
	if len(views) != 4 || views[0].Label != "early" || views[2].Label != "b" {
		t.Errorf("snapshot = %+v, want posts in (at, seq) order", views)
	}
	e.RunAll()
	if got := fmt.Sprint(order); got != "[early a b c]" {
		t.Errorf("order = %s, want [early a b c]", got)
	}
	if e.Executed() != 4 {
		t.Errorf("executed = %d, want 4", e.Executed())
	}
}

// A fired post is recycled before its target runs, so a target that posts
// again reuses its own event, and recycling never disturbs pending posts.
func TestPostRecyclesFiredEvents(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	var again Handler
	again = func(now time.Duration) {
		fired = append(fired, now)
		if len(fired) < 5 {
			e.PostAfter(time.Second, "again", again)
		}
	}
	e.Post(0, "again", again)
	e.Post(10*time.Second, "last", Handler(func(now time.Duration) { fired = append(fired, now) }))
	e.RunAll()
	want := []time.Duration{0, time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second, 10 * time.Second}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Errorf("fired at %v, want %v", fired, want)
	}
	if len(e.free) != 2 {
		t.Errorf("free list holds %d events, want the 2 ever allocated", len(e.free))
	}
}

// Steady-state Post→Step allocates nothing: the fired event is reused.
func TestPostStepAllocatesNothing(t *testing.T) {
	e := NewEngine()
	fire := Handler(func(time.Duration) {})
	allocs := testing.AllocsPerRun(100, func() {
		e.PostAfter(time.Second, "p", fire)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Post→Step allocates %v times, want 0", allocs)
	}
}
