package svc

import "time"

// Clock is the service plane's wall-clock dependency. The daemon runs on
// real time — request deadlines, queue aging, breaker cooldowns, and the
// resident-run watchdog are all wall-clock concepts — but every read goes
// through this struct so tests drive the supervision machinery with a fake
// clock and stay deterministic.
type Clock struct {
	// Now returns the current wall time.
	Now func() time.Time
	// Sleep blocks for d of wall time.
	Sleep func(d time.Duration)
}

// WallClock returns the real wall clock.
func WallClock() Clock { return Clock{Now: wallNow, Sleep: wallSleep} }

// withDefaults resolves nil fields to the real clock.
func (c Clock) withDefaults() Clock {
	if c.Now == nil {
		c.Now = wallNow
	}
	if c.Sleep == nil {
		c.Sleep = wallSleep
	}
	return c
}

// wallNow and wallSleep are internal/svc's only wall-clock taps, allowlisted
// by name in coordvet's determinism analyzer: the service plane is a
// deliberate wall-clock boundary, while the simulations it hosts stay
// entirely on virtual tick time. Any other direct time.Now/time.Sleep in
// this package is a lint finding.
func wallNow() time.Time { return time.Now() }

func wallSleep(d time.Duration) { time.Sleep(d) }
