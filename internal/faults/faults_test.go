package faults

import (
	"sort"
	"testing"
	"time"

	"coordcharge/internal/rng"
)

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config invalid: %v", err)
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{TelemetryLoss: -0.1},
		{CommandLoss: 1.5},
		{CommandDelayProb: 0.5},                // no delay max
		{AgentMTBF: time.Hour},                 // no MTTR
		{ControllerMTTR: time.Second},          // no MTBF
		{CommandDelayMax: -time.Second},        // negative
		{AgentMTBF: -time.Hour, AgentMTTR: -1}, // negative
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config enabled")
	}
	if !Default().Enabled() {
		t.Error("default config disabled")
	}
	if !(Config{CommandLoss: 1}).Enabled() {
		t.Error("command-loss config disabled")
	}
}

func TestParseSpec(t *testing.T) {
	for _, s := range []string{"", "off", "none"} {
		cfg, err := ParseSpec(s)
		if err != nil || cfg.Enabled() {
			t.Errorf("ParseSpec(%q) = %+v, %v; want disabled", s, cfg, err)
		}
	}
	for _, s := range []string{"on", "default", "Default"} {
		cfg, err := ParseSpec(s)
		if err != nil || cfg != Default() {
			t.Errorf("ParseSpec(%q) = %+v, %v; want Default()", s, cfg, err)
		}
	}
	cfg, err := ParseSpec("cmdloss=1, telloss=0.25, seed=7, ctlmttr=30s")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CommandLoss != 1 || cfg.TelemetryLoss != 0.25 || cfg.Seed != 7 || cfg.ControllerMTTR != 30*time.Second {
		t.Errorf("parsed = %+v", cfg)
	}
	// Unmentioned keys keep their defaults.
	if cfg.CommandDup != Default().CommandDup {
		t.Errorf("CommandDup = %v, want default %v", cfg.CommandDup, Default().CommandDup)
	}
	for _, s := range []string{"bogus", "k=v", "cmdloss=abc", "cmdloss=2"} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

func TestBernoulliRatesAndDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, TelemetryLoss: 0.3, CommandLoss: 0.1, CommandDup: 0.05,
		CommandDelayProb: 0.2, CommandDelayMax: 10 * time.Second}
	run := func() Counters {
		in := New(cfg)
		for i := 0; i < 10000; i++ {
			in.DropRead()
			in.DropCommand()
			in.DupCommand()
			in.CommandDelay()
		}
		return in.Counters()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different faults: %+v vs %+v", a, b)
	}
	approx := func(got uint64, want float64) bool {
		return float64(got) > want*0.8 && float64(got) < want*1.2
	}
	if !approx(a.ReadsDropped, 3000) || !approx(a.CommandsDropped, 1000) ||
		!approx(a.CommandsDuplicated, 500) || !approx(a.CommandsDelayed, 2000) {
		t.Errorf("counters off their rates: %+v", a)
	}
	// A different seed gives a different realisation.
	cfg.Seed = 43
	if c := run(); c == a {
		t.Error("different seed, identical faults")
	}
}

func TestZeroRatesDrawNothing(t *testing.T) {
	in := New(Config{})
	for i := 0; i < 100; i++ {
		if in.DropRead() || in.StaleRead() || in.DropCommand() || in.DupCommand() {
			t.Fatal("zero config injected a fault")
		}
		if in.CommandDelay() != 0 {
			t.Fatal("zero config delayed a command")
		}
		if !in.Component("agent/x").Up(time.Duration(i) * time.Hour) {
			t.Fatal("zero config crashed a component")
		}
	}
	if in.Counters() != (Counters{}) {
		t.Errorf("counters moved: %+v", in.Counters())
	}
}

func TestCrashSchedules(t *testing.T) {
	cfg := Config{Seed: 1,
		AgentMTBF: 10 * time.Minute, AgentMTTR: 30 * time.Second,
		ControllerMTBF: 5 * time.Minute, ControllerMTTR: 10 * time.Second}
	in := New(cfg)

	// Schedules are deterministic per (seed, name) and independent of query
	// interleaving or other components.
	in2 := New(cfg)
	in2.Component("agent/other").Up(time.Hour) // extra component must not perturb agent/a
	var downA, downCtl int
	const steps = 24 * 3600 // one simulated day at 1 s
	for i := 0; i <= steps; i++ {
		now := time.Duration(i) * time.Second
		upA := in.Component("agent/a").Up(now)
		if upA != in2.Component("agent/a").Up(now) {
			t.Fatalf("schedule for agent/a diverged at %v", now)
		}
		if !upA {
			downA++
		}
		if !in.Component("controller/msb").Up(now) {
			downCtl++
		}
	}
	if downA == 0 || downCtl == 0 {
		t.Fatalf("no crashes over a day: agent down %d s, controller down %d s", downA, downCtl)
	}
	// Expected downtime fraction is roughly MTTR/(MTBF+MTTR); allow 3x slack
	// for a single-day realisation.
	fracA := float64(downA) / steps
	if fracA > 3*(30.0/630) {
		t.Errorf("agent down fraction %v implausibly high", fracA)
	}
	c := in.Counters()
	if c.AgentOutages == 0 || c.ControllerOutages == 0 {
		t.Errorf("outage counters: %+v", c)
	}
	// Components are up at t=0 (schedules start with an up interval).
	if !New(cfg).Component("agent/z").Up(0) {
		t.Error("component down at t=0")
	}
}

func TestUnknownComponentNeverCrashes(t *testing.T) {
	in := New(Default())
	for i := 0; i < 1000; i++ {
		if !in.Component("misc/thing").Up(time.Duration(i) * time.Minute) {
			t.Fatal("unknown component crashed")
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted invalid config")
		}
	}()
	New(Config{CommandLoss: 2})
}

// A handle resolved once answers exactly as a fresh injector that resolves
// the name at every query, with equal counters, whether queries move
// forward or jump back; its cursor agrees with a search over the boundaries
// generated so far.
func TestComponentMatchesNameKeyedUp(t *testing.T) {
	names := []string{"agent/rack001", "agent/rack002", "leaf/rpp0", "ctl/msb", "controller/sb1", "misc/thing"}
	for seed := int64(1); seed <= 6; seed++ {
		cfg := Default()
		cfg.Seed = seed
		cfg.AgentMTBF, cfg.ControllerMTBF = 10*time.Minute, 5*time.Minute
		handles, byName := New(cfg), New(cfg)
		comps := make([]*Component, len(names))
		for i, n := range names {
			comps[i] = handles.Component(n)
		}
		if comps[0] != handles.Component(names[0]) || comps[len(names)-1] != nil {
			t.Fatal("Component must share one schedule per name and be nil for a component that never crashes")
		}
		draw := rng.New(seed)
		now := time.Duration(0)
		for q := 0; q < 4000; q++ {
			if q%40 == 39 {
				now = time.Duration(draw.Float64() * float64(now)) // jump back
			} else {
				now += time.Duration(draw.Float64() * float64(45*time.Second))
			}
			for i, n := range names {
				up := comps[i].Up(now)
				if want := byName.Component(n).Up(now); up != want {
					t.Fatalf("seed %d query %d: %s Up(%v) = %t, name-keyed %t", seed, q, n, now, up, want)
				}
				if c := comps[i]; c != nil {
					j := sort.Search(len(c.boundaries), func(j int) bool { return c.boundaries[j] > now })
					if up != (j%2 == 0) {
						t.Fatalf("seed %d query %d: %s cursor says %t, search %t", seed, q, n, up, j%2 == 0)
					}
				}
			}
			if handles.Counters() != byName.Counters() {
				t.Fatalf("seed %d query %d: counters %+v vs name-keyed %+v", seed, q, handles.Counters(), byName.Counters())
			}
		}
		if c := handles.Counters(); c.AgentOutages == 0 || c.ControllerOutages == 0 {
			t.Errorf("seed %d: no outages generated: %+v", seed, c)
		}
	}
}
