// Package faults implements deterministic, seeded fault injection for the
// coordinated-charging control plane. The paper's coordination loop (§IV-B)
// runs over a real network of TOR-switch agents with ~20 s command-settling
// latency; this package models the ways that plane degrades in production —
// lost or stale telemetry reads, dropped, delayed, or duplicated override
// commands, crashed agents, and crash-restarting controllers — so the
// hardening in internal/dynamo and internal/rack can be exercised
// reproducibly.
//
// Every random decision is drawn from seeded sources, and per-component
// crash schedules use sources derived by hashing the component name, so two
// runs with the same seed inject exactly the same faults and adding a
// component does not perturb the schedules of the others.
package faults

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"

	"coordcharge/internal/obs"
	"coordcharge/internal/rng"
)

// Config parameterises an Injector. All probabilities are per-decision
// Bernoulli rates in [0, 1]; zero disables that fault class.
type Config struct {
	// Seed drives every random decision.
	Seed int64
	// TelemetryLoss is the probability that an agent read fails outright
	// (no reply; the controller must fall back to its last snapshot).
	TelemetryLoss float64
	// TelemetryStale is the probability that a read returns the agent's
	// previous snapshot — old data with its old timestamp — instead of a
	// fresh sample (a wedged poller or a delayed reply overtaken by time).
	TelemetryStale float64
	// CommandLoss is the probability that a command (charging-current
	// override, cap, uncap, heartbeat) is silently dropped.
	CommandLoss float64
	// CommandDup is the probability that a delivered command is applied
	// twice (an at-least-once transport retransmitting on a lost ack).
	CommandDup float64
	// CommandDelayProb is the probability that a delivered command is
	// delayed by up to CommandDelayMax beyond its normal latency.
	CommandDelayProb float64
	// CommandDelayMax bounds the injected command delay.
	CommandDelayMax time.Duration
	// AgentMTBF is the mean up-time between agent crashes (zero: agents
	// never crash). While crashed, an agent answers no reads and applies
	// no commands.
	AgentMTBF time.Duration
	// AgentMTTR is the mean agent repair time.
	AgentMTTR time.Duration
	// ControllerMTBF is the mean up-time between controller crashes
	// (zero: controllers never crash). A crashing controller loses its
	// in-memory state and must reconstruct it from agent reads.
	ControllerMTBF time.Duration
	// ControllerMTTR is the mean controller restart time.
	ControllerMTTR time.Duration
}

// Default returns the non-zero rates the chaos suite runs with: each fault
// class is exercised, crashes are short enough that a restarted controller
// resumes protection well inside the breaker trip-sustain window, and the
// overall loop still converges.
func Default() Config {
	return Config{
		TelemetryLoss:    0.05,
		TelemetryStale:   0.05,
		CommandLoss:      0.05,
		CommandDup:       0.02,
		CommandDelayProb: 0.05,
		CommandDelayMax:  5 * time.Second,
		AgentMTBF:        2 * time.Hour,
		AgentMTTR:        20 * time.Second,
		ControllerMTBF:   time.Hour,
		ControllerMTTR:   8 * time.Second,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"TelemetryLoss", c.TelemetryLoss},
		{"TelemetryStale", c.TelemetryStale},
		{"CommandLoss", c.CommandLoss},
		{"CommandDup", c.CommandDup},
		{"CommandDelayProb", c.CommandDelayProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s %v outside [0, 1]", p.name, p.v)
		}
	}
	if c.CommandDelayProb > 0 && c.CommandDelayMax <= 0 {
		return fmt.Errorf("faults: CommandDelayProb %v needs a positive CommandDelayMax", c.CommandDelayProb)
	}
	if c.CommandDelayMax < 0 {
		return fmt.Errorf("faults: negative CommandDelayMax %v", c.CommandDelayMax)
	}
	if (c.AgentMTBF > 0) != (c.AgentMTTR > 0) {
		return fmt.Errorf("faults: AgentMTBF and AgentMTTR must both be set or both be zero")
	}
	if (c.ControllerMTBF > 0) != (c.ControllerMTTR > 0) {
		return fmt.Errorf("faults: ControllerMTBF and ControllerMTTR must both be set or both be zero")
	}
	if c.AgentMTBF < 0 || c.AgentMTTR < 0 || c.ControllerMTBF < 0 || c.ControllerMTTR < 0 {
		return fmt.Errorf("faults: negative MTBF/MTTR")
	}
	return nil
}

// Enabled reports whether any fault class is active.
func (c Config) Enabled() bool {
	return c.TelemetryLoss > 0 || c.TelemetryStale > 0 ||
		c.CommandLoss > 0 || c.CommandDup > 0 || c.CommandDelayProb > 0 ||
		c.AgentMTBF > 0 || c.ControllerMTBF > 0
}

// ParseSpec parses a -faults command-line value. The empty string and "off"
// return a zero (disabled) config; "default" and "on" return Default();
// otherwise the value is a comma-separated k=v list overriding Default(),
// e.g. "cmdloss=1,telloss=0.2,seed=7". Keys: seed, telloss, telstale,
// cmdloss, cmddup, cmddelay (probability), cmddelaymax (duration), agentmtbf,
// agentmttr, ctlmtbf, ctlmttr (durations).
func ParseSpec(spec string) (Config, error) {
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "", "off", "none":
		return Config{}, nil
	case "on", "default":
		return Default(), nil
	}
	cfg := Default()
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Config{}, fmt.Errorf("faults: bad spec element %q (want k=v)", kv)
		}
		k = strings.ToLower(strings.TrimSpace(k))
		v = strings.TrimSpace(v)
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "telloss":
			cfg.TelemetryLoss, err = strconv.ParseFloat(v, 64)
		case "telstale":
			cfg.TelemetryStale, err = strconv.ParseFloat(v, 64)
		case "cmdloss":
			cfg.CommandLoss, err = strconv.ParseFloat(v, 64)
		case "cmddup":
			cfg.CommandDup, err = strconv.ParseFloat(v, 64)
		case "cmddelay":
			cfg.CommandDelayProb, err = strconv.ParseFloat(v, 64)
		case "cmddelaymax":
			cfg.CommandDelayMax, err = time.ParseDuration(v)
		case "agentmtbf":
			cfg.AgentMTBF, err = time.ParseDuration(v)
		case "agentmttr":
			cfg.AgentMTTR, err = time.ParseDuration(v)
		case "ctlmtbf":
			cfg.ControllerMTBF, err = time.ParseDuration(v)
		case "ctlmttr":
			cfg.ControllerMTTR, err = time.ParseDuration(v)
		default:
			return Config{}, fmt.Errorf("faults: unknown spec key %q", k)
		}
		if err != nil {
			return Config{}, fmt.Errorf("faults: bad value for %s: %v", k, err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Counters reports what the injector has done so far.
type Counters struct {
	ReadsDropped       uint64
	ReadsStaled        uint64
	CommandsDropped    uint64
	CommandsDuplicated uint64
	CommandsDelayed    uint64
	// Outages counts crash intervals generated per component class.
	AgentOutages      uint64
	ControllerOutages uint64
}

// schedule is the lazily extended alternating up/down timeline of one
// component. Intervals are generated from the component's own source, so the
// schedule depends only on (seed, component name).
type schedule struct {
	src   *rng.Source
	agent bool // selects which outage counter to bump
	// boundary i is the time at which the state flips; the component is up
	// on [boundaries[2k], boundaries[2k+1]) and down on
	// [boundaries[2k+1], boundaries[2k+2]).
	boundaries []time.Duration
	mtbf, mttr time.Duration
}

func (s *schedule) extendTo(now time.Duration, counters *Counters) {
	last := time.Duration(0)
	if n := len(s.boundaries); n > 0 {
		last = s.boundaries[n-1]
	}
	for last <= now {
		if len(s.boundaries)%2 == 0 {
			up := s.src.ExpDuration(s.mtbf)
			if up < time.Second {
				up = time.Second
			}
			last += up
		} else {
			down := s.src.ExpDuration(s.mttr)
			if down < time.Second {
				down = time.Second
			}
			last += down
			if s.agent {
				counters.AgentOutages++
			} else {
				counters.ControllerOutages++
			}
		}
		s.boundaries = append(s.boundaries, last)
	}
}

func (s *schedule) up(now time.Duration) bool {
	// Find the first boundary strictly after now; even index = up interval.
	i := sort.Search(len(s.boundaries), func(i int) bool { return s.boundaries[i] > now })
	return i%2 == 0
}

// Injector makes the individual fault decisions. It is not safe for
// concurrent use: the simulation kernel is single-threaded by design.
type Injector struct {
	cfg      Config
	draws    *rng.Source // per-decision Bernoulli draws, consumed in call order
	comps    map[string]*schedule
	counters Counters

	// Mirrored observability counters (nil when no sink is attached).
	cReadsDropped, cReadsStaled                 *obs.Counter
	cCmdsDropped, cCmdsDuplicated, cCmdsDelayed *obs.Counter
	cAgentOutages, cControllerOutages           *obs.Counter
}

// New builds an injector. It panics on an invalid config: injector
// construction is experiment setup, where failing loudly is right.
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Injector{
		cfg:   cfg,
		draws: rng.New(cfg.Seed ^ 0x5eedfa17),
		comps: make(map[string]*schedule),
	}
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// Counters returns the fault totals injected so far.
func (in *Injector) Counters() Counters { return in.counters }

// SetObs mirrors the injector's fault counters into an observability
// registry (faults.* counters) so a live /metrics scrape shows what the
// injector has done. A nil sink detaches the mirroring.
func (in *Injector) SetObs(s *obs.Sink) {
	in.cReadsDropped = s.Counter("faults.reads_dropped")
	in.cReadsStaled = s.Counter("faults.reads_staled")
	in.cCmdsDropped = s.Counter("faults.commands_dropped")
	in.cCmdsDuplicated = s.Counter("faults.commands_duplicated")
	in.cCmdsDelayed = s.Counter("faults.commands_delayed")
	in.cAgentOutages = s.Counter("faults.agent_outages")
	in.cControllerOutages = s.Counter("faults.controller_outages")
}

// DropRead decides whether a telemetry read fails.
func (in *Injector) DropRead() bool {
	if in.cfg.TelemetryLoss <= 0 {
		return false
	}
	if in.draws.Float64() < in.cfg.TelemetryLoss {
		in.counters.ReadsDropped++
		in.cReadsDropped.Inc()
		return true
	}
	return false
}

// StaleRead decides whether a read returns the previous snapshot.
func (in *Injector) StaleRead() bool {
	if in.cfg.TelemetryStale <= 0 {
		return false
	}
	if in.draws.Float64() < in.cfg.TelemetryStale {
		in.counters.ReadsStaled++
		in.cReadsStaled.Inc()
		return true
	}
	return false
}

// DropCommand decides whether a command is silently lost.
func (in *Injector) DropCommand() bool {
	if in.cfg.CommandLoss <= 0 {
		return false
	}
	if in.draws.Float64() < in.cfg.CommandLoss {
		in.counters.CommandsDropped++
		in.cCmdsDropped.Inc()
		return true
	}
	return false
}

// DupCommand decides whether a delivered command is applied twice.
func (in *Injector) DupCommand() bool {
	if in.cfg.CommandDup <= 0 {
		return false
	}
	if in.draws.Float64() < in.cfg.CommandDup {
		in.counters.CommandsDuplicated++
		in.cCmdsDuplicated.Inc()
		return true
	}
	return false
}

// CommandDelay returns the extra delivery delay to add to a command (zero
// most of the time).
func (in *Injector) CommandDelay() time.Duration {
	if in.cfg.CommandDelayProb <= 0 {
		return 0
	}
	if in.draws.Float64() >= in.cfg.CommandDelayProb {
		return 0
	}
	in.counters.CommandsDelayed++
	in.cCmdsDelayed.Inc()
	return time.Duration(in.draws.Uniform(0, float64(in.cfg.CommandDelayMax)))
}

// Up reports whether the named component is alive at virtual time now.
// Components named "agent/..." follow the agent crash parameters; components
// named "leaf/...", "ctl/...", or "controller/..." follow the controller
// parameters. Unknown prefixes never crash. The per-component schedule is
// deterministic in (seed, name) and monotonic queries are O(1) amortised.
func (in *Injector) Up(component string, now time.Duration) bool {
	mtbf, mttr, agent := in.paramsFor(component)
	if mtbf <= 0 {
		return true
	}
	s := in.comps[component]
	if s == nil {
		h := fnv.New64a()
		h.Write([]byte(component))
		s = &schedule{
			src:   rng.New(in.cfg.Seed ^ int64(h.Sum64())),
			agent: agent,
			mtbf:  mtbf,
			mttr:  mttr,
		}
		in.comps[component] = s
	}
	before := in.counters
	s.extendTo(now, &in.counters)
	if d := in.counters.AgentOutages - before.AgentOutages; d > 0 {
		in.cAgentOutages.Add(int64(d))
	}
	if d := in.counters.ControllerOutages - before.ControllerOutages; d > 0 {
		in.cControllerOutages.Add(int64(d))
	}
	return s.up(now)
}

func (in *Injector) paramsFor(component string) (mtbf, mttr time.Duration, agent bool) {
	prefix, _, _ := strings.Cut(component, "/")
	switch prefix {
	case "agent":
		return in.cfg.AgentMTBF, in.cfg.AgentMTTR, true
	case "leaf", "ctl", "controller":
		return in.cfg.ControllerMTBF, in.cfg.ControllerMTTR, false
	default:
		return 0, 0, false
	}
}
