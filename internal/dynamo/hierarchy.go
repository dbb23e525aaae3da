package dynamo

import (
	"fmt"
	"sort"
	"time"

	"coordcharge/internal/core"
	"coordcharge/internal/faults"
	"coordcharge/internal/grid"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/sim"
	"coordcharge/internal/storm"
)

// Hierarchy mirrors the power tree with one controller per breaker, as the
// production deployment does: leaf controllers on every RPP and upper-level
// controllers protecting SBs and the MSB (paper §IV-B). Controllers tick
// bottom-up so that upper levels observe the corrective actions of the
// levels below them within the same cycle.
type Hierarchy struct {
	controllers []*Controller
	byNode      map[*power.Node]*Controller
	agents      map[*rack.Rack]*Agent
	guards      []*storm.Guard
}

// HierarchyOptions carries the control plane's wiring and degraded-mode
// knobs for BuildHierarchyOpts.
type HierarchyOptions struct {
	// Engine schedules command settling and retry timeouts. May be nil when
	// Latency is zero (and retries then run on the tick cadence).
	Engine *sim.Engine
	// Latency is the agents' command-settling delay (Fig 11).
	Latency time.Duration
	// Injector, when non-nil, attaches fault injection to every agent and
	// controller in the hierarchy.
	Injector *faults.Injector
	// StaleAfter is the controllers' telemetry freshness bound; zero means
	// telemetry never goes stale.
	StaleAfter time.Duration
	// Retry is the controllers' override retransmission policy; the zero
	// value disables retries.
	Retry RetryPolicy
	// WatchdogTTL, when positive, arms every rack's local fail-safe
	// watchdog with this TTL (safe current from cfg.SafeCurrent()) and has
	// controllers emit per-tick heartbeats to feed it.
	WatchdogTTL time.Duration
	// Storm arms recharge-storm admission control at the planning (root)
	// controller: correlated charging starts are paused and re-admitted in
	// priority-aware waves under measured headroom.
	Storm *storm.Config
	// Guard arms a last-line breaker guard on every node of the hierarchy,
	// shedding charging current (demote → pause, reverse priority) against
	// sustained overdraw before the breaker's TripRule window closes, and
	// capping servers only as a final resort. Guards run even while their
	// controller is crashed. Paused charges are handed to the storm
	// admission queue when Storm is also armed.
	Guard *storm.GuardConfig
	// Obs attaches an observability sink to every controller, guard, and
	// rack fail-safe watchdog in the hierarchy. Nil disables instrumentation.
	Obs *obs.Sink
	// Grid attaches the grid signal plane to the planning (root) controller
	// — planning and admission budgets derive from the effective feed limit
	// (min of breaker limit and interconnection cap) — and clamps the root
	// guard's charge-shedding level to the same cap.
	Grid *grid.Policy
}

// BuildHierarchy walks the power tree rooted at root and creates a
// controller for every breaker. Every load in the tree must be a *rack.Rack.
// engine may be nil when latency is zero.
func BuildHierarchy(root *power.Node, mode Mode, cfg core.Config, engine *sim.Engine, latency time.Duration) (*Hierarchy, error) {
	return BuildHierarchyOpts(root, mode, cfg, HierarchyOptions{Engine: engine, Latency: latency})
}

// BuildHierarchyOpts is BuildHierarchy with fault-injection and
// degraded-mode options.
func BuildHierarchyOpts(root *power.Node, mode Mode, cfg core.Config, opts HierarchyOptions) (*Hierarchy, error) {
	h := &Hierarchy{
		byNode: make(map[*power.Node]*Controller),
		agents: make(map[*rack.Rack]*Agent),
	}
	var nodes []*power.Node
	root.Walk(func(n *power.Node) { nodes = append(nodes, n) })
	// Bottom-up: deepest level first, stable within a level.
	sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].Level() > nodes[j].Level() })
	for _, n := range nodes {
		var agents []*Agent
		for _, l := range n.RackLoads() {
			r, ok := l.(*rack.Rack)
			if !ok {
				return nil, fmt.Errorf("dynamo: load %s under %s is %T, want *rack.Rack", l.Name(), n.Name(), l)
			}
			a := h.agents[r]
			if a == nil {
				a = NewAgent(r, opts.Engine, opts.Latency)
				if opts.Injector != nil {
					a.SetFaults(opts.Injector)
				}
				if opts.WatchdogTTL > 0 {
					r.SetWatchdog(opts.WatchdogTTL, cfg.SafeCurrent())
				}
				if opts.Obs != nil {
					r.SetObs(opts.Obs)
				}
				h.agents[r] = a
			}
			agents = append(agents, a)
		}
		// The root controller computes initial plans: it protects the
		// breaker where the binding power constraint lives in the paper's
		// experiments; lower levels monitor and protect.
		ctl := NewControllerOpts(n, agents, mode, cfg, n == root, ControllerOptions{
			Engine:     opts.Engine,
			Injector:   opts.Injector,
			StaleAfter: opts.StaleAfter,
			Retry:      opts.Retry,
			Heartbeat:  opts.WatchdogTTL > 0,
			Storm:      opts.Storm,
			Obs:        opts.Obs,
			Grid:       opts.Grid,
		})
		h.controllers = append(h.controllers, ctl)
		h.byNode[n] = ctl
	}
	if opts.Guard != nil {
		h.guards = NewGuards(root, nodes, cfg, *opts.Guard, h.byNode[root].StormQueue(), opts.Grid, opts.Obs)
	}
	return h, nil
}

// NewGuards builds a breaker guard for each of nodes, in the order given
// (the order the plane ticks them), each shedding among the racks its node
// feeds. Paused charges go to queue when it is non-nil. Only root's guard
// sheds against pol's interconnection cap, because the cap constrains the
// site feed. Both control planes build their guards here.
func NewGuards(root *power.Node, nodes []*power.Node, cfg core.Config, gcfg storm.GuardConfig, queue *storm.Queue, pol *grid.Policy, sink *obs.Sink) []*storm.Guard {
	var guards []*storm.Guard
	for _, n := range nodes {
		var racks []*rack.Rack
		for _, l := range n.RackLoads() {
			racks = append(racks, l.(*rack.Rack))
		}
		g := storm.NewGuard(n, racks, cfg, gcfg)
		if queue != nil {
			g.AttachQueue(queue)
		}
		if pol != nil && n == root {
			g.SetCapacity(pol.CapAt)
		}
		if sink != nil {
			g.SetObs(sink)
		}
		guards = append(guards, g)
	}
	return guards
}

// Tick runs one monitoring cycle on every controller, bottom-up, then the
// breaker guards. Guards tick last so they measure the draw the controllers'
// actions left behind, and they run even when their controller is crashed —
// that independence is what makes them a last line.
func (h *Hierarchy) Tick(now time.Duration) {
	for _, c := range h.controllers {
		c.Tick(now)
	}
	for _, g := range h.guards {
		g.Tick(now)
	}
}

// Controller returns the controller protecting node, or nil.
func (h *Hierarchy) Controller(node *power.Node) *Controller { return h.byNode[node] }

// Controllers returns all controllers in tick (bottom-up) order.
func (h *Hierarchy) Controllers() []*Controller { return h.controllers }

// Agent returns the agent for a rack, or nil.
func (h *Hierarchy) Agent(r *rack.Rack) *Agent { return h.agents[r] }

// Guards returns the hierarchy's breaker guards (empty unless armed).
func (h *Hierarchy) Guards() []*storm.Guard { return h.guards }

// StormQueue returns the planning controller's admission queue, nil unless
// storm admission is armed.
func (h *Hierarchy) StormQueue() *storm.Queue {
	for _, c := range h.controllers {
		if q := c.StormQueue(); q != nil {
			return q
		}
	}
	return nil
}

// TotalGuardMetrics aggregates guard counters across the hierarchy; maxima
// take the hierarchy-wide maximum.
func (h *Hierarchy) TotalGuardMetrics() storm.GuardMetrics {
	return storm.TotalGuardMetrics(h.guards)
}

// TotalMetrics aggregates metrics across controllers: counters sum, capping
// maxima take the hierarchy-wide maximum.
func (h *Hierarchy) TotalMetrics() Metrics {
	var m Metrics
	for _, c := range h.controllers {
		m.Merge(c.Metrics())
	}
	return m
}
