package dynamo

import (
	"fmt"
	"sort"
	"time"

	"coordcharge/internal/core"
	"coordcharge/internal/rack"
	"coordcharge/internal/storm"
	"coordcharge/internal/units"
)

// This file is the synchronous control plane's checkpoint surface. Only the
// engine-free configuration is directly serializable: with an engine,
// pending-override deadlines and latency-deferred command applications live
// as event closures inside the engine's queue, which cannot be written to
// disk — engine-backed runs restore by deterministic replay instead (see
// internal/scenario). ExportState therefore refuses engine-backed
// controllers rather than silently dropping their in-flight commands.

// AgentState is one agent's serializable state: its cached snapshot and the
// rack version it was taken at (the fault path serves this cache on stale
// reads, so it is state, not a derived cache).
type AgentState struct {
	Rack     string   `json:"rack"`
	Last     Snapshot `json:"last"`
	LastVer  uint64   `json:"last_ver"`
	HaveLast bool     `json:"have_last"`
}

// ExportState captures the agent's snapshot cache.
func (a *Agent) ExportState() AgentState {
	return AgentState{Rack: a.rack.Name(), Last: a.last, LastVer: a.lastVer, HaveLast: a.haveLast}
}

// RestoreState overwrites the agent's snapshot cache from a checkpoint.
func (a *Agent) RestoreState(st AgentState) error {
	if st.Rack != a.rack.Name() {
		return fmt.Errorf("dynamo: agent state for rack %q restored into %q", st.Rack, a.rack.Name())
	}
	a.last = st.Last
	a.lastVer = st.LastVer
	a.haveLast = st.HaveLast
	return nil
}

// PendingState is one unconfirmed override: the agent index it targets, the
// wanted current, and the tick-driven retry deadline.
type PendingState struct {
	Idx      int           `json:"idx"`
	Want     units.Current `json:"want"`
	Attempts int           `json:"attempts"`
	IssuedAt time.Duration `json:"issued_at"`
	Due      time.Duration `json:"due"`
}

// ControllerState is one synchronous controller's serializable state.
// Construction-time configuration (mode, core config, retry policy,
// staleness bound, observability wiring) is rebuilt from the spec.
type ControllerState struct {
	Node        string          `json:"node"`
	Metrics     Metrics         `json:"metrics"`
	Down        bool            `json:"down"`
	LastTick    time.Duration   `json:"last_tick"`
	WasCharging []bool          `json:"was_charging"`
	Postponed   []core.RackInfo `json:"postponed,omitempty"`
	Pending     []PendingState  `json:"pending,omitempty"`
	Tel         []Snapshot      `json:"tel"`
	TelOK       []bool          `json:"tel_ok"`
	TelVer      []uint64        `json:"tel_ver"`
	// LastFresh/TelSummaried carry the telemetry-summary gate. Dropping them
	// would make a resumed run journal a summary the uninterrupted run
	// suppressed, breaking flight-digest parity across a kill.
	LastFresh    int               `json:"last_fresh"`
	TelSummaried bool              `json:"tel_summaried"`
	Storm        *storm.QueueState `json:"storm,omitempty"`
}

// ExportState captures the controller's mutable state. Postponed charges are
// sorted by agent ID and pending overrides by agent index, so the encoding
// is deterministic. It fails on an engine-backed controller: its in-flight
// retry deadlines are engine events and cannot be serialized.
func (c *Controller) ExportState() (ControllerState, error) {
	if c.engine != nil {
		return ControllerState{}, fmt.Errorf("dynamo: controller %s is engine-backed; checkpoint it by replay, not state export", c.comp)
	}
	st := ControllerState{
		Node:         c.node.Name(),
		Metrics:      c.metrics,
		Down:         c.down,
		LastTick:     c.lastTick,
		WasCharging:  append([]bool(nil), c.wasCharging...),
		Tel:          append([]Snapshot(nil), c.tel...),
		TelOK:        append([]bool(nil), c.telOK...),
		TelVer:       append([]uint64(nil), c.telVer...),
		LastFresh:    c.lastFresh,
		TelSummaried: c.telSummaried,
	}
	for _, ri := range c.postponed {
		st.Postponed = append(st.Postponed, ri)
	}
	sort.Slice(st.Postponed, func(i, j int) bool { return st.Postponed[i].ID < st.Postponed[j].ID })
	for idx, p := range c.tracker.pending {
		st.Pending = append(st.Pending, PendingState{
			Idx: idx, Want: p.want, Attempts: p.attempts, IssuedAt: p.issuedAt, Due: p.due,
		})
	}
	sort.Slice(st.Pending, func(i, j int) bool { return st.Pending[i].Idx < st.Pending[j].Idx })
	if c.stormQ != nil {
		qs := c.stormQ.ExportState()
		st.Storm = &qs
	}
	return st, nil
}

// RestoreState overwrites the controller's mutable state from a checkpoint.
// The derived caches rebuild from what is restored: telOKCount from telOK,
// the name index and view buffer are construction-time.
func (c *Controller) RestoreState(st ControllerState) error {
	if st.Node != c.node.Name() {
		return fmt.Errorf("dynamo: controller state for node %q restored into %q", st.Node, c.node.Name())
	}
	if c.engine != nil {
		return fmt.Errorf("dynamo: controller %s is engine-backed; restore it by replay, not state import", c.comp)
	}
	if len(st.WasCharging) != len(c.agents) || len(st.Tel) != len(c.agents) ||
		len(st.TelOK) != len(c.agents) || len(st.TelVer) != len(c.agents) {
		return fmt.Errorf("dynamo: controller state for %s sized for %d agents, have %d",
			st.Node, len(st.WasCharging), len(c.agents))
	}
	c.metrics = st.Metrics
	c.down = st.Down
	c.lastTick = st.LastTick
	copy(c.wasCharging, st.WasCharging)
	copy(c.tel, st.Tel)
	copy(c.telOK, st.TelOK)
	copy(c.telVer, st.TelVer)
	c.lastFresh = st.LastFresh
	c.telSummaried = st.TelSummaried
	c.telOKCount = 0
	for _, ok := range c.telOK {
		if ok {
			c.telOKCount++
		}
	}
	c.postponed = make(map[*rack.Rack]core.RackInfo, len(st.Postponed))
	for _, ri := range st.Postponed {
		if ri.ID < 0 || ri.ID >= len(c.agents) {
			return fmt.Errorf("dynamo: controller state for %s has postponed rack ID %d out of range", st.Node, ri.ID)
		}
		c.postponed[c.agents[ri.ID].Rack()] = ri
	}
	clear(c.tracker.pending)
	for _, p := range st.Pending {
		if p.Idx < 0 || p.Idx >= len(c.agents) {
			return fmt.Errorf("dynamo: controller state for %s has pending override index %d out of range", st.Node, p.Idx)
		}
		c.tracker.pending[p.Idx] = &pendingOverride{
			want: p.Want, attempts: p.Attempts, issuedAt: p.IssuedAt, due: p.Due,
		}
	}
	if st.Storm != nil {
		if c.stormQ == nil {
			return fmt.Errorf("dynamo: controller state for %s carries a storm queue but admission is not armed", st.Node)
		}
		c.stormQ.RestoreState(*st.Storm)
	}
	return nil
}

// HierarchyState is the whole synchronous control plane: every controller in
// tick order, every agent sorted by rack name, every guard in construction
// order.
type HierarchyState struct {
	Controllers []ControllerState  `json:"controllers"`
	Agents      []AgentState       `json:"agents"`
	Guards      []storm.GuardState `json:"guards,omitempty"`
}

// ExportState captures the hierarchy's full control-plane state. It fails on
// an engine-backed hierarchy (see ControllerState).
func (h *Hierarchy) ExportState() (HierarchyState, error) {
	var st HierarchyState
	for _, c := range h.controllers {
		cs, err := c.ExportState()
		if err != nil {
			return HierarchyState{}, err
		}
		st.Controllers = append(st.Controllers, cs)
	}
	for _, a := range h.agents {
		st.Agents = append(st.Agents, a.ExportState())
	}
	sort.Slice(st.Agents, func(i, j int) bool { return st.Agents[i].Rack < st.Agents[j].Rack })
	for _, g := range h.guards {
		st.Guards = append(st.Guards, g.ExportState())
	}
	return st, nil
}

// RestoreState overwrites the hierarchy's control-plane state from a
// checkpoint. Controllers match by tick order, agents by rack name, guards
// by construction order.
func (h *Hierarchy) RestoreState(st HierarchyState) error {
	if len(st.Controllers) != len(h.controllers) {
		return fmt.Errorf("dynamo: hierarchy state has %d controllers, have %d", len(st.Controllers), len(h.controllers))
	}
	if len(st.Guards) != len(h.guards) {
		return fmt.Errorf("dynamo: hierarchy state has %d guards, have %d", len(st.Guards), len(h.guards))
	}
	byName := make(map[string]*Agent, len(h.agents))
	for _, a := range h.agents {
		byName[a.Rack().Name()] = a
	}
	if len(st.Agents) != len(byName) {
		return fmt.Errorf("dynamo: hierarchy state has %d agents, have %d", len(st.Agents), len(byName))
	}
	for _, as := range st.Agents {
		a, ok := byName[as.Rack]
		if !ok {
			return fmt.Errorf("dynamo: hierarchy state names unknown agent rack %q", as.Rack)
		}
		if err := a.RestoreState(as); err != nil {
			return err
		}
	}
	for i, cs := range st.Controllers {
		if err := h.controllers[i].RestoreState(cs); err != nil {
			return err
		}
	}
	for i, gs := range st.Guards {
		if err := h.guards[i].RestoreState(gs); err != nil {
			return err
		}
	}
	return nil
}
