// Package coordcharge is a from-scratch reproduction of "Coordinated
// Priority-aware Charging of Distributed Batteries in Oversubscribed Data
// Centers" (Malla et al., MICRO 2020): the variable battery charger, the
// Dynamo-style coordinated control plane, the priority-aware charging
// algorithm, and every substrate the paper's evaluation depends on — battery
// electrochemistry, the data-center power hierarchy, a discrete-event
// simulator, synthetic production traces, and the reliability Monte Carlo.
//
// This root package is the public facade: it re-exports the library's main
// types and constructors so downstream users can depend on a single import.
// The implementation lives in internal/ packages, one per subsystem (see
// DESIGN.md for the inventory and the per-experiment index).
//
// # Quick start
//
//	surface := coordcharge.Fig5Surface()
//	r := coordcharge.NewRack("rack0", coordcharge.P1, coordcharge.VariableCharger{}, surface)
//	r.SetDemand(9 * 1000)       // 9 kW of servers
//	r.LoseInput(0)              // open transition begins
//	r.Step(45e9, 45e9)          // 45 s on battery
//	r.RestoreInput(45e9)        // power back: recharge starts per Eq 1
//
// See examples/ for runnable programs and cmd/ for the experiment binaries
// that regenerate every table and figure in the paper.
package coordcharge

import (
	"time"

	"coordcharge/internal/battery"
	"coordcharge/internal/bus"
	"coordcharge/internal/charger"
	"coordcharge/internal/core"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/reliability"
	"coordcharge/internal/scenario"
	"coordcharge/internal/sim"
	"coordcharge/internal/trace"
	"coordcharge/internal/units"
)

// Physical quantity types (SI base units).
type (
	// Power is electric power in watts.
	Power = units.Power
	// Energy is energy in joules.
	Energy = units.Energy
	// Current is electric current in amperes.
	Current = units.Current
	// Voltage is electric potential in volts.
	Voltage = units.Voltage
	// Fraction is a dimensionless ratio (SOC, DOD, efficiency).
	Fraction = units.Fraction
)

// Unit constants.
const (
	Watt     = units.Watt
	Kilowatt = units.Kilowatt
	Megawatt = units.Megawatt
	Ampere   = units.Ampere
	Volt     = units.Volt
)

// Battery modelling.
type (
	// BBU is the electrochemical battery-backup-unit model (CC-CV).
	BBU = battery.BBU
	// BatteryParams are the BBU's electrochemical constants.
	BatteryParams = battery.Params
	// ChargeTimeSurface is the empirical Fig 5 charge-time table T(I, DOD).
	ChargeTimeSurface = battery.Surface
	// RackPack is the rack-level battery pack used by the coordinated
	// simulator (the paper's §V-B1 abstraction).
	RackPack = battery.RackPack
	// BatteryState is the BBU lifecycle state (Fig 8(a)).
	BatteryState = battery.State
)

// Battery states.
const (
	FullyCharged    = battery.FullyCharged
	Charging        = battery.Charging
	Discharging     = battery.Discharging
	FullyDischarged = battery.FullyDischarged
)

// DefaultBatteryParams returns the calibrated production BBU parameters.
func DefaultBatteryParams() BatteryParams { return battery.DefaultParams() }

// NewBBU returns a fully charged BBU.
func NewBBU(p BatteryParams) *BBU { return battery.New(p) }

// Fig5Surface returns the empirical charge-time surface reconstructed from
// the paper's Fig 5 lab data.
func Fig5Surface() *ChargeTimeSurface { return battery.Fig5Surface() }

// DODFromOutage estimates a rack battery's depth of discharge from the IT
// load and outage duration, as the leaf controller does.
func DODFromOutage(itLoad Power, dur time.Duration) Fraction {
	return battery.DODFromOutage(itLoad, dur)
}

// ParsePower parses "2.3MW" / "190kW" / "380W" style strings.
func ParsePower(s string) (Power, error) { return units.ParsePower(s) }

// ParseCurrent parses "2.5A" style strings.
func ParseCurrent(s string) (Current, error) { return units.ParseCurrent(s) }

// ParseFraction parses "0.7" or "70%" style ratios.
func ParseFraction(s string) (Fraction, error) { return units.ParseFraction(s) }

// Charger policies.
type (
	// ChargerPolicy selects the local initial charging current.
	ChargerPolicy = charger.Policy
	// OriginalCharger is the fixed-5A first-generation charger.
	OriginalCharger = charger.Original
	// VariableCharger is the paper's new DOD-proportional charger (Eq 1).
	VariableCharger = charger.Variable
)

// Eq1 computes the variable charger's current for a depth of discharge.
func Eq1(dod Fraction) Current { return charger.Eq1(dod) }

// Racks and priorities.
type (
	// Rack is one server rack: IT load, priority, battery pack, charger.
	Rack = rack.Rack
	// Priority is the rack's service priority class.
	Priority = rack.Priority
	// DetailedRack models the Open Rack V2 power internals explicitly: two
	// zones of three 2+1-redundant PSU+BBU pairs.
	DetailedRack = rack.DetailedRack
	// PSU is one power supply unit and its paired BBU.
	PSU = rack.PSU
	// Zone is one of a rack's two power zones.
	Zone = rack.Zone
)

// Rack priorities.
const (
	P1 = rack.P1
	P2 = rack.P2
	P3 = rack.P3
)

// NewRack constructs a rack with input power up and a full battery.
func NewRack(name string, p Priority, policy ChargerPolicy, surface *ChargeTimeSurface) *Rack {
	return rack.New(name, p, policy, surface)
}

// NewDetailedRack constructs a hardware-explicit rack (two zones × three
// PSU+BBU pairs, all healthy and fully charged).
func NewDetailedRack(name string, policy ChargerPolicy, params BatteryParams) *DetailedRack {
	return rack.NewDetailed(name, policy, params)
}

// Power hierarchy.
type (
	// Node is one circuit breaker in the power-delivery tree.
	Node = power.Node
	// Level is a node's position in the hierarchy.
	Level = power.Level
	// TopologySpec describes an MSB-rooted topology to build.
	TopologySpec = power.Spec
	// Load is anything that draws power from a breaker.
	Load = power.Load
)

// Hierarchy levels and breaker ratings (Open Compute defaults).
const (
	LevelMSB        = power.LevelMSB
	LevelSB         = power.LevelSB
	LevelRPP        = power.LevelRPP
	DefaultMSBLimit = power.DefaultMSBLimit
	DefaultSBLimit  = power.DefaultSBLimit
	DefaultRPPLimit = power.DefaultRPPLimit
)

// NewNode constructs a single circuit breaker (use BuildTopology for whole
// trees).
func NewNode(name string, level Level, limit Power) *Node {
	return power.NewNode(name, level, limit)
}

// BuildTopology assembles an MSB → SB → RPP tree over the loads.
func BuildTopology(spec TopologySpec, loads []Load) (*Node, error) {
	return power.Build(spec, loads)
}

// The priority-aware charging core (the paper's primary contribution).
type (
	// PlannerConfig carries the planner's model and policy knobs.
	PlannerConfig = core.Config
	// RackView is the controller's view of a rack at charge start.
	RackView = core.RackInfo
	// Assignment is the planner's decision for one rack.
	Assignment = core.Assignment
	// ActiveCharge is a rack mid-charge, as seen during overload response.
	ActiveCharge = core.ActiveCharge
)

// DefaultPlannerConfig returns the production planner configuration
// (Fig 5 surface, Table II deadlines, 1 A override resolution).
func DefaultPlannerConfig() PlannerConfig { return core.DefaultConfig() }

// DefaultDeadlines returns Table II's charging-time SLAs per priority.
func DefaultDeadlines() map[Priority]time.Duration { return core.DefaultDeadlines() }

// PlanPriorityAware runs Algorithm 1 (highest-priority-lowest-discharge-
// first) over the racks given the breaker's available power.
func PlanPriorityAware(available Power, racks []RackView, cfg PlannerConfig) []Assignment {
	return core.PlanPriorityAware(available, racks, cfg)
}

// PlanGlobal runs the evaluation's uniform-rate baseline.
func PlanGlobal(available Power, racks []RackView, cfg PlannerConfig) []Assignment {
	return core.PlanGlobal(available, racks, cfg)
}

// ThrottleToMinimum selects racks to throttle to the 1 A minimum in the
// paper's lowest-priority-highest-discharge-first order.
func ThrottleToMinimum(excess Power, active []ActiveCharge, cfg PlannerConfig) []int {
	return core.ThrottleToMinimum(excess, active, cfg)
}

// The Dynamo-style control plane.
type (
	// Agent is the per-rack TOR-switch request handler.
	Agent = dynamo.Agent
	// Controller protects one circuit breaker.
	Controller = dynamo.Controller
	// ControlHierarchy mirrors the power tree with one controller per
	// breaker.
	ControlHierarchy = dynamo.Hierarchy
	// Mode selects the coordination policy.
	Mode = dynamo.Mode
)

// Coordination modes.
const (
	ModeNone          = dynamo.ModeNone
	ModeGlobal        = dynamo.ModeGlobal
	ModePriorityAware = dynamo.ModePriorityAware
	ModePostpone      = dynamo.ModePostpone
)

// Engine is the discrete-event simulation kernel.
type Engine = sim.Engine

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine { return sim.NewEngine() }

// The distributed control plane: agents and controllers as separate
// components exchanging messages over a simulated network.
type (
	// Bus is the deterministic in-simulation message fabric.
	Bus = bus.Bus
	// BusMessage is one datagram between endpoints. The bus reuses a
	// message once its last delivery has fired, so a handler must not keep
	// a *BusMessage after it returns.
	BusMessage = bus.Message
	// AsyncAgent is the message-driven per-rack request handler.
	AsyncAgent = dynamo.AsyncAgent
	// AsyncLeaf is the message-driven leaf (RPP) controller.
	AsyncLeaf = dynamo.AsyncLeaf
	// AsyncUpper is the message-driven upper-level (SB/MSB) controller that
	// aggregates exclusively through leaf controllers.
	AsyncUpper = dynamo.AsyncUpper
	// RackSnapshot is an agent's rack-state report.
	RackSnapshot = dynamo.Snapshot
)

// NewBus builds a message fabric over the engine; latency may be nil for
// instant (but still engine-ordered) delivery.
func NewBus(engine *Engine, latency bus.LatencyModel) *Bus { return bus.New(engine, latency) }

// ConstantLatency returns a fixed one-way delivery delay model.
func ConstantLatency(d time.Duration) bus.LatencyModel { return bus.ConstantLatency(d) }

// NewAsyncAgent registers a rack's agent on the bus; settle is the charger
// command-settling time (~20 s in the Fig 11 prototype).
func NewAsyncAgent(b *Bus, engine *Engine, r *Rack, settle time.Duration) *AsyncAgent {
	return dynamo.NewAsyncAgent(b, engine, r, settle)
}

// NewAsyncLeaf registers a leaf controller polling the given racks' agents.
func NewAsyncLeaf(b *Bus, engine *Engine, node *Node, racks []*Rack, mode Mode, cfg PlannerConfig, plans bool, poll time.Duration) *AsyncLeaf {
	return dynamo.NewAsyncLeaf(b, engine, node, racks, mode, cfg, plans, poll)
}

// NewAsyncUpper registers an upper-level controller polling leaf controllers.
func NewAsyncUpper(b *Bus, engine *Engine, node *Node, leaves []*AsyncLeaf, mode Mode, cfg PlannerConfig, poll time.Duration) *AsyncUpper {
	return dynamo.NewAsyncUpper(b, engine, node, leaves, mode, cfg, poll)
}

// BuildControlHierarchy creates one controller per breaker under root.
// engine may be nil when latency is zero.
func BuildControlHierarchy(root *Node, mode Mode, cfg PlannerConfig, engine *Engine, latency time.Duration) (*ControlHierarchy, error) {
	return dynamo.BuildHierarchy(root, mode, cfg, engine, latency)
}

// Traces.
type (
	// TraceSource is a replayable per-rack power trace.
	TraceSource = trace.Source
	// TraceSpec parameterises the synthetic generator.
	TraceSpec = trace.Spec
	// TraceGenerator produces synthetic diurnal rack power analytically.
	TraceGenerator = trace.Generator
)

// NewTraceGenerator builds a deterministic synthetic trace.
func NewTraceGenerator(spec TraceSpec) (*TraceGenerator, error) {
	return trace.NewGenerator(spec)
}

// TraceFirstPeak scans a trace for its aggregate maximum within the horizon.
func TraceFirstPeak(s TraceSource, horizon, resolution time.Duration) time.Duration {
	return trace.FirstPeak(s, horizon, resolution)
}

// Reliability analysis.
type (
	// ReliabilitySimulator runs the Table I Monte Carlo.
	ReliabilitySimulator = reliability.Simulator
	// ComponentFailure is one Table I row.
	ComponentFailure = reliability.Component
)

// TableI returns the paper's component failure/repair data.
func TableI() []ComponentFailure { return reliability.TableI() }

// NewReliabilitySimulator builds a Monte Carlo simulator over the components.
func NewReliabilitySimulator(components []ComponentFailure, seed int64) (*ReliabilitySimulator, error) {
	return reliability.NewSimulator(components, seed)
}

// Experiment harness.
type (
	// ExperimentSpec parameterises one MSB-level coordinated run.
	ExperimentSpec = scenario.CoordSpec
	// ExperimentResult is its outcome.
	ExperimentResult = scenario.CoordResult
)

// RunExperiment executes one MSB-level coordinated-charging experiment.
func RunExperiment(spec ExperimentSpec) (*ExperimentResult, error) {
	return scenario.RunCoordinated(spec)
}

// RunCaseII replays the paper's Case II building-wide open-transition event.
func RunCaseII(numMSB int, seed int64) (*scenario.CaseIIResult, error) {
	return scenario.RunCaseII(numMSB, seed)
}

// Endurance simulation: realized AOR through the real control plane.
type (
	// EnduranceSpec parameterises a multi-year endurance run.
	EnduranceSpec = scenario.EnduranceSpec
	// EnduranceResult carries the realized per-priority AOR.
	EnduranceResult = scenario.EnduranceResult
)

// RunEndurance replays Table I failure events at their hierarchy levels,
// each input loss a coordinated run on a fresh MSB fleet, and measures each
// priority's realized availability of redundancy.
func RunEndurance(spec EnduranceSpec) (*EnduranceResult, error) {
	return scenario.RunEndurance(spec)
}
