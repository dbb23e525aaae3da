package scenario

import (
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"coordcharge/internal/charger"
	"coordcharge/internal/ckpt"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/reliability"
	"coordcharge/internal/report"
	"coordcharge/internal/trace"
	"coordcharge/internal/units"
)

// EnduranceSpec parameterises a multi-year endurance run: Table I failure
// events replayed at their true hierarchy levels, each input loss a
// coordinated run (RunCoordinated's run loop and control plane) on a fresh
// MSB fleet, measuring each rack's *realized* availability of redundancy.
// This quantifies the trade-off the paper states qualitatively ("our
// solution would slow down the battery charging process and compromise the
// redundancy"): coordination that throttles charging under a tight power
// limit shows up here as AOR loss, concentrated on the priorities the
// algorithm deprioritises.
type EnduranceSpec struct {
	// Years is the simulated horizon (default 50; capped at 250 to keep the
	// virtual clock within time.Duration).
	Years float64
	// Seed drives both the failure stream and the trace.
	Seed int64
	// NumP1, NumP2, NumP3 give the rack distribution (default 10/10/10; the
	// trace envelope scales with the population as in CoordSpec).
	NumP1, NumP2, NumP3 int
	// MSBLimit is the breaker limit (default: the population-scaled 2.5 MW
	// equivalent).
	MSBLimit units.Power
	// Mode is the coordination policy.
	Mode dynamo.Mode
	// LocalPolicy is the rack-local charger (default variable).
	LocalPolicy charger.Policy
	// Step is the fine-simulation tick (default 3 s).
	Step time.Duration
	// Checkpoint, when non-empty, writes a crash-safe checkpoint to this
	// path at failure-event boundaries, at least CheckpointEvery of virtual
	// time apart. Event processing is the endurance run's natural atom —
	// between events every battery is full and no fleet is live — so
	// checkpoints land there and hold only the run's progress.
	Checkpoint string
	// CheckpointEvery is the minimum virtual time between checkpoint writes
	// (default 30 days when Checkpoint is set).
	CheckpointEvery time.Duration
	// Resume, when non-empty, restores the run from this checkpoint instead
	// of starting from year zero. The spec must describe the same
	// experiment (verified by fingerprint).
	Resume string
	// Interrupt, when non-nil, is polled at every event boundary; returning
	// true stops the run gracefully — a final checkpoint is written (when
	// Checkpoint is set) and the partial result returns with Interrupted.
	Interrupt func() bool
	// HardStop, when non-nil, is polled at every event boundary with the
	// next event's start time; returning true aborts the run with ErrAborted
	// and no final checkpoint, simulating a SIGKILL for the chaos harness.
	HardStop func(now time.Duration) bool
}

func (s *EnduranceSpec) fillDefaults() error {
	if s.Years == 0 {
		s.Years = 50
	}
	if s.Years < 0 || s.Years > 250 {
		return fmt.Errorf("scenario: endurance years %v out of (0, 250]", s.Years)
	}
	if s.NumP1 == 0 && s.NumP2 == 0 && s.NumP3 == 0 {
		s.NumP1, s.NumP2, s.NumP3 = 10, 10, 10
	}
	if s.NumP1 < 0 || s.NumP2 < 0 || s.NumP3 < 0 {
		return fmt.Errorf("scenario: negative rack count")
	}
	n := s.NumP1 + s.NumP2 + s.NumP3
	if s.MSBLimit == 0 {
		s.MSBLimit = units.Power(2.5e6 * float64(n) / 316)
	}
	if s.MSBLimit < 0 {
		return fmt.Errorf("scenario: negative MSB limit")
	}
	if s.LocalPolicy == nil {
		s.LocalPolicy = charger.Variable{}
	}
	if s.Step == 0 {
		s.Step = 3 * time.Second
	}
	if s.Step <= 0 {
		return fmt.Errorf("scenario: non-positive step")
	}
	if s.CheckpointEvery < 0 {
		return fmt.Errorf("scenario: negative CheckpointEvery")
	}
	if s.CheckpointEvery > 0 && s.Checkpoint == "" {
		return fmt.Errorf("scenario: CheckpointEvery set without Checkpoint")
	}
	if s.Checkpoint != "" && s.CheckpointEvery == 0 {
		s.CheckpointEvery = 30 * 24 * time.Hour
	}
	return nil
}

// EnduranceResult is the outcome of an endurance run.
type EnduranceResult struct {
	Spec EnduranceSpec
	// Events and Outages count the replayed failure events.
	Events, Outages int
	// AOR is the realized availability of redundancy per priority: the
	// fraction of rack-time spent with input power up and batteries full.
	AOR map[rack.Priority]units.Fraction
	// LossHoursPerYear is the per-priority mean loss of redundancy.
	LossHoursPerYear map[rack.Priority]float64
	// Metrics aggregates the control plane's protective actions over the
	// whole horizon.
	Metrics dynamo.Metrics
	// UnservedEnergy is IT energy the batteries could not carry across all
	// replayed outages (packs that ran to full depth of discharge).
	UnservedEnergy units.Energy
	// LoadDropEvents counts rack load drops from battery exhaustion.
	LoadDropEvents int
	// Tripped lists breakers that tripped in any replayed transient (always
	// empty when the control plane does its job).
	Tripped []string
	// Interrupted marks a run stopped early by Spec.Interrupt; the result
	// fields are partial and the checkpoint holds the state to resume from.
	Interrupted bool
}

// enduranceKind tags endurance checkpoints (see coordKind).
const enduranceKind = "endurance-progress"

// enduranceCheckpoint is an endurance run's progress: everything it carries
// from one failure event to the next. Each transient runs on a fresh fleet,
// so between events no fleet is live, and this — written at event
// boundaries — is the whole checkpoint. The failure stream is regenerated
// from the seed.
type enduranceCheckpoint struct {
	Kind        string `json:"kind"`
	Fingerprint uint64 `json:"fingerprint"`
	Seed        int64  `json:"seed"`

	// EventIdx is the next event to replay, and so the count of events
	// replayed.
	EventIdx int `json:"event_idx"`
	SBIdx    int `json:"sb_idx"`
	RPPIdx   int `json:"rpp_idx"`
	// Loss is each rack's redundancy loss so far, index-aligned with the
	// fleet.
	Loss []time.Duration `json:"loss"`

	Outages        int            `json:"outages"`
	Metrics        dynamo.Metrics `json:"metrics"`
	UnservedEnergy units.Energy   `json:"unserved_energy"`
	LoadDropEvents int            `json:"load_drop_events"`
	Tripped        []string       `json:"tripped,omitempty"`
}

// enduranceFingerprint hashes the spec fields that shape the simulation plus
// the trace, so a checkpoint refuses to resume a different experiment.
func enduranceFingerprint(spec *EnduranceSpec, gen trace.Source) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "years=%g|seed=%d|p1=%d|p2=%d|p3=%d|limit=%g|mode=%d|policy=%s|step=%d",
		spec.Years, spec.Seed, spec.NumP1, spec.NumP2, spec.NumP3,
		float64(spec.MSBLimit), spec.Mode, spec.LocalPolicy.Name(), spec.Step)
	fmt.Fprintf(h, "|trace=%016x", trace.Fingerprint(gen))
	return h.Sum64()
}

func hours(h float64) time.Duration { return time.Duration(h * float64(time.Hour)) }

// transientSpec is the coordinated run every transient of the endurance run
// is: this fleet and control plane on the default (event) kernel, starting
// one tick before the loss of input and ending by coordRun's own rule within
// 6 hours of the restore.
func (s *EnduranceSpec) transientSpec() CoordSpec {
	return CoordSpec{
		NumP1: s.NumP1, NumP2: s.NumP2, NumP3: s.NumP3, Seed: s.Seed,
		MSBLimit: s.MSBLimit, Mode: s.Mode, LocalPolicy: s.LocalPolicy,
		Step: s.Step, PreRoll: s.Step,
		MaxChargeDuration: 6 * time.Hour,
	}
}

// RunEndurance executes the endurance simulation. With Spec.Resume set it
// restores a checkpointed run and continues it from the next failure event.
func RunEndurance(spec EnduranceSpec) (*EnduranceResult, error) {
	if err := spec.fillDefaults(); err != nil {
		return nil, err
	}
	relSim, err := reliability.NewSimulator(reliability.TableI(), spec.Seed)
	if err != nil {
		return nil, err
	}
	events := relSim.Events(spec.Years)
	base := spec.transientSpec()
	n := spec.NumP1 + spec.NumP2 + spec.NumP3
	gen, err := traceSource(&base, n)
	if err != nil {
		return nil, err
	}
	p := &enduranceCheckpoint{
		Kind:        enduranceKind,
		Fingerprint: enduranceFingerprint(&spec, gen),
		Seed:        spec.Seed,
		Loss:        make([]time.Duration, n),
	}
	if spec.Resume != "" {
		if err := p.restore(spec.Resume, len(events)); err != nil {
			return nil, err
		}
	}
	nextCkpt := spec.CheckpointEvery
	for p.EventIdx < len(events) {
		ev := events[p.EventIdx]
		at := hours(ev.StartHours)
		if spec.HardStop != nil && spec.HardStop(at) {
			return nil, ErrAborted
		}
		if spec.Interrupt != nil && spec.Interrupt() {
			if spec.Checkpoint != "" {
				if err := p.write(spec.Checkpoint); err != nil {
					return nil, err
				}
			}
			res := p.result(&spec)
			res.Interrupted = true
			return res, nil
		}
		if err := p.replay(base, ev); err != nil {
			return nil, err
		}
		p.EventIdx++
		if spec.Checkpoint != "" && at >= nextCkpt {
			if err := p.write(spec.Checkpoint); err != nil {
				return nil, err
			}
			nextCkpt = at + spec.CheckpointEvery
		}
	}
	return p.result(&spec), nil
}

// replay runs one Table I event: a power outage is one input loss for the
// repair time; a failure or maintenance is an open transition at failure
// and another at restore. SB- and RPP-level events rotate across the
// breakers of that level; everything at or above the MSB hits the whole
// tree. The rotation counters are progress: a resume must target the same
// breakers the uninterrupted run would have.
func (p *enduranceCheckpoint) replay(base CoordSpec, ev reliability.Event) error {
	level, idx := power.LevelMSB, 0 // Utility, Sub/MSG, MSB
	switch ev.Component.Name {
	case "SB":
		p.SBIdx++
		level, idx = power.LevelSB, p.SBIdx
	case "RPP":
		p.RPPIdx++
		level, idx = power.LevelRPP, p.RPPIdx
	}
	start := hours(ev.StartHours)
	if ev.IsOutage() {
		p.Outages++
		return p.transient(base, level, idx, start, hours(ev.RepairHours))
	}
	if err := p.transient(base, level, idx, start, hours(ev.OT1Hours)); err != nil {
		return err
	}
	return p.transient(base, level, idx, hours(ev.StartHours+ev.RepairHours), hours(ev.OT2Hours))
}

// transient runs one input loss as a coordinated run on a fresh fleet: the
// idx-th breaker of the level (in walk order) opens for length at t, folded
// onto the trace week. Each rack under that breaker has no redundancy from
// the loss of input until its battery is full again: the end of its charge
// (a postponed or queued wait included), or the run's horizon when the
// charge has not finished.
func (p *enduranceCheckpoint) transient(spec CoordSpec, level power.Level, idx int, t, length time.Duration) error {
	const week = 7 * 24 * time.Hour
	// A zero OutageLen would mean "derive the length from AvgDOD"; a
	// transient shorter than a tick opens for one tick either way.
	spec.OutageLen = max(length, spec.Step)
	if err := spec.fillDefaults(); err != nil {
		return err
	}
	cr, err := newCoordRunAt(spec, func(cr *coordRun) (*power.Node, time.Duration) {
		var scopes []*power.Node
		for _, nd := range cr.nodes {
			if nd.Level() == level {
				scopes = append(scopes, nd)
			}
		}
		return scopes[idx%len(scopes)], t % week
	})
	if err != nil {
		return err
	}
	res, err := cr.run()
	if err != nil {
		return err
	}
	under := map[power.Load]bool{}
	for _, l := range cr.scope.RackLoads() {
		under[l] = true
	}
	for i, r := range cr.racks {
		if !under[r] {
			continue
		}
		end := cr.horizon
		if r.LastDOD() <= 0 {
			end = cr.restoreAt // nothing to recharge
		} else if d, done := r.ChargeDuration(cr.horizon); done {
			end = r.ChargeStart() + d
		}
		p.Loss[i] += end - cr.loseAt
	}
	p.Metrics.Merge(res.Metrics)
	p.UnservedEnergy += res.UnservedEnergy
	p.LoadDropEvents += res.LoadDropEvents
	for _, name := range res.Tripped {
		if !slices.Contains(p.Tripped, name) {
			p.Tripped = append(p.Tripped, name)
		}
	}
	return nil
}

// result folds the progress into an endurance result: realized AOR per
// priority is one minus the mean rack loss over the horizon.
func (p *enduranceCheckpoint) result(spec *EnduranceSpec) *EnduranceResult {
	res := &EnduranceResult{
		Spec:             *spec,
		Events:           p.EventIdx,
		Outages:          p.Outages,
		AOR:              map[rack.Priority]units.Fraction{},
		LossHoursPerYear: map[rack.Priority]float64{},
		Metrics:          p.Metrics,
		UnservedEnergy:   p.UnservedEnergy,
		LoadDropEvents:   p.LoadDropEvents,
		Tripped:          p.Tripped,
	}
	horizon := time.Duration(spec.Years * float64(time.Hour) * 8766)
	counts := map[rack.Priority]int{}
	sums := map[rack.Priority]time.Duration{}
	for i, loss := range p.Loss {
		pr := rackPriority(i, spec.NumP1, spec.NumP2)
		counts[pr]++
		sums[pr] += loss
	}
	for _, pr := range []rack.Priority{rack.P1, rack.P2, rack.P3} {
		if counts[pr] == 0 {
			continue
		}
		mean := float64(sums[pr]) / float64(counts[pr])
		frac := mean / float64(horizon)
		res.AOR[pr] = units.Fraction(1 - frac)
		res.LossHoursPerYear[pr] = frac * 8766
	}
	return res
}

// write atomically writes the progress for a resume at the next event.
func (p *enduranceCheckpoint) write(path string) error {
	if err := ckpt.WriteFileRotated(path, p); err != nil {
		return fmt.Errorf("scenario: endurance checkpoint write: %w", err)
	}
	return nil
}

// restore loads the progress of a checkpointed run of the same experiment.
func (p *enduranceCheckpoint) restore(path string, events int) error {
	var ck enduranceCheckpoint
	// Fall back to the previous-good cadence write when the latest fails
	// envelope verification; path reports what was actually restored.
	path, err := ckpt.ReadFileFallback(path, &ck)
	if err != nil {
		return err
	}
	if ck.Kind != enduranceKind {
		return fmt.Errorf("scenario: %s is a %q checkpoint, want %q", path, ck.Kind, enduranceKind)
	}
	if ck.Seed != p.Seed {
		return fmt.Errorf("scenario: checkpoint %s was written with seed %d, this run uses seed %d", path, ck.Seed, p.Seed)
	}
	if ck.Fingerprint != p.Fingerprint {
		return fmt.Errorf("scenario: checkpoint %s describes a different experiment (fingerprint %016x, spec is %016x)", path, ck.Fingerprint, p.Fingerprint)
	}
	if ck.EventIdx < 0 || ck.EventIdx > events {
		return fmt.Errorf("scenario: checkpoint event index %d outside stream of %d events", ck.EventIdx, events)
	}
	if len(ck.Loss) != len(p.Loss) {
		return fmt.Errorf("scenario: checkpoint accounts %d racks, run has %d", len(ck.Loss), len(p.Loss))
	}
	*p = ck
	return nil
}

// EnduranceTable renders an endurance result against the paper's Table II
// targets: realized AOR through the coordinated control plane versus the
// idealised per-priority goals.
func EnduranceTable(res *EnduranceResult) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Realized AOR over %.0f simulated years (%s mode, %v limit, %d events)",
			res.Spec.Years, res.Spec.Mode, res.Spec.MSBLimit, res.Events),
		"Priority", "Realized AOR", "Loss (hr/year)", "Table II target")
	targets := map[rack.Priority]string{rack.P1: "99.94%", rack.P2: "99.90%", rack.P3: "99.85%"}
	for _, p := range []rack.Priority{rack.P1, rack.P2, rack.P3} {
		if _, ok := res.AOR[p]; !ok {
			continue
		}
		t.Add(p.String(),
			fmt.Sprintf("%.3f%%", float64(res.AOR[p])*100),
			fmt.Sprintf("%.2f", res.LossHoursPerYear[p]),
			targets[p])
	}
	return t
}
