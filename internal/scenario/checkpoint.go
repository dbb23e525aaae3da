package scenario

// Checkpoint/resume for coordinated runs by verified replay. A coordinated
// run is a pure function of its spec, so a checkpoint carries no run state:
// only the resume cursor and a verification block (fleet state hash, flight
// digest and total, and the engine counters of engine-backed runs). Restore
// rebuilds the run from the spec, re-executes every tick up to the cursor
// on the run's own kernel with the hooks suppressed, then checks the
// rebuilt values against the stored block, so any nondeterminism fails
// loudly instead of silently forking the timeline. The spec fingerprint and
// seed are checked first: a checkpoint only resumes the experiment it was
// written from.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"coordcharge/internal/ckpt"
	"coordcharge/internal/trace"
)

// coordKind tags coordinated-run checkpoints so an endurance checkpoint (or
// anything else in a ckpt envelope) cannot be restored into the wrong runner.
// Checkpoints of the earlier full-state format carry the kind "coordinated",
// so they too are rejected here, before any replay.
const coordKind = "coordinated-replay"

// coordCheckpoint is the payload inside the ckpt envelope for one
// coordinated run: the resume cursor plus the values a replay up to it must
// reproduce.
type coordCheckpoint struct {
	Kind        string `json:"kind"`
	Fingerprint uint64 `json:"fingerprint"`
	Seed        int64  `json:"seed"`
	// Now is the resume cursor: the virtual time of the next tick to run.
	Now time.Duration `json:"now"`

	StateHash      uint64        `json:"state_hash"`
	FlightDigest   string        `json:"flight_digest,omitempty"`
	FlightTotal    uint64        `json:"flight_total,omitempty"`
	EngineNow      time.Duration `json:"engine_now,omitempty"`
	EngineSeq      uint64        `json:"engine_seq,omitempty"`
	EngineExecuted uint64        `json:"engine_executed,omitempty"`
}

// specFingerprint hashes every spec field that shapes the simulation, plus a
// sampled fingerprint of the trace, so a checkpoint refuses to resume under
// a different experiment. Hooks, observability wiring, and the checkpoint
// fields themselves are excluded: they do not affect simulated state. The
// seed is hashed here too but also stored separately, so a seed mismatch can
// say so specifically.
func specFingerprint(spec *CoordSpec, gen trace.Source) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "p1=%d|p2=%d|p3=%d|seed=%d|limit=%g|mode=%d|policy=%s|dod=%g|step=%d|preroll=%d|maxcharge=%d|sample=%d|cmdlat=%d|relax=%t|dist=%t|netlat=%d|stale=%d|wdttl=%d|outage=%d",
		spec.NumP1, spec.NumP2, spec.NumP3, spec.Seed, float64(spec.MSBLimit),
		spec.Mode, spec.LocalPolicy.Name(), float64(spec.AvgDOD), spec.Step,
		spec.PreRoll, spec.MaxChargeDuration, spec.SampleEvery,
		spec.CommandLatency, *spec.RelaxLowerLevels, spec.Distributed,
		spec.NetworkLatency, spec.StaleAfter, spec.WatchdogTTL, spec.OutageLen)
	fmt.Fprintf(h, "|faults=%+v|retry=%+v", spec.Faults, spec.Retry)
	if spec.Storm != nil {
		fmt.Fprintf(h, "|storm=%+v", *spec.Storm)
	}
	if spec.Guard != nil {
		fmt.Fprintf(h, "|guard=%+v", *spec.Guard)
	}
	if spec.TripRule != nil {
		fmt.Fprintf(h, "|trip=%+v", *spec.TripRule)
	}
	if spec.Grid != nil {
		fmt.Fprintf(h, "|grid=%016x", spec.Grid.Fingerprint())
	}
	fmt.Fprintf(h, "|trace=%016x", trace.Fingerprint(gen))
	return h.Sum64()
}

// stateHash digests the whole fleet — every rack (including its battery
// pack), every breaker node, and the grid policy — as the checkpoint's
// nondeterminism tripwire. JSON encoding is deterministic here: the structs
// are plain and encoding/json sorts map keys.
func (cr *coordRun) stateHash() (uint64, error) {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for _, r := range cr.racks {
		if err := enc.Encode(r.Snapshot()); err != nil {
			return 0, err
		}
	}
	for _, nd := range cr.nodes {
		if err := enc.Encode(nd.Snapshot()); err != nil {
			return 0, err
		}
	}
	if cr.gridPol != nil {
		// The grid cursor (event position, defer/shave state, integrals)
		// shapes future evolution: fold it into the tripwire so a replay
		// that forks it fails loudly.
		if err := enc.Encode(cr.gridPol.Snapshot()); err != nil {
			return 0, err
		}
	}
	return h.Sum64(), nil
}

// exportCheckpoint captures the run's verification block as of resumeAt:
// every tick before resumeAt has executed, none at or after it, and the
// kernel is current through the tick before resumeAt. Checkpoint export
// emits no flight-recorder events — recording the act of checkpointing would
// make the resumed digest diverge from an uninterrupted run's.
func (cr *coordRun) exportCheckpoint(resumeAt time.Duration) (*coordCheckpoint, error) {
	sh, err := cr.stateHash()
	if err != nil {
		return nil, err
	}
	ck := &coordCheckpoint{
		Kind:        coordKind,
		Fingerprint: specFingerprint(&cr.spec, cr.gen),
		Seed:        cr.spec.Seed,
		Now:         resumeAt,
		StateHash:   sh,
	}
	if cr.spec.Obs != nil && cr.spec.Obs.Flight != nil {
		ck.FlightDigest = cr.spec.Obs.Flight.Digest()
		ck.FlightTotal = cr.spec.Obs.Flight.Total()
	}
	if cr.engine != nil {
		ck.EngineNow = cr.engine.Now()
		ck.EngineSeq = cr.engine.Seq()
		ck.EngineExecuted = cr.engine.Executed()
	}
	return ck, nil
}

// writeCheckpoint atomically writes the run's checkpoint file for a resume
// at resumeAt, rotating the previous cadence write to its ".prev" sibling so
// a corrupted latest generation still has a verified fallback.
func (cr *coordRun) writeCheckpoint(resumeAt time.Duration) error {
	ck, err := cr.exportCheckpoint(resumeAt)
	if err != nil {
		return fmt.Errorf("scenario: checkpoint export: %w", err)
	}
	if err := ckpt.WriteFileRotated(cr.spec.Checkpoint, ck); err != nil {
		return fmt.Errorf("scenario: checkpoint write: %w", err)
	}
	return nil
}

// restore loads a checkpoint into a freshly built run, replays the run up
// to the checkpoint's cursor, verifies the replay against the checkpoint,
// and positions the run loop at the cursor.
func (cr *coordRun) restore(path string) error {
	var ck coordCheckpoint
	// A latest generation that fails envelope verification falls back to the
	// previous-good cadence write; path reports what was actually restored.
	path, err := ckpt.ReadFileFallback(path, &ck)
	if err != nil {
		return err
	}
	if ck.Kind != coordKind {
		return fmt.Errorf("scenario: %s is a %q checkpoint, want %q", path, ck.Kind, coordKind)
	}
	if ck.Seed != cr.spec.Seed {
		return fmt.Errorf("scenario: checkpoint %s was written with seed %d, this run uses seed %d", path, ck.Seed, cr.spec.Seed)
	}
	if fp := specFingerprint(&cr.spec, cr.gen); ck.Fingerprint != fp {
		return fmt.Errorf("scenario: checkpoint %s describes a different experiment (fingerprint %016x, spec is %016x)", path, ck.Fingerprint, fp)
	}
	if ck.Now < cr.start || ck.Now > cr.horizon+cr.spec.Step || (ck.Now-cr.start)%cr.spec.Step != 0 {
		return fmt.Errorf("scenario: checkpoint cursor %v is not a tick of the run window [%v, %v]", ck.Now, cr.start, cr.horizon)
	}
	if err := cr.replay(ck.Now); err != nil {
		return err
	}
	if err := cr.verify(&ck); err != nil {
		return err
	}
	cr.cursor = ck.Now
	cr.nextCkpt = ck.Now + cr.spec.CheckpointEvery
	return nil
}

// replay re-executes every tick from the run start up to (excluding) the
// cursor exactly as run does — the kernel decides which ticks to skip —
// without polling the run hooks or writing checkpoints, then
// brings the kernel current through the tick before the cursor, as the
// checkpoint's writer did. Observability events and counters are
// deliberately re-recorded during replay: that rebuilds the digest chain
// the verification (and the resumed run's continuing journal) depends on.
func (cr *coordRun) replay(cursor time.Duration) error {
	k := cr.kern
	for now := cr.start; now < cursor; now += cr.spec.Step {
		if k.skip(now) {
			continue
		}
		done := cr.tick(now)
		k.executed(now)
		if done {
			return fmt.Errorf("scenario: replay finished early at %v, before checkpoint cursor %v — the run is not deterministic or the checkpoint is stale", now, cursor)
		}
	}
	k.current(cursor - cr.spec.Step)
	return nil
}

// verify compares the replayed run with the checkpoint's verification
// block: engine counters, fleet hash, then the flight digest and total.
func (cr *coordRun) verify(ck *coordCheckpoint) error {
	if e := cr.engine; e != nil && (e.Now() != ck.EngineNow || e.Seq() != ck.EngineSeq || e.Executed() != ck.EngineExecuted) {
		return fmt.Errorf("scenario: replay diverged: engine at now=%v seq=%d executed=%d, checkpoint recorded now=%v seq=%d executed=%d",
			e.Now(), e.Seq(), e.Executed(), ck.EngineNow, ck.EngineSeq, ck.EngineExecuted)
	}
	sh, err := cr.stateHash()
	if err != nil {
		return err
	}
	if sh != ck.StateHash {
		return fmt.Errorf("scenario: replay diverged: fleet hash %016x, checkpoint recorded %016x", sh, ck.StateHash)
	}
	if ck.FlightDigest != "" && cr.spec.Obs != nil && cr.spec.Obs.Flight != nil {
		if d := cr.spec.Obs.Flight.Digest(); d != ck.FlightDigest {
			return fmt.Errorf("scenario: replay diverged: flight digest %s, checkpoint recorded %s", d, ck.FlightDigest)
		}
		if n := cr.spec.Obs.Flight.Total(); n != ck.FlightTotal {
			return fmt.Errorf("scenario: replay diverged: %d flight events, checkpoint recorded %d", n, ck.FlightTotal)
		}
	}
	return nil
}
