package scenario

// The event-driven coordinated kernel: a fused tick loop that visits every
// grid tick but does O(1) work on ticks where nothing can change, advancing
// charging batteries analytically (bit-exactly, via battery.AdvanceTicks)
// only when state must be observed. coordRun.run is the one run loop: with a
// nil kernel it executes every tick (the dense reference semantics), and with
// this kernel it asks skip whether each tick may be skipped. The kernel must
// reproduce the dense run bit for bit — flight digests, samples, and result
// fields all byte-identical.
//
// A tick executes densely (the verbatim coordRun.tick) when any of:
//
//   - a scheduled wake is due: the run start, the outage and restore edges,
//     the LastChargeDone latch tick, the done tick and the last tick of the
//     window all come from the internal sim.Engine wake queue;
//   - the control plane is not quiescent: a controller mutated state last
//     tick, holds unconfirmed overrides, or is down; a guard is mid-action;
//     a breaker is tripped or overdrawn; a rack is capped;
//   - the outage is in progress (racks must step to discharge);
//   - an analytic bound says the control plane *could* act: the fleet draw
//     could approach the MSB limit (headroom bound), or measured headroom
//     could fund a storm-queue admission or a postponed-charge restart.
//
// Every other tick is skipped: demand is never synthesized or pushed to the
// racks, packs are not stepped, controllers and guards do not run. The
// bounds hold a Lipschitz demand envelope (trace.AggregateRate) anchored at
// the last exactly-evaluated tick, so a skipped tick costs O(1) — no trace
// sinusoids; the envelope re-anchors exactly (one frame, two sins per rack)
// only when a loose bound cannot prove the skip. Output samples on skipped
// ticks are synthesized from an exact single-frame aggregate and the
// materialized recharge state, reproducing the dense accumulation order
// bit for bit. See DESIGN.md §15 for the wakeup taxonomy and the proof
// obligations behind each bound.

import (
	"time"

	"coordcharge/internal/dynamo"
	"coordcharge/internal/obs"
	"coordcharge/internal/rack"
	"coordcharge/internal/sim"
	"coordcharge/internal/storm"
	"coordcharge/internal/trace"
	"coordcharge/internal/units"
)

// Kernel selectors for CoordSpec.Kernel.
const (
	// KernelDense is the reference per-tick loop: every tick runs the full
	// body. The parity suites select it explicitly as the reference.
	KernelDense = "dense"
	// KernelEvent is the event-driven kernel, and the default (an empty
	// Kernel means it). A spec the kernel cannot prove bounds for runs on the
	// dense loop, and CoordResult.KernelFallback names the feature that
	// forced it (see kernelFallback).
	KernelEvent = "event"
)

// kernelFallback returns the first feature of the spec that makes the event
// kernel's quiescence and wake bounds unsound, or "" when the kernel may
// run. Each feature injects per-tick state changes the bounds cannot see:
// faults flip controllers and telemetry at arbitrary ticks; the grid plane
// varies the effective limit and defers admission on price signals; the
// distributed plane and command latency queue work in the run's own engine;
// watchdogs and heartbeats age per tick; StaleAfter makes telemetry
// freshness a function of wall-clock distance; StepHook observes every tick
// by contract; un-relaxed lower levels would need a headroom bound per
// breaker, not just at the MSB; and the demand envelope needs the synthetic
// generator's analytic rate bound, which an external trace does not have.
func kernelFallback(spec *CoordSpec, src trace.Source) string {
	switch {
	case spec.Faults.Enabled():
		return "fault injection"
	case spec.Grid != nil:
		return "grid plane"
	case spec.Distributed:
		return "distributed plane"
	case spec.CommandLatency != 0:
		return "command latency"
	case spec.WatchdogTTL != 0:
		return "watchdog"
	case spec.StaleAfter > 0:
		return "stale telemetry"
	case spec.StepHook != nil:
		return "step hook"
	case !*spec.RelaxLowerLevels:
		return "lower levels not relaxed"
	}
	if _, ok := src.(*trace.Generator); !ok {
		return "external trace"
	}
	return ""
}

// Bound paddings, in watts. boundSlackW pads the cached recharge bounds
// against float summation-order drift when they are folded with the demand
// aggregates; tickSlackW is the per-tick comparison margin against the dense
// plane's own accumulation order (breaker tree sums vs flat sums). Both are
// ~7 orders of magnitude above the worst-case float64 reordering error of a
// megawatt-scale 316-term sum, and ~2 orders below any real decision margin
// (the smallest grant is ~380 W), so they can neither mask a real crossing
// nor trip spuriously.
const (
	boundSlackW = units.Power(2)
	tickSlackW  = units.Power(8)
)

// eventKernel is the live kernel state for one run.
type eventKernel struct {
	cr  *coordRun
	gen *trace.Generator

	// wakes is the kernel's private discrete-event queue: state-change
	// deadlines (outage, restore, latch, done, horizon) live here so the
	// loop's only per-skipped-tick event work is one NextAt peek. It is
	// distinct from coordRun.engine, which stays nil for eligible specs.
	wakes *sim.Engine

	// The demand envelope: aggAt is the exact clamped demand aggregate at
	// tick aggT — bit-identical to the dense plane's SetDemand-then-sum of
	// that frame in rack index order — and aggRate bounds how fast the
	// aggregate can move (W/s), so at any later tick of the same swing
	// regime the aggregate lies within aggAt ± aggRate·(t−aggT).
	aggAt   units.Power
	aggT    time.Duration
	aggRate float64
	aggBuf  []units.Power // single-frame scratch for FrameAggregates

	// rUB/rLB bound the fleet recharge power over the current skip span:
	// rUB is an upper bound valid until the next charging-set mutation
	// (recharge is nonincreasing inside a quiescent span), rLB a lower
	// bound valid for maxWindow past matAt (battery.PowerLowerBound).
	rUB, rLB units.Power

	// matAt is the tick time the battery fleet is materialized through:
	// every pack's state equals the dense plane's after executing the tick
	// at matAt. maxWindow caps how far bounds may age before the fleet is
	// re-materialized.
	matAt     time.Duration
	maxWindow time.Duration

	quiet       bool // control plane proven inert since the last executed tick
	force       bool // a wake fired: this tick must execute densely
	prevSkipped bool // a tick was skipped since the last executed one

	// postponedN mirrors the controllers' postponed-charge population for
	// the restart bound; minGrantW is the smallest wattage any admission or
	// restart can grant (below it both are proven no-ops).
	postponedN int
	minGrantW  units.Power

	// lastCompletion is the grid tick of the latest charge completion
	// discovered by materialize; doneT is the computed early-exit tick
	// (-1 until the fleet drains).
	lastCompletion time.Duration
	doneT          time.Duration

	controllers []*dynamo.Controller
	guards      []*storm.Guard
	stormQ      *storm.Queue

	ticksExecuted, ticksSkipped uint64

	gEvents, gSkipped *obs.Gauge
}

// newEventKernel wires the kernel to a freshly built run and schedules the
// static wakes. Call only when kernelFallback is empty: the hierarchy exists,
// coordRun.engine is nil, and the demand source is the synthetic generator.
func newEventKernel(cr *coordRun, gen *trace.Generator) *eventKernel {
	k := &eventKernel{
		cr:          cr,
		gen:         gen,
		aggRate:     gen.AggregateRate(),
		wakes:       sim.NewEngine(),
		matAt:       cr.start - cr.spec.Step,
		maxWindow:   time.Minute,
		doneT:       -1,
		controllers: cr.hier.Controllers(),
		guards:      cr.hier.Guards(),
		stormQ:      cr.hier.StormQueue(),
		minGrantW:   units.Power(float64(cr.cfg.Surface.MinCurrent()) * cr.cfg.WattsPerAmp),
	}
	if k.maxWindow < cr.spec.Step {
		k.maxWindow = cr.spec.Step
	}
	if cr.spec.Obs != nil {
		k.gEvents = cr.spec.Obs.Gauge("sim.events_executed")
		k.gSkipped = cr.spec.Obs.Gauge("sim.ticks_skipped")
	}
	k.wakes.ScheduleAt(cr.start, "start", k.onForce)
	k.wakes.ScheduleAt(k.ceilTick(cr.loseAt), "outage", k.onForce)
	k.wakes.ScheduleAt(k.ceilTick(cr.restoreAt), "restore", k.onForce)
	// The last tick of the window executes, so a run that reaches the
	// horizon with charges still running leaves its fleet gauges where the
	// dense loop leaves them.
	k.wakes.ScheduleAt(cr.start+(cr.horizon-cr.start)/cr.spec.Step*cr.spec.Step, "horizon", k.onForce)
	k.refreshRechargeBounds()
	k.refreshAgg(cr.start)
	return k
}

// frame returns the demand frame for tick now, generating it at most once —
// dense ticks, sample synthesis, and peak probes within a tick share it. The
// coordRun block variables carry it so cr.tick reads the exact same slice a
// dense run would (single-frame blocks instead of 256-frame slabs: the
// generator's per-frame terms are shared only within a frame, so per-frame
// cost is identical and nothing is synthesized for skipped spans).
func (k *eventKernel) frame(now time.Duration) []units.Power {
	cr := k.cr
	if cr.blockStart != now || cr.blockEnd != now {
		cr.demand = trace.Frames(cr.gen, cr.demand, now, now, cr.spec.Step)
		cr.blockStart, cr.blockEnd = now, now
	}
	return cr.demand
}

// refreshAgg re-anchors the demand envelope at tick now with the exact
// clamped aggregate of that frame (bit-identical to the dense plane's
// SetDemand-then-ITLoad sum, per FrameAggregates' contract).
func (k *eventKernel) refreshAgg(now time.Duration) units.Power {
	k.aggBuf = trace.FrameAggregates(k.frame(now), k.cr.n, rack.MaxITLoad, k.aggBuf)
	k.aggAt, k.aggT = k.aggBuf[0], now
	return k.aggAt
}

// aggDrift returns the envelope half-width at tick now: how far the
// aggregate may have moved since the anchor. A weekend-damping regime switch
// invalidates the Lipschitz bound, so the envelope re-anchors there (exact,
// width zero).
func (k *eventKernel) aggDrift(now time.Duration) units.Power {
	if now == k.aggT {
		return 0
	}
	if k.gen.SwingRegime(now) != k.gen.SwingRegime(k.aggT) {
		k.refreshAgg(now)
		return 0
	}
	return units.Power(k.aggRate * (now - k.aggT).Seconds())
}

func (k *eventKernel) onForce(time.Duration) { k.force = true }

// ceilTick returns the first grid tick at or after t; firstTickAfter the
// first strictly after t. The tick grid is start + j*Step — PreRoll need not
// divide Step, so loseAt/restoreAt are not necessarily on it.
func (k *eventKernel) ceilTick(t time.Duration) time.Duration {
	step := k.cr.spec.Step
	at := k.cr.start + (t-k.cr.start)/step*step
	if at < t {
		at += step
	}
	return at
}

func (k *eventKernel) firstTickAfter(t time.Duration) time.Duration {
	at := k.ceilTick(t)
	if at == t {
		at += k.cr.spec.Step
	}
	return at
}

// skip reports whether the tick at now may be skipped, and does a skipped
// tick's O(1) work. A nil kernel (the dense path) never skips. When the tick
// must execute, skip brings the fleet, the controller clocks and the demand
// frame current, so coordRun.tick reads exactly what the dense loop would.
func (k *eventKernel) skip(now time.Duration) bool {
	if k == nil {
		return false
	}
	cr := k.cr
	step := cr.spec.Step
	k.force = false
	if at, ok := k.wakes.NextAt(); ok && at <= now {
		k.wakes.Run(now)
	}
	// Re-materialize before the bounds age past their validity window.
	if cr.numOutstanding > 0 && now-k.matAt >= k.maxWindow {
		k.materialize(now - step)
	}
	if k.force || !k.quiet || (cr.outageFired && !cr.restoreFired) || k.boundsTrip(now) {
		k.current(now - step)
		k.frame(now) // single-frame block; cr.tick reads it verbatim
		return false
	}
	k.ticksSkipped++
	k.prevSkipped = true
	k.skipped(now)
	return true
}

// current brings the run up to the tick at `at` as the dense loop would
// have left it: every charging pack materialized through that tick and,
// after a skipped span, every controller's clock stamped there (skipped
// ticks never ran the controllers, so the next Tick's dt is one Step). The
// run loop calls it before each checkpoint write and at the end of the run.
// A nil kernel is always current.
func (k *eventKernel) current(at time.Duration) {
	if k == nil {
		return
	}
	k.materialize(at)
	if k.prevSkipped {
		for _, c := range k.controllers {
			c.SyncClock(at)
		}
	}
}

// skipped is the O(1) body of a skipped tick: synthesize the output sample
// on sample ticks and keep the post-restore peak tracker exact, both against
// materialized state. Everything else is proven unchanged by quiescence plus
// the bounds.
func (k *eventKernel) skipped(now time.Duration) {
	cr := k.cr
	spec, res := &cr.spec, cr.res
	if now-cr.lastSample >= spec.SampleEvery {
		k.materialize(now)
		// Reproduce the dense accumulation bit for bit: IT is the clamped
		// frame sum in rack index order (FrameAggregates' contract), the
		// recharge term the same per-rack fold over live pack state. Capped
		// is identically zero on a skippable tick (a capped rack blocks
		// quiescence), as are Shaved/GridCap (no grid plane when eligible).
		it := k.refreshAgg(now)
		var rech units.Power
		for _, r := range cr.racks {
			if r.InputUp() {
				rech += r.RechargePower()
			}
		}
		cr.lastSample = now
		res.Samples = append(res.Samples, Sample{
			T: now - cr.loseAt, Total: it + rech, IT: it, Recharge: rech,
		})
	}
	if now > cr.restoreAt {
		drift := k.aggDrift(now)
		if k.aggAt+drift+k.rUB > res.PeakPower-tickSlackW {
			if drift != 0 {
				k.refreshAgg(now)
			}
			if k.aggAt+k.rUB > res.PeakPower-tickSlackW {
				// The running peak could advance this tick: take the exact
				// dense measurement (demand pushed, packs current, breaker
				// tree sum) without executing a control-plane tick.
				k.materialize(now)
				frame := k.frame(now)
				for i, r := range cr.racks {
					r.SetDemand(frame[i])
				}
				if p := cr.msb.Power(); p > res.PeakPower {
					res.PeakPower = p
				}
			}
		}
	}
}

// boundsTrip reports whether the control plane could act at tick now.
// Soundness directions: the fleet draw at the tick is at most demand+rUB
// (headroom, guard, and trip checks compare draw *upward* against limits)
// and at least demand+rLB (admission and restart budgets are limit *minus*
// draw, so a draw floor caps the budget). Demand enters through the
// envelope: first the O(1) drift-widened bounds; only if those cannot prove
// the skip, the exact aggregate (two sins per rack — ~100x cheaper than a
// dense tick), so the final decision matches what the dense plane would
// measure.
func (k *eventKernel) boundsTrip(now time.Duration) bool {
	cr := k.cr
	limit := cr.msb.Limit()
	drift := k.aggDrift(now)
	if !k.boundsTripAt(limit, k.aggAt-drift, k.aggAt+drift) {
		return false
	}
	if drift == 0 {
		return true
	}
	d := k.refreshAgg(now)
	return k.boundsTripAt(limit, d, d)
}

func (k *eventKernel) boundsTripAt(limit, dLo, dHi units.Power) bool {
	// Headroom: protect/guard/Observe act only when draw approaches the MSB
	// limit (lower levels are relaxed to 100 MW, or kernelFallback would
	// have refused the spec).
	if dHi+k.rUB > limit-tickSlackW {
		return true
	}
	// Storm admission: a waiting queue is only granted power when measured
	// budget (limit - draw - margin) can fund the minimum grant.
	if k.stormQ != nil && k.stormQ.Len() > 0 {
		if limit-k.stormQ.Config().Margin(limit)-dLo-k.rLB >= k.minGrantW-tickSlackW {
			return true
		}
	}
	// Postponed restarts: restartPostponed stops at headroom < the minimum
	// grant; until headroom can reach it, the waiting set cannot move.
	if k.postponedN > 0 {
		if limit-dLo-k.rLB >= k.minGrantW-tickSlackW {
			return true
		}
	}
	return false
}

// materialize advances every charging pack analytically through the tick at
// `to`, running the single completing tick of each charge through the real
// rack step so chargeEnd, the outstanding set, and the completion time latch
// exactly as on the dense plane.
func (k *eventKernel) materialize(to time.Duration) {
	cr := k.cr
	if to <= k.matAt {
		return
	}
	step := cr.spec.Step
	ticks := int((to - k.matAt) / step)
	for i, r := range cr.racks {
		if !r.Charging() {
			continue
		}
		pk := r.Pack()
		left, t := ticks, k.matAt
		for left > 0 && r.Charging() {
			adv := pk.AdvanceTicks(step, left)
			t += time.Duration(adv) * step
			left -= adv
			if left > 0 {
				// AdvanceTicks withholds the completing tick; execute it
				// for real. The remaining ticks of this span are pure
				// no-ops on an idle, input-up rack.
				t += step
				left--
				r.Step(t, step)
			}
		}
		if cr.outstanding[i] && !r.Charging() && r.PendingDOD() <= 0 {
			cr.outstanding[i] = false
			cr.numOutstanding--
			if t > k.lastCompletion {
				k.lastCompletion = t
			}
		}
	}
	k.matAt = to
	k.refreshRechargeBounds()
	if cr.restoreFired && cr.numOutstanding == 0 {
		k.noteDrained()
	}
}

// refreshRechargeBounds recomputes rUB/rLB from live pack state. Inside a
// quiescent span no charge can start (starts require a controller mutation,
// which forces density), CC-phase recharge is constant and CV-phase recharge
// decays, so the flat sum now upper-bounds the sum at any later tick of the
// span; PowerLowerBound floors each pack's draw over the next maxWindow.
func (k *eventKernel) refreshRechargeBounds() {
	var ub, lb units.Power
	for _, r := range k.cr.racks {
		if !r.Charging() {
			continue
		}
		ub += r.RechargePower()
		lb += r.Pack().PowerLowerBound(k.maxWindow)
	}
	k.rUB = ub + boundSlackW
	k.rLB = lb - boundSlackW
}

// executed runs after every densely executed tick: refresh the caches the
// skip decision reads, and recheck the drain latch (the tick may have
// completed the last charge itself).
func (k *eventKernel) executed(now time.Duration) {
	if k == nil {
		return
	}
	cr := k.cr
	k.ticksExecuted++
	k.prevSkipped = false
	k.matAt = now
	// The dense tick's frame is still cached, so re-anchoring the envelope
	// here costs one clamped sum — no sinusoids — and keeps drift small.
	k.refreshAgg(now)
	k.refreshRechargeBounds()
	k.recomputeQuiet()
	if cr.restoreFired && cr.numOutstanding == 0 {
		k.noteDrained()
	}
	if k.gEvents != nil {
		k.gEvents.Set(float64(k.wakes.Executed()))
		k.gSkipped.Set(float64(k.ticksSkipped))
	}
}

// recomputeQuiet re-derives the quiescence flag from control-plane state.
// Quiet means a dense tick would be a proven no-op modulo the wake bounds:
// no controller is down, mutated, or holding unconfirmed overrides; every
// guard is idle; no breaker is tripped or inside its trip window; no rack is
// capped. A waiting storm queue or postponed set is compatible with quiet —
// their re-admission is governed by the headroom bounds, not by density.
func (k *eventKernel) recomputeQuiet() {
	cr := k.cr
	k.postponedN = 0
	quiet := true
	for _, c := range k.controllers {
		k.postponedN += c.PostponedCount()
		if c.Down() || c.Mutated() || c.PendingCount() > 0 {
			quiet = false
		}
	}
	if quiet {
		for _, g := range k.guards {
			if !g.Idle() {
				quiet = false
				break
			}
		}
	}
	if quiet {
		for _, nd := range cr.nodes {
			if nd.Tripped() || nd.Overdrawn() {
				quiet = false
				break
			}
		}
	}
	if quiet {
		for _, r := range cr.racks {
			if r.Capped() {
				quiet = false
				break
			}
		}
	}
	k.quiet = quiet
}

// noteDrained runs once, when the post-restore fleet first has no
// outstanding charges, and reconstructs the dense plane's termination
// schedule: the tick that latches LastChargeDone and the tick whose
// early-exit check succeeds. Charges cannot restart after the drain (starts
// happen only at the restore edge or from the queues, which are empty when
// numOutstanding is zero), so neither needs cancelling.
func (k *eventKernel) noteDrained() {
	cr := k.cr
	if k.doneT >= 0 {
		return
	}
	// lt is the latch tick: the first tick strictly after restoreAt with no
	// outstanding charges — the completion tick itself when it came later.
	lt := k.firstTickAfter(cr.restoreAt)
	switch {
	case cr.res.LastChargeDone != 0:
		lt = cr.loseAt + cr.res.LastChargeDone // a dense tick already latched
	case k.lastCompletion > lt:
		lt = k.lastCompletion
	}
	if cr.res.LastChargeDone == 0 {
		if lt <= k.matAt {
			// The latch tick was inside a skipped span; apply the latch the
			// dense plane would have taken there. (The drain is discovered
			// at most maxWindow after the completion, and the done tick is
			// at least 2 minutes after the latch, so the schedule below is
			// always still in the future.)
			cr.res.LastChargeDone = lt - cr.loseAt
		} else {
			k.wakes.ScheduleAt(lt, "latch", k.onForce)
		}
	}
	k.doneT = k.ceilTick(cr.restoreAt + 5*time.Minute)
	if d := k.ceilTick(lt + 2*time.Minute); d > k.doneT {
		k.doneT = d
	}
	k.wakes.ScheduleAt(k.doneT, "done", k.onForce)
}

// report copies the tick accounting into the result and the gauges.
func (k *eventKernel) report() {
	if k == nil {
		return
	}
	res := k.cr.res
	res.KernelTicksExecuted = k.ticksExecuted
	res.KernelTicksSkipped = k.ticksSkipped
	if k.gEvents != nil {
		k.gEvents.Set(float64(k.wakes.Executed()))
		k.gSkipped.Set(float64(k.ticksSkipped))
	}
}
