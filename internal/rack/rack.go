// Package rack models an Open Rack V2 server rack as the coordinated
// charging system sees it: an IT load, a priority class, a battery backup
// (six BBUs abstracted as one rack-level pack), a local charger policy, and
// the input-power lifecycle — lose input during an open transition, ride on
// batteries, recharge when power returns (paper §II-A, §III).
package rack

import (
	"fmt"
	"time"

	"coordcharge/internal/battery"
	"coordcharge/internal/charger"
	"coordcharge/internal/obs"
	"coordcharge/internal/units"
)

// Priority is the service-priority class of a rack (paper §IV): P1 racks run
// stateful workloads needing the strongest power-availability guarantee; P3
// racks run stateless compute.
type Priority int

// Rack priorities, highest first.
const (
	P1 Priority = 1
	P2 Priority = 2
	P3 Priority = 3
)

// String returns "P1", "P2", or "P3".
func (p Priority) String() string {
	switch p {
	case P1, P2, P3:
		return fmt.Sprintf("P%d", int(p))
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// Valid reports whether p is one of the three defined priorities.
func (p Priority) Valid() bool { return p >= P1 && p <= P3 }

// MaxITLoad is the Open Rack V2 rack rating.
const MaxITLoad = 12600 * units.Watt

// Rack is one server rack. Construct with New.
type Rack struct {
	name     string
	priority Priority
	policy   charger.Policy
	pack     *battery.RackPack

	demand  units.Power            // what the servers want to draw
	caps    map[string]units.Power // Dynamo power caps by issuing controller
	capMin  units.Power            // tightest entry of caps, kept in sync by Cap/Uncap
	hasCap  bool                   // whether caps is non-empty (capMin is meaningful)
	inputUp bool

	// version counts externally visible state mutations. Every mutating
	// method bumps it, so observers (dynamo agents) can reuse a snapshot
	// taken earlier in the same tick as long as the version is unchanged.
	// Bumping on a logical no-op is harmless (one wasted re-snapshot);
	// missing a bump would serve stale reads, so mutators bump up front.
	version uint64

	// Outage accounting for the closed discharge loop: IT energy the
	// batteries could not supply (the pack emptied mid-outage), and how many
	// outages drained the pack dry and dropped the rack's load.
	unservedEnergy units.Energy
	loadDrops      int

	// Charge bookkeeping for SLA accounting.
	chargeStart time.Duration
	chargeEnd   time.Duration
	lastDOD     units.Fraction

	// Postponed-charge bookkeeping: the undelivered depth of discharge of a
	// charge the control plane postponed (kept rack-local so a controller
	// that crashes and restarts can reconstruct its postponed set from
	// agent reads).
	pendingDOD units.Fraction

	// Fail-safe watchdog (degraded mode): if no controller contact arrives
	// within watchdogTTL while a charge is running, the rack reverts to the
	// safe low-current charging policy so a partitioned rack can never trip
	// its breaker. Zero TTL disables the watchdog.
	watchdogTTL   time.Duration
	safeCurrent   units.Current
	lastContact   time.Duration
	haveContact   bool
	failSafe      bool
	failSafeCount int

	// Observability (nil when detached): fail-safe activations are counted
	// and journaled so a watchdog firing can be traced post-hoc.
	sink      *obs.Sink
	cFailSafe *obs.Counter
}

// New returns a rack with input power up, a fully charged battery pack, and
// the given local charger policy. It panics on an invalid priority or nil
// dependencies: topology construction errors are programming mistakes.
func New(name string, p Priority, policy charger.Policy, surface *battery.Surface) *Rack {
	if !p.Valid() {
		panic(fmt.Errorf("rack %s: invalid priority %d", name, int(p)))
	}
	if policy == nil || surface == nil {
		panic(fmt.Errorf("rack %s: nil charger policy or surface", name))
	}
	return &Rack{
		name:     name,
		priority: p,
		policy:   policy,
		pack:     battery.NewRackPack(surface),
		caps:     make(map[string]units.Power),
		inputUp:  true,
	}
}

// Name returns the rack's identifier.
func (r *Rack) Name() string { return r.name }

// Version returns the rack's mutation counter. It increases (by at least
// one) whenever any telemetry-visible rack or pack state — demand, caps,
// input, charge state, setpoint, pending DOD — may have changed; two reads
// returning the same version bracket a window in which a telemetry snapshot
// of the rack would have been identical.
func (r *Rack) Version() uint64 { return r.version }

// Priority returns the rack's service priority.
func (r *Rack) Priority() Priority { return r.priority }

// Pack exposes the rack's battery pack (read/override access for the control
// plane).
func (r *Rack) Pack() *battery.RackPack { return r.pack }

// SetDemand sets the servers' power demand (driven by the trace replay).
// Values clamp to [0, MaxITLoad].
func (r *Rack) SetDemand(p units.Power) {
	r.version++
	if p < 0 {
		p = 0
	}
	if p > MaxITLoad {
		p = MaxITLoad
	}
	r.demand = p
}

// Demand returns the uncapped server power demand.
func (r *Rack) Demand() units.Power { return r.demand }

// ITLoad returns the power the servers actually consume: the demand, reduced
// to the tightest Dynamo cap from any controller.
func (r *Rack) ITLoad() units.Power {
	if r.hasCap && r.capMin < r.demand {
		return r.capMin
	}
	return r.demand
}

// refreshCapMin recomputes the cached tightest cap after Cap/Uncap. The min
// over the map is order-independent, so ranging it here is deterministic.
func (r *Rack) refreshCapMin() {
	r.hasCap = len(r.caps) > 0
	first := true
	for _, cap := range r.caps {
		if first || cap < r.capMin {
			r.capMin = cap
			first = false
		}
	}
}

// CappedPower returns how much server power is currently being capped away.
func (r *Rack) CappedPower() units.Power {
	return r.demand - r.ITLoad()
}

// Cap limits the rack's server power to at most p on behalf of the named
// controller (Dynamo power capping, the control plane's last resort).
// Controllers at different hierarchy levels cap independently; the tightest
// cap wins. A negative p clamps to zero.
func (r *Rack) Cap(source string, p units.Power) {
	if p < 0 {
		p = 0
	}
	if old, ok := r.caps[source]; ok && old == p {
		return // re-applying the same cap changes nothing observable
	}
	r.version++
	r.caps[source] = p
	r.refreshCapMin()
}

// Uncap removes the named controller's power cap, if any. Uncapping a rack
// the controller holds no cap on is a version-neutral no-op: controllers
// release caps every healthy tick, and that sweep must not invalidate the
// fleet's telemetry snapshots.
func (r *Rack) Uncap(source string) {
	if _, ok := r.caps[source]; !ok {
		return
	}
	r.version++
	delete(r.caps, source)
	r.refreshCapMin()
}

// InputUp reports whether the rack's input power is present.
func (r *Rack) InputUp() bool { return r.inputUp }

// Power returns the rack's instantaneous draw on the power hierarchy: zero
// while input is lost (the batteries carry the load), otherwise the IT load
// plus the battery recharge power.
func (r *Rack) Power() units.Power {
	if !r.inputUp {
		return 0
	}
	return r.ITLoad() + r.pack.Power()
}

// RechargePower returns the battery recharge component of the rack's draw.
func (r *Rack) RechargePower() units.Power {
	if !r.inputUp {
		return 0
	}
	return r.pack.Power()
}

// LoseInput starts an open transition (or outage) at virtual time now: the
// rack stops drawing from the hierarchy and the batteries carry the IT load.
// Losing input mid-charge suspends the charge in place — the energy already
// delivered stays in the pack and the subsequent discharge deepens the
// deficit, which the pack itself carries.
func (r *Rack) LoseInput(now time.Duration) {
	if !r.inputUp {
		return
	}
	r.version++
	r.inputUp = false
	// Any postponed deficit already lives in the pack; the charge (if one is
	// running) is suspended the same way, so the pack's DOD is the single
	// source of truth for the whole outage.
	r.pendingDOD = 0
	r.pack.Suspend()
}

// Step advances the rack by dt: while input is lost the batteries supply the
// IT load (the closed discharge loop), and a pack that empties drops the
// rack's load; while input is up it advances the recharge. now is the
// virtual time at the END of the step.
func (r *Rack) Step(now time.Duration, dt time.Duration) {
	if dt <= 0 {
		return
	}
	r.version++
	if !r.inputUp {
		wasDepleted := r.pack.Depleted()
		want := units.EnergyOver(r.ITLoad(), dt)
		got := r.pack.Discharge(r.ITLoad(), dt)
		if got < want {
			r.unservedEnergy += want - got
			if !wasDepleted && r.pack.Depleted() {
				r.loadDrops++
			}
		}
		return
	}
	wasCharging := r.pack.Charging()
	r.pack.Step(dt)
	if wasCharging && !r.pack.Charging() {
		r.chargeEnd = now
	}
	r.checkWatchdog(now)
}

// checkWatchdog degrades a charging rack to the safe current once the
// controller-contact TTL lapses. The TTL is measured from the later of the
// charge start and the last contact, so a rack is given one full TTL for the
// control plane to reach it before it concludes it is partitioned. Fail-safe
// mode persists until controller contact: while latched, any charge found
// above the safe current (however it got there) is demoted immediately, not
// after another TTL.
func (r *Rack) checkWatchdog(now time.Duration) {
	if r.watchdogTTL <= 0 || !r.pack.Charging() {
		return
	}
	if r.failSafe {
		if r.pack.Setpoint() > r.safeCurrent {
			r.noteFailSafe(now, "latched-demote")
			r.pack.SetCurrent(r.safeCurrent)
		}
		return
	}
	base := r.chargeStart
	if r.haveContact && r.lastContact > base {
		base = r.lastContact
	}
	if now-base <= r.watchdogTTL {
		return
	}
	r.failSafe = true
	r.noteFailSafe(now, "ttl-expired")
	if r.pack.Setpoint() > r.safeCurrent {
		r.pack.SetCurrent(r.safeCurrent)
	}
}

// RestoreInput ends the input-power loss at virtual time now: the rack
// reports the battery pack's true depth of discharge (not an open-loop
// outage-length estimate) and the local charger policy picks the initial
// charging current (the coordinated controller may override it moments
// later).
func (r *Rack) RestoreInput(now time.Duration) {
	if r.inputUp {
		return
	}
	r.version++
	r.inputUp = true
	dod := r.pack.DOD()
	r.lastDOD = dod
	if dod <= 0 {
		return
	}
	i := r.policy.InitialCurrent(dod)
	if r.failSafe && i > r.safeCurrent {
		// Still no controller contact since the watchdog fired: the new
		// charge starts at the safe current instead of getting another TTL
		// at the policy rate.
		i = r.safeCurrent
		r.noteFailSafe(now, "restore-while-latched")
	}
	r.pack.StartCharge(i, dod)
	r.chargeStart = now
	r.chargeEnd = 0
}

// ChargeStart returns the virtual time the current charge episode began —
// the instant of the input restore that started it, which is where the
// charging-time SLA clock starts. Meaningful only while a charge is in
// progress or postponed.
func (r *Rack) ChargeStart() time.Duration { return r.chargeStart }

// LastDOD returns the depth of discharge reported at the most recent input
// restore.
func (r *Rack) LastDOD() units.Fraction { return r.lastDOD }

// BatteryDOD returns the battery pack's live depth of discharge.
func (r *Rack) BatteryDOD() units.Fraction { return r.pack.DOD() }

// Depleted reports whether the rack is riding out an input-power loss on an
// empty battery: its IT load is dropped until input returns.
func (r *Rack) Depleted() bool { return !r.inputUp && r.pack.Depleted() }

// UnservedEnergy returns the cumulative IT energy the batteries could not
// supply during input-power losses (load lost to depleted packs).
func (r *Rack) UnservedEnergy() units.Energy { return r.unservedEnergy }

// LoadDropEvents counts the input-power losses that drained the pack dry.
func (r *Rack) LoadDropEvents() int { return r.loadDrops }

// Charging reports whether the rack's batteries are recharging.
func (r *Rack) Charging() bool { return r.pack.Charging() }

// Capped reports whether any controller or guard currently holds an IT-power
// cap on this rack. The event kernel refuses to skip ticks while caps exist:
// cap values are recomputed from per-tick demand, so capped spans are
// irreducibly dense.
func (r *Rack) Capped() bool { return r.hasCap }

// OverrideCurrent applies a manual charging-current override from the
// control plane, clamped to the hardware's [1 A, 5 A] range.
func (r *Rack) OverrideCurrent(i units.Current) {
	r.version++
	r.pack.SetCurrent(charger.ClampOverride(i))
}

// SetObs attaches an observability sink: fail-safe watchdog activations are
// counted under rack.failsafe_activations and journaled to the flight
// recorder. A nil sink detaches instrumentation.
func (r *Rack) SetObs(s *obs.Sink) {
	r.sink = s
	r.cFailSafe = s.Counter("rack.failsafe_activations")
}

// noteFailSafe records one watchdog activation (counter + flight event).
func (r *Rack) noteFailSafe(now time.Duration, cause string) {
	r.failSafeCount++
	r.cFailSafe.Inc()
	if r.sink != nil {
		r.sink.Event(now, "rack/"+r.name, "failsafe", "cause", cause)
	}
}

// SetWatchdog arms the rack's local fail-safe watchdog: whenever a charge
// runs for longer than ttl without any controller contact, the charging
// current reverts to safe (the paper's low-current charging policy), so a
// rack cut off from the control plane can never drive its breaker into a
// sustained overload. A zero ttl disables the watchdog.
func (r *Rack) SetWatchdog(ttl time.Duration, safe units.Current) {
	r.version++
	r.watchdogTTL = ttl
	r.safeCurrent = charger.ClampOverride(safe)
}

// ControllerContact records that the control plane reached this rack (a
// delivered override, cap, or heartbeat) at virtual time now, re-arming the
// watchdog and leaving fail-safe mode.
// ControllerContact deliberately does not bump the rack version: it touches
// only watchdog bookkeeping (lastContact, failSafe), none of which is
// telemetry-visible — any later effect on the setpoint happens inside Step
// or ResumeCharge, which do bump. Keeping heartbeats version-neutral lets
// snapshot caches survive the per-tick keepalive sweep.
func (r *Rack) ControllerContact(now time.Duration) {
	r.lastContact = now
	r.haveContact = true
	r.failSafe = false
}

// FailSafeActive reports whether the watchdog has degraded the rack to the
// safe charging current and no controller contact has arrived since.
func (r *Rack) FailSafeActive() bool { return r.failSafe }

// FailSafeActivations counts the charges the watchdog has demoted to the
// safe current (including charges started while fail-safe was latched).
func (r *Rack) FailSafeActivations() int { return r.failSafeCount }

// Postpone abandons the in-progress charge on control-plane orders,
// recording the undelivered depth of discharge locally so the charge can be
// resumed later — including by a controller that crashed and reconstructed
// its state from agent reads. It is a no-op when not charging.
func (r *Rack) Postpone() {
	if !r.pack.Charging() {
		return
	}
	r.version++
	r.pack.Suspend()
	r.pendingDOD = r.pack.DOD()
}

// PendingDOD returns the depth of discharge still owed to a postponed
// charge, zero if none.
func (r *Rack) PendingDOD() units.Fraction { return r.pendingDOD }

// ResumeCharge restarts a postponed charge at current i. It is a no-op when
// no charge is pending. A rack still in fail-safe mode resumes at the safe
// current regardless of i.
func (r *Rack) ResumeCharge(i units.Current) {
	if r.pendingDOD <= 0 {
		return
	}
	r.version++
	if r.failSafe && i > r.safeCurrent {
		i = r.safeCurrent
		// ResumeCharge carries no tick time; the last controller contact is
		// the deterministic stand-in (resumes follow a contact).
		r.noteFailSafe(r.lastContact, "resume-while-latched")
	}
	r.pack.StartCharge(i, r.pendingDOD)
	r.pendingDOD = 0
}

// ChargeDuration returns how long the most recent completed charge took, or
// (elapsed, false) if a charge is still in progress at now.
func (r *Rack) ChargeDuration(now time.Duration) (time.Duration, bool) {
	if r.pack.Charging() {
		return now - r.chargeStart, false
	}
	if r.chargeEnd == 0 {
		return 0, false
	}
	return r.chargeEnd - r.chargeStart, true
}
