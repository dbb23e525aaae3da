// Package svc is the long-running service plane of the coordinated-charging
// reproduction: a supervised daemon (cmd/coordd) hosting a resident fleet
// simulation while serving concurrent what-if advisor queries, on-demand
// runs, and validated trace ingestion over the obs HTTP surface.
//
// The package turns the batch simulator into something operable:
//
//   - Supervision. Every request runs under a deadline-carrying context;
//     panics in handlers or compute are recovered into 500s and journaled; a
//     run-watchdog aborts simulations that stop making progress instead of
//     letting them pin a worker forever.
//
//   - Admission control. A bounded worker pool fronted by a bounded,
//     deficit-aged wait queue (the internal/storm aging idiom applied to API
//     requests) sheds excess load with 429 + Retry-After; a circuit breaker
//     around the planner/advisor path trips on repeated failures and
//     half-opens after a cooldown, so a persistent fault degrades into fast
//     rejections instead of a pile-up.
//
//   - Validated ingestion. Request specs and streamed trace frames are
//     schema- and physics-checked before they can touch a simulation;
//     malformed input is quarantined and counted, never simulated.
//
//   - Lifecycle. SIGTERM drains: in-flight work finishes, the resident run
//     writes a final checkpoint, and the process exits cleanly. On restart
//     the daemon auto-discovers the latest verified checkpoint and resumes
//     the resident run bit-exactly, falling back to the previous-good
//     generation when the newest one fails digest verification.
//
// Determinism boundary: the resident simulation journals to a digest-bearing
// flight recorder exactly as a batch run would — same events, same digest.
// Service-plane events (admissions, sheds, breaker trips, drains) are
// wall-clock phenomena, so they go to a *separate* recorder sharing the same
// metrics registry; the resident digest stays reproducible under arbitrary
// API load.
package svc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"coordcharge/internal/ckpt"
	"coordcharge/internal/obs"
	"coordcharge/internal/scenario"
	"coordcharge/internal/trace"
)

// Service lifecycle states.
const (
	// StateStarting covers construction until the resident run's first tick.
	StateStarting = "starting"
	// StateResuming marks a restart that found a checkpoint and is replaying
	// to the checkpoint boundary.
	StateResuming = "resuming"
	// StateRunning means the resident simulation is ticking.
	StateRunning = "running"
	// StateIdle means the resident run completed (or none was configured);
	// the API plane keeps serving.
	StateIdle = "idle"
	// StateDegraded means the resident run failed, was aborted by the
	// watchdog, or could not resume; the API plane keeps serving.
	StateDegraded = "degraded"
	// StateDraining means shutdown has begun: new work is rejected while
	// in-flight work finishes and the resident run checkpoints.
	StateDraining = "draining"
	// StateStopped means drain completed.
	StateStopped = "stopped"
)

// ResidentCheckpointFile is the checkpoint name inside Options.CheckpointDir;
// the previous generation lives beside it at ckpt.PrevPath of this name.
const ResidentCheckpointFile = "resident.ckpt"

// Options configures a Service.
type Options struct {
	// Resident, when non-nil, is the fleet simulation the daemon hosts. It
	// is held to Validate and the service caps like any API run request, and
	// also provides the default population for advisor queries that omit
	// rack counts.
	Resident *RunRequest
	// Pace slaves the resident run's virtual time to the wall clock at this
	// ratio (e.g. 60 = one virtual minute per wall second); 0 free-runs.
	Pace float64
	// CheckpointDir, when non-empty, holds the resident run's cadence
	// checkpoints; restarts auto-resume from it.
	CheckpointDir string
	// CheckpointEvery overrides the cadence (default: scenario's 5 min of
	// virtual time).
	CheckpointEvery time.Duration
	// Fresh ignores any existing checkpoint and starts the resident run
	// from scratch.
	Fresh bool
	// Pool bounds request admission; Breaker guards the compute path.
	Pool    PoolConfig
	Breaker BreakerConfig
	// RequestTimeout is the per-request deadline (default 60 s); the
	// run-watchdog aborts request simulations that outlive it.
	RequestTimeout time.Duration
	// WatchdogTTL is how long the resident run may go without completing a
	// tick before the stall watchdog aborts it and marks the service
	// degraded (default 2 min; negative disables).
	WatchdogTTL time.Duration
	// FlightCap sizes both flight recorders (default obs.DefaultFlightCap).
	FlightCap int
	// Clock injects time for tests; zero uses the wall clock.
	Clock Clock
}

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.WatchdogTTL == 0 {
		o.WatchdogTTL = 2 * time.Minute
	}
	if o.FlightCap <= 0 {
		o.FlightCap = obs.DefaultFlightCap
	}
	return o
}

// Service is the daemon core. Construct with New, serve Handler over an
// obs-plane server, stop with Shutdown.
type Service struct {
	opt     Options
	clock   Clock
	simSink *obs.Sink // resident run's digest-bearing flight recorder + shared registry
	svcSink *obs.Sink // service journal: same registry, separate recorder
	pool    *pool
	brk     *breaker
	started time.Time

	draining   atomic.Bool
	drainFlag  atomic.Bool  // resident Interrupt: checkpoint and stop
	abortFlag  atomic.Bool  // resident HardStop: watchdog abort
	lastTickNS atomic.Int64 // virtual time of the tick the resident run has reached
	lastBeatNS atomic.Int64 // elapsed() when the resident run reached it (watchdog heartbeat)

	residentDone chan struct{} // closed when the resident goroutine exits
	watchdogStop chan struct{} // closed to retire the stall watchdog
	drainOnce    sync.Once

	mu              sync.Mutex
	state           string                         // guarded by mu
	resumedFrom     string                         // guarded by mu
	residentSummary *RunSummary                    // guarded by mu
	residentErr     error                          // guarded by mu
	traces          map[string]*trace.Materialized // guarded by mu
	quarantined     int                            // guarded by mu
	runsLaunched    int                            // guarded by mu

	cQuarantined, cPanics *obs.Counter
}

// New builds and starts a Service: the resident simulation (if configured)
// begins ticking in its own goroutine, resuming from the newest verified
// checkpoint unless Options.Fresh. Synchronous errors cover only invalid
// configuration; resident-run failures surface through Status as
// StateDegraded, because a daemon that cannot resume must still come up and
// serve its API plane.
func New(opt Options) (*Service, error) {
	opt = opt.withDefaults()
	if opt.Resident != nil {
		if err := opt.Resident.validateCapped(); err != nil {
			return nil, fmt.Errorf("svc: resident config: %w", err)
		}
		if opt.Resident.Trace != "" {
			return nil, fmt.Errorf("svc: resident config cannot reference an ingested trace")
		}
	}
	s := &Service{
		opt:          opt,
		clock:        opt.Clock.withDefaults(),
		simSink:      obs.NewSink(opt.FlightCap),
		state:        StateStarting,
		traces:       map[string]*trace.Materialized{},
		residentDone: make(chan struct{}),
		watchdogStop: make(chan struct{}),
	}
	s.started = s.clock.Now()
	s.svcSink = &obs.Sink{Reg: s.simSink.Reg, Flight: obs.NewRecorder(opt.FlightCap)}
	s.pool = newPool(opt.Pool, s.clock, s.svcSink, s.elapsed)
	s.brk = newBreaker(opt.Breaker, s.clock, s.svcSink, s.elapsed)
	s.cQuarantined = s.svcSink.Counter("svc.quarantined")
	s.cPanics = s.svcSink.Counter("svc.panics")

	if opt.Resident == nil {
		s.setState(StateIdle)
		close(s.residentDone)
		return s, nil
	}
	spec, err := opt.Resident.Spec()
	if err != nil {
		return nil, fmt.Errorf("svc: resident config: %w", err)
	}
	spec.Obs = s.simSink
	if opt.CheckpointDir != "" {
		path := filepath.Join(opt.CheckpointDir, ResidentCheckpointFile)
		spec.Checkpoint = path
		spec.CheckpointEvery = opt.CheckpointEvery
		if !opt.Fresh && checkpointPresent(path) {
			spec.Resume = path
			s.setState(StateResuming)
			s.journal("svc/lifecycle", "resume-discovered", "path", path)
		}
	}
	spec.Interrupt = s.drainFlag.Load
	spec.HardStop = s.residentHardStop(spec.Step)
	go s.runResident(spec)
	if opt.WatchdogTTL > 0 {
		go s.stallWatchdog(opt.WatchdogTTL) //coordvet:detached process-lifetime watchdog; exits with the daemon
	}
	return s, nil
}

// checkpointPresent reports whether path or its previous generation exists —
// the auto-resume discovery probe. Verification happens at restore time,
// where ckpt.ReadFileFallback prefers the latest generation and falls back
// to the previous-good one.
func checkpointPresent(path string) bool {
	if _, err := os.Stat(path); err == nil {
		return true
	}
	_, err := os.Stat(ckpt.PrevPath(path))
	return err == nil
}

// elapsed is the service journal's timestamp: wall time since construction.
// Service events are wall-clock phenomena, so unlike the resident flight
// recorder these stamps are not reproducible — which is why they live in a
// separate recorder.
func (s *Service) elapsed() time.Duration { return s.clock.Now().Sub(s.started) }

// journal records one service-plane event.
func (s *Service) journal(comp, kind string, kv ...string) {
	if s.svcSink != nil {
		s.svcSink.Event(s.elapsed(), comp, kind, kv...)
	}
}

// setState transitions the lifecycle state (draining and stopped are sticky:
// a resident run finishing mid-drain must not flip the service back to idle).
func (s *Service) setState(state string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateStopped || (s.state == StateDraining && state != StateStopped) {
		return
	}
	s.state = state
}

// State returns the lifecycle state.
func (s *Service) State() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// residentHardStop is the resident run's HardStop: it reports the stall
// watchdog's abort, and because the run polls it before every tick (skipped
// ticks included) it also publishes tick progress (virtual time for status,
// wall time for the stall watchdog) and applies pacing. Only a poll that
// moves virtual time past the previous one counts as a tick: a pre-roll
// polls the window start over and over and a resume's replay does not poll,
// so neither paces nor arms the watchdog. Each counted tick waits one tick's
// share of the wall clock.
func (s *Service) residentHardStop(step time.Duration) func(time.Duration) bool {
	var wait time.Duration
	if s.opt.Pace > 0 {
		if step == 0 {
			step = 3 * time.Second // RunCoordinated's default tick
		}
		wait = time.Duration(float64(step) / s.opt.Pace)
	}
	last, running := time.Duration(-1), false
	return func(now time.Duration) bool {
		if last >= 0 && now > last {
			s.lastTickNS.Store(int64(now))
			s.lastBeatNS.Store(int64(s.elapsed()))
			if !running {
				running = true
				s.setState(StateRunning)
			}
			if wait > 0 {
				s.clock.Sleep(wait)
			}
		}
		last = now
		return s.abortFlag.Load()
	}
}

// runResident hosts the resident simulation for its whole life.
func (s *Service) runResident(spec scenario.CoordSpec) {
	defer close(s.residentDone)
	s.journal("svc/lifecycle", "resident-start",
		"racks", fmt.Sprintf("%d", spec.NumP1+spec.NumP2+spec.NumP3),
		"resume", spec.Resume)
	res, err := scenario.RunCoordinated(spec)
	s.lastBeatNS.Store(int64(s.elapsed()))
	if err != nil {
		s.mu.Lock()
		s.residentErr = err
		s.mu.Unlock()
		kind := "resident-failed"
		if errors.Is(err, scenario.ErrAborted) {
			kind = "resident-aborted"
		} else if spec.Resume != "" {
			kind = "resident-resume-failed"
		}
		s.journal("svc/lifecycle", kind, "err", err.Error())
		s.setState(StateDegraded)
		return
	}
	if spec.Resume != "" {
		s.mu.Lock()
		s.resumedFrom = spec.Resume
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.residentSummary = Summarize(res)
	s.mu.Unlock()
	if res.Interrupted {
		s.journal("svc/lifecycle", "resident-checkpointed", "path", spec.Checkpoint)
		return // drain in progress; Shutdown owns the state transition
	}
	s.journal("svc/lifecycle", "resident-complete",
		"transition_s", fmt.Sprintf("%.0f", res.TransitionLength.Seconds()))
	s.setState(StateIdle)
}

// stallWatchdog aborts a resident run that stops completing ticks. A stall
// here means the simulation itself is wedged (or pacing is configured far
// slower than the TTL — an operator error worth surfacing the same way);
// aborting it frees the goroutine and marks the service degraded rather than
// letting a dead resident look healthy forever.
func (s *Service) stallWatchdog(ttl time.Duration) {
	for {
		s.clock.Sleep(ttl / 4)
		select {
		case <-s.watchdogStop:
			return
		case <-s.residentDone:
			return
		default:
		}
		if s.draining.Load() {
			return
		}
		last := time.Duration(s.lastBeatNS.Load())
		if last == 0 {
			// Still constructing or replaying toward a checkpoint boundary
			// (neither moves the virtual time HardStop sees); the first
			// live tick arms the heartbeat.
			continue
		}
		if s.elapsed()-last > ttl {
			s.journal("svc/watchdog", "resident-stalled",
				"last_beat_s", fmt.Sprintf("%.1f", last.Seconds()),
				"ttl_s", fmt.Sprintf("%.0f", ttl.Seconds()))
			s.abortFlag.Store(true)
			return
		}
	}
}

// Shutdown drains the service: new requests are rejected with 503, the
// resident run writes a final checkpoint at its next tick boundary, and the
// call returns when the resident goroutine has exited (hard-aborting it if
// ctx expires first). Idempotent; later calls re-wait on the same drain.
func (s *Service) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	s.state = StateDraining
	s.mu.Unlock()
	s.drainOnce.Do(func() {
		s.journal("svc/lifecycle", "drain-begin")
		close(s.watchdogStop)
	})
	s.drainFlag.Store(true)
	var err error
	select {
	case <-s.residentDone:
	case <-ctx.Done():
		// The graceful window closed: hard-abort the resident run. The last
		// cadence checkpoint (plus its previous generation) is still on
		// disk, so restart loses at most one cadence interval.
		s.abortFlag.Store(true)
		<-s.residentDone
		err = fmt.Errorf("svc: drain deadline expired; resident run hard-aborted: %w", ctx.Err())
	}
	s.mu.Lock()
	s.state = StateStopped
	s.mu.Unlock()
	s.journal("svc/lifecycle", "drain-complete")
	return err
}

// SimSink exposes the resident run's digest-bearing observability sink (the
// one obs.Handler serves at /metrics and /debug/flight).
func (s *Service) SimSink() *obs.Sink { return s.simSink }

// ServiceFlight exposes the service journal's recorder (served at
// /debug/service/flight).
func (s *Service) ServiceFlight() *obs.Recorder { return s.svcSink.Flight }

// Health supplies the /healthz payload.
func (s *Service) Health() map[string]any {
	state := s.State()
	running, queued, shed := s.pool.Depth()
	bState, trips := s.brk.State()
	return map[string]any{
		"state":           state,
		"resident_tick_s": time.Duration(s.lastTickNS.Load()).Seconds(),
		"pool_running":    running,
		"pool_queued":     queued,
		"pool_shed":       shed,
		"breaker":         bState.String(),
		"breaker_trips":   trips,
	}
}

// storeTrace admits one validated upload into the named-trace store.
func (s *Service) storeTrace(name string, m *trace.Materialized) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.traces[name]; !ok && len(s.traces) >= maxTraceNames {
		return fmt.Errorf("svc: trace store full (%d names)", maxTraceNames)
	}
	s.traces[name] = m
	return nil
}

// lookupTrace resolves a run request's named trace.
func (s *Service) lookupTrace(name string) (*trace.Materialized, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.traces[name]
	return m, ok
}

// quarantine counts and journals one rejected upload.
func (s *Service) quarantine(frames int, err error) {
	s.mu.Lock()
	s.quarantined++
	n := s.quarantined
	s.mu.Unlock()
	s.cQuarantined.Inc()
	s.journal("svc/ingest", "quarantine",
		"frames_read", fmt.Sprintf("%d", frames),
		"total", fmt.Sprintf("%d", n),
		"err", err.Error())
}

// baselinePopulation fills an advisor query's zero rack counts from the
// resident configuration, so "size my current fleet" is the zero-value
// query.
func (s *Service) baselinePopulation(q *AdvisorRequest) {
	if q.P1+q.P2+q.P3 > 0 || s.opt.Resident == nil {
		return
	}
	q.P1, q.P2, q.P3 = s.opt.Resident.P1, s.opt.Resident.P2, s.opt.Resident.P3
	if q.AvgDOD == 0 {
		q.AvgDOD = s.opt.Resident.AvgDOD
	}
}
