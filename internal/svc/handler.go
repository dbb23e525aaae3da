// The HTTP surface: API routes mounted over the obs observability plane,
// with the supervision middleware — panic recovery, per-request deadlines,
// drain rejection, admission control, and the compute-path circuit breaker —
// applied in one place.
package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"coordcharge/internal/obs"
	"coordcharge/internal/scenario"
)

// Handler returns the daemon's full HTTP surface:
//
//	/api/v1/advise          POST: what-if breaker sizing (AdvisorRequest)
//	/api/v1/run             POST: launch one coordinated run (RunRequest)
//	/api/v1/ingest          POST: NDJSON trace upload (header + frames)
//	/api/v1/status          GET: lifecycle, pool, breaker, traces
//	/debug/service/flight   service journal (admissions, sheds, trips, drains)
//	/metrics, /healthz, /debug/flight[,/digest], /debug/pprof/...
//	                        the obs plane over the resident run's sink
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(s.simSink, s.Health))
	mux.HandleFunc("/debug/service/flight", s.handleServiceFlight)
	mux.Handle("/api/v1/advise", s.supervised(true, s.handleAdvise))
	mux.Handle("/api/v1/run", s.supervised(true, s.handleRun))
	mux.Handle("/api/v1/ingest", s.supervised(false, s.handleIngest))
	mux.Handle("/api/v1/status", s.supervised(false, s.handleStatus))
	return mux
}

// apiError writes the uniform JSON error payload.
func apiError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(errorBody(status, err))
}

// writeJSON writes one 200 response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// supervised wraps an API handler with the service's supervision stack, in
// order: panic recovery (500 + journal — the daemon must survive any handler
// bug), drain rejection (503), a per-request deadline on the context, and —
// for compute routes — pool admission (429 + Retry-After on shed) and the
// circuit breaker (503 + Retry-After while open).
func (s *Service) supervised(compute bool, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.cPanics.Inc()
				s.journal("svc/supervise", "panic",
					"route", r.URL.Path,
					"value", fmt.Sprintf("%v", v),
					"stack", string(debug.Stack()))
				apiError(w, http.StatusInternalServerError,
					fmt.Errorf("svc: internal error (recovered panic)"))
			}
		}()
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			apiError(w, http.StatusServiceUnavailable, errors.New("svc: draining"))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.opt.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		if !compute {
			h(w, r)
			return
		}
		prio := requestPriority(r)
		if err := s.pool.Acquire(ctx, prio); err != nil {
			if errors.Is(err, ErrSaturated) {
				w.Header().Set("Retry-After", retryAfterValue(s.pool.RetryAfter()))
				apiError(w, http.StatusTooManyRequests, err)
				return
			}
			apiError(w, http.StatusGatewayTimeout,
				fmt.Errorf("svc: deadline expired while queued: %w", err))
			return
		}
		defer s.pool.Release()
		wait, probe, err := s.brk.Allow()
		if err != nil {
			w.Header().Set("Retry-After", retryAfterValue(wait))
			apiError(w, http.StatusServiceUnavailable, err)
			return
		}
		// A half-open probe must resolve on every exit path: compute delivers
		// the verdict when it runs, and the deferred release returns the probe
		// slot when the handler exits without one (pre-compute validation
		// failure or a deadline abort) so the breaker cannot wedge half-open.
		defer s.brk.releaseProbe(probe)
		h(w, r)
	})
}

// requestPriority reads the request's admission class from the X-Priority
// header (1 highest .. 3 lowest; default 2). Admission happens before the
// body is read, so the header is the only signal the wait queue orders on;
// the JSON body's priority field is validated but does not affect admission.
func requestPriority(r *http.Request) int {
	if v := r.Header.Get("X-Priority"); v != "" {
		if p, err := strconv.Atoi(v); err == nil && p >= 1 && p <= 3 {
			return p
		}
	}
	return 2
}

// retryAfterValue renders a Retry-After header in whole seconds, floored at 1.
func retryAfterValue(d time.Duration) string {
	sec := int(d / time.Second)
	if sec < 1 {
		sec = 1
	}
	return strconv.Itoa(sec)
}

// compute runs fn under the circuit breaker's accounting: recovered panics
// and internal failures count toward the trip threshold, while deadline
// aborts (the client's doing, not the compute path's) do not. An aborted
// half-open probe is therefore inconclusive — it delivers no verdict, and
// supervised's deferred releaseProbe keeps the breaker half-open so the next
// request probes again.
func (s *Service) compute(fn func() (any, error)) (out any, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.cPanics.Inc()
			s.journal("svc/supervise", "compute-panic",
				"value", fmt.Sprintf("%v", v),
				"stack", string(debug.Stack()))
			err = fmt.Errorf("svc: compute panic: %v", v)
			s.brk.Failure()
		}
	}()
	out, err = fn()
	switch {
	case err == nil:
		s.brk.Success()
	case errors.Is(err, scenario.ErrAborted):
		// Watchdog/deadline abort: the compute path itself is healthy.
	default:
		s.brk.Failure()
	}
	return out, err
}

// finishCompute maps a compute outcome onto the wire.
func (s *Service) finishCompute(w http.ResponseWriter, out any, err error) {
	switch {
	case err == nil:
		writeJSON(w, out)
	case errors.Is(err, scenario.ErrAborted):
		apiError(w, http.StatusGatewayTimeout,
			fmt.Errorf("svc: aborted by run-watchdog (deadline %v): %w",
				s.opt.RequestTimeout, err))
	default:
		apiError(w, http.StatusInternalServerError, err)
	}
}

// handleAdvise serves what-if breaker-sizing queries against the resident
// population (or an explicit one).
func (s *Service) handleAdvise(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		apiError(w, http.StatusMethodNotAllowed, errors.New("svc: POST required"))
		return
	}
	q, err := DecodeAdvisorRequest(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		apiError(w, http.StatusBadRequest, err)
		return
	}
	s.baselinePopulation(q)
	spec, err := q.Spec()
	if err == nil && q.P1+q.P2+q.P3 == 0 {
		err = errors.New("svc: no racks in advisor request and no resident to default from")
	}
	if err != nil {
		apiError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	spec.HardStop = func() bool { return ctx.Err() != nil }
	out, err := s.compute(func() (any, error) {
		adv, err := scenario.Advise(spec)
		if err != nil {
			return nil, err
		}
		return adviceResponse(adv), nil
	})
	s.finishCompute(w, out, err)
}

// AdviceResponse is the wire form of a sizing result.
type AdviceResponse struct {
	Racks            int     `json:"racks"`
	PeakITLoadW      float64 `json:"peak_it_load_w"`
	StaticLimitW     float64 `json:"static_limit_w"`
	MinNoCapLimitW   float64 `json:"min_no_cap_limit_w"`
	MinFullSLALimitW float64 `json:"min_full_sla_limit_w"`
	SavedPowerW      float64 `json:"saved_power_w"`
	SavedCostLowUSD  float64 `json:"saved_cost_low_usd"`
	SavedCostHighUSD float64 `json:"saved_cost_high_usd"`
	OversubRatio     float64 `json:"oversub_ratio"`
}

// adviceResponse flattens an Advice.
func adviceResponse(adv *scenario.Advice) *AdviceResponse {
	return &AdviceResponse{
		Racks:            adv.Spec.NumP1 + adv.Spec.NumP2 + adv.Spec.NumP3,
		PeakITLoadW:      float64(adv.PeakITLoad),
		StaticLimitW:     float64(adv.StaticLimit),
		MinNoCapLimitW:   float64(adv.MinNoCapLimit),
		MinFullSLALimitW: float64(adv.MinFullSLALimit),
		SavedPowerW:      float64(adv.SavedPower),
		SavedCostLowUSD:  adv.SavedCostLowUSD,
		SavedCostHighUSD: adv.SavedCostHighUSD,
		OversubRatio:     adv.OversubRatio,
	}
}

// handleRun launches one coordinated run and returns its summary. The run is
// detached from the resident flight recorder (its events would differ run to
// run under concurrent load) and hard-stopped by the request deadline.
func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		apiError(w, http.StatusMethodNotAllowed, errors.New("svc: POST required"))
		return
	}
	q, err := DecodeRunRequest(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		apiError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := q.Spec()
	if err != nil {
		apiError(w, http.StatusBadRequest, err)
		return
	}
	if q.Trace != "" {
		m, ok := s.lookupTrace(q.Trace)
		if !ok {
			apiError(w, http.StatusNotFound, fmt.Errorf("svc: no ingested trace %q", q.Trace))
			return
		}
		if m.NumRacks() != q.P1+q.P2+q.P3 {
			apiError(w, http.StatusBadRequest,
				fmt.Errorf("svc: trace %q has %d racks, request has %d",
					q.Trace, m.NumRacks(), q.P1+q.P2+q.P3))
			return
		}
		spec.Trace = m
	}
	ctx := r.Context()
	spec.HardStop = func(time.Duration) bool { return ctx.Err() != nil }
	s.mu.Lock()
	s.runsLaunched++
	s.mu.Unlock()
	out, err := s.compute(func() (any, error) {
		res, err := scenario.RunCoordinated(spec)
		if err != nil {
			return nil, err
		}
		return Summarize(res), nil
	})
	s.finishCompute(w, out, err)
}

// handleIngest accepts one NDJSON trace upload; failures quarantine the
// whole stream.
func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		apiError(w, http.StatusMethodNotAllowed, errors.New("svc: POST required"))
		return
	}
	h, m, frames, err := ingestStream(http.MaxBytesReader(w, r.Body, MaxIngestBytes))
	if err != nil {
		s.quarantine(frames, err)
		apiError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.storeTrace(h.Name, m); err != nil {
		apiError(w, http.StatusInsufficientStorage, err)
		return
	}
	s.journal("svc/ingest", "accept",
		"name", h.Name,
		"racks", fmt.Sprintf("%d", h.Racks),
		"frames", fmt.Sprintf("%d", frames))
	writeJSON(w, &IngestResult{
		Name:   h.Name,
		Racks:  h.Racks,
		Frames: frames,
		StepS:  h.StepS,
		SpanS:  float64(frames) * h.StepS,
	})
}

// StatusResponse is the /api/v1/status payload.
type StatusResponse struct {
	State        string          `json:"state"`
	UptimeS      float64         `json:"uptime_s"`
	Resident     *ResidentStatus `json:"resident,omitempty"`
	PoolRunning  int             `json:"pool_running"`
	PoolQueued   int             `json:"pool_queued"`
	PoolShed     int             `json:"pool_shed"`
	Breaker      string          `json:"breaker"`
	BreakerTrips int             `json:"breaker_trips"`
	Traces       []TraceInfo     `json:"traces,omitempty"`
	Quarantined  int             `json:"quarantined"`
	RunsLaunched int             `json:"runs_launched"`
}

// ResidentStatus reports the hosted simulation.
type ResidentStatus struct {
	Racks       int         `json:"racks"`
	TickS       float64     `json:"tick_s"`
	ResumedFrom string      `json:"resumed_from,omitempty"`
	Summary     *RunSummary `json:"summary,omitempty"`
	Error       string      `json:"error,omitempty"`
}

// TraceInfo describes one stored trace.
type TraceInfo struct {
	Name    string  `json:"name"`
	Racks   int     `json:"racks"`
	Samples int     `json:"samples"`
	StepS   float64 `json:"step_s"`
}

// handleStatus reports the daemon's lifecycle and load state.
func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		apiError(w, http.StatusMethodNotAllowed, errors.New("svc: GET required"))
		return
	}
	running, queued, shed := s.pool.Depth()
	bState, trips := s.brk.State()
	resp := &StatusResponse{
		UptimeS:      s.elapsed().Seconds(),
		PoolRunning:  running,
		PoolQueued:   queued,
		PoolShed:     shed,
		Breaker:      bState.String(),
		BreakerTrips: trips,
	}
	s.mu.Lock()
	resp.State = s.state
	resp.Quarantined = s.quarantined
	resp.RunsLaunched = s.runsLaunched
	if s.opt.Resident != nil {
		rs := &ResidentStatus{
			Racks:       s.opt.Resident.P1 + s.opt.Resident.P2 + s.opt.Resident.P3,
			TickS:       time.Duration(s.lastTickNS.Load()).Seconds(),
			ResumedFrom: s.resumedFrom,
			Summary:     s.residentSummary,
		}
		if s.residentErr != nil {
			rs.Error = s.residentErr.Error()
		}
		resp.Resident = rs
	}
	names := make([]string, 0, len(s.traces))
	for name := range s.traces {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := s.traces[name]
		resp.Traces = append(resp.Traces, TraceInfo{
			Name:    name,
			Racks:   m.NumRacks(),
			Samples: m.Samples(),
			StepS:   m.Step().Seconds(),
		})
	}
	s.mu.Unlock()
	writeJSON(w, resp)
}

// handleServiceFlight serves the service journal as NDJSON (?n=, default
// 256), mirroring /debug/flight's shape for the resident recorder.
func (s *Service) handleServiceFlight(w http.ResponseWriter, r *http.Request) {
	n := 256
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			apiError(w, http.StatusBadRequest, fmt.Errorf("svc: bad n %q", q))
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, e := range s.svcSink.Flight.Last(n) {
		if err := enc.Encode(e); err != nil {
			return
		}
	}
}
