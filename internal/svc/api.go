// Request types, decoding and validation. RunRequest and AdvisorRequest are
// the only descriptions of a coordinated run and of an advisor query: the
// HTTP API, coordsim, coordd, cmd/advisor and experiment files all decode or
// bind into them. Spec validates as it lowers — ranges, NaN/Inf, every
// converted duration — so a request that validates also sets up. The
// decoders are strict (unknown fields, trailing data and, through the HTTP
// layer's MaxBytesReader, oversized bodies rejected) and apply the service
// caps on top, so hostile input becomes a 4xx, never a panic or an absurd
// resident workload.
package svc

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"time"

	"coordcharge/internal/charger"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/faults"
	"coordcharge/internal/grid"
	"coordcharge/internal/scenario"
	"coordcharge/internal/storm"
	"coordcharge/internal/units"
)

// Service caps. They bound what one API request or the resident may ask of
// the daemon, not what the simulator could run: coordsim and experiment
// files are held to Validate alone.
const (
	// MaxRequestBytes bounds an advisor/run request body.
	MaxRequestBytes = 1 << 20
	// MaxIngestBytes bounds a streamed trace upload.
	MaxIngestBytes = 64 << 20
	// MaxRacks bounds the rack population a single API request may simulate.
	MaxRacks = 1024
	// MaxOutage bounds a requested grid-event length.
	MaxOutage = 24 * time.Hour
	// MaxHorizon bounds a requested post-restore charge horizon.
	MaxHorizon = 48 * time.Hour
	// MaxLimitMW bounds a requested MSB breaker limit.
	MaxLimitMW = 1000.0
)

// maxSeconds is the longest duration field a request may carry: whole
// seconds that still fit a time.Duration.
const maxSeconds = float64(math.MaxInt64 / int64(time.Second))

// decodeStrict unmarshals exactly one JSON value from r into v, rejecting
// unknown fields and trailing garbage.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("svc: decode: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("svc: trailing data after request body")
	}
	return nil
}

// finite rejects the float specials JSON itself cannot express but a buggy
// or hostile encoder might smuggle through scientific notation overflow.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("svc: %s is not finite", name)
	}
	return nil
}

// inRange checks that a field is finite and within [lo, hi].
func inRange(name string, v, lo, hi float64) error {
	if err := finite(name, v); err != nil {
		return err
	}
	if v < lo || v > hi {
		return fmt.Errorf("svc: %s %g out of [%g, %g]", name, v, lo, hi)
	}
	return nil
}

// parseChoices checks the choice fields both request types carry: the
// priority, and the mode and charger names (an empty policy leaves the
// scenario default, variable).
func parseChoices(mode, policy string, priority int) (dynamo.Mode, charger.Policy, error) {
	if priority < 0 || priority > 3 {
		return 0, nil, fmt.Errorf("svc: priority %d out of [1, 3]", priority)
	}
	m, err := dynamo.ParseMode(mode)
	if err != nil || policy == "" {
		return m, nil, err
	}
	p, err := charger.ByName(policy)
	return m, p, err
}

// rackCap applies MaxRacks, per class first so the sum cannot wrap.
func rackCap(p1, p2, p3 int) error {
	if p1 > MaxRacks || p2 > MaxRacks || p3 > MaxRacks || p1+p2+p3 > MaxRacks {
		return fmt.Errorf("svc: %d/%d/%d racks exceed the per-request cap of %d", p1, p2, p3, MaxRacks)
	}
	return nil
}

// AdvisorRequest is a what-if capacity query: size the breaker for this
// population and strategy. Zero-valued fields take the resident baseline's
// population (when a resident sim is configured) or the documented defaults.
type AdvisorRequest struct {
	P1           int     `json:"p1"`
	P2           int     `json:"p2"`
	P3           int     `json:"p3"`
	AvgDOD       float64 `json:"avg_dod"`
	Mode         string  `json:"mode"`
	Policy       string  `json:"policy"`
	Seed         int64   `json:"seed"`
	ResolutionKW float64 `json:"resolution_kw"`
	// Priority mirrors the X-Priority admission header (1 highest .. 3
	// lowest). Admission happens before the body is decoded, so only the
	// header orders the wait queue; this field is validated so malformed
	// values fail fast, but it does not affect admission.
	Priority int `json:"priority"`
}

// DecodeAdvisorRequest strictly decodes one advisor request and applies
// Validate and the service's rack cap.
func DecodeAdvisorRequest(r io.Reader) (*AdvisorRequest, error) {
	var q AdvisorRequest
	if err := decodeStrict(r, &q); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := rackCap(q.P1, q.P2, q.P3); err != nil {
		return nil, err
	}
	return &q, nil
}

// Validate reports whether the request lowers; see Spec.
func (q *AdvisorRequest) Validate() error {
	_, err := q.Spec()
	return err
}

// Spec validates the request and lowers it onto an AdvisorSpec. Zero rack
// counts pass: the service fills them from the resident baseline first.
func (q *AdvisorRequest) Spec() (scenario.AdvisorSpec, error) {
	if q.P1 < 0 || q.P2 < 0 || q.P3 < 0 {
		return scenario.AdvisorSpec{}, errors.New("svc: negative rack count")
	}
	if err := inRange("avg_dod", q.AvgDOD, 0, 1); err != nil {
		return scenario.AdvisorSpec{}, err
	}
	// Below a watt the limit grid's step count overflows int64.
	if err := inRange("resolution_kw", q.ResolutionKW, 0, 1000); err != nil || (q.ResolutionKW != 0 && q.ResolutionKW < 0.001) {
		return scenario.AdvisorSpec{}, fmt.Errorf("svc: resolution_kw %g must be 0 (the default) or in [0.001, 1000]", q.ResolutionKW)
	}
	mode, pol, err := parseChoices(q.Mode, q.Policy, q.Priority)
	if err != nil {
		return scenario.AdvisorSpec{}, err
	}
	return scenario.AdvisorSpec{
		NumP1: q.P1, NumP2: q.P2, NumP3: q.P3,
		AvgDOD:      units.Fraction(q.AvgDOD),
		Mode:        mode,
		LocalPolicy: pol,
		Seed:        q.Seed,
		Resolution:  units.Power(q.ResolutionKW) * units.Kilowatt,
	}, nil
}

// Flags binds the query to fs under cmd/advisor's flag names; each flag's
// default is the receiver's current value.
func (q *AdvisorRequest) Flags(fs *flag.FlagSet) {
	fleetFlags(fs, &q.P1, &q.P2, &q.P3, &q.Seed, &q.AvgDOD, &q.Mode, &q.Policy)
	fs.Float64Var(&q.ResolutionKW, "res", q.ResolutionKW, "limit search resolution in kW")
}

// RunRequest describes one coordinated run. Zero-valued fields take the
// scenario defaults.
type RunRequest struct {
	P1        int     `json:"p1"`
	P2        int     `json:"p2"`
	P3        int     `json:"p3"`
	Seed      int64   `json:"seed"`
	LimitMW   float64 `json:"limit_mw"`
	AvgDOD    float64 `json:"avg_dod"`
	Mode      string  `json:"mode"`
	Policy    string  `json:"policy"`
	OutageS   float64 `json:"outage_s"`
	Admission bool    `json:"admission"`
	Guard     bool    `json:"guard"`
	WatchdogS float64 `json:"watchdog_s"`
	// LatencyS is the override command-settling latency (the prototype
	// measured ~20 s, Fig 11).
	LatencyS float64 `json:"latency_s"`
	// Distributed selects the message-passing control plane.
	Distributed bool `json:"distributed"`
	// Faults is a faults.ParseSpec string ("", "off", "default", or k=v
	// overrides).
	Faults string `json:"faults"`
	// Grid is a grid.ParseSpec string arming the grid signal plane ("" or
	// "off" disables; "on", or semicolon key=value elements — cap/price/
	// carbon series, droop/dr/capshrink events, defer and shave thresholds).
	Grid string `json:"grid"`
	// GridCap, GridPrice and GridCarbon are series a caller loaded from
	// files, attached to Grid before validation (grid.ParseSpecWith); the
	// wire cannot set them.
	GridCap, GridPrice, GridCarbon *grid.Series `json:"-"`
	// Trace names a trace to replay instead of the synthetic generator; its
	// rack count must equal p1+p2+p3. Each entry point resolves it: on the
	// API it names an ingested trace, in coordsim flags and experiment files
	// it is a CSV path. Spec leaves it to the caller.
	Trace      string  `json:"trace"`
	StepS      float64 `json:"step_s"`
	MaxChargeS float64 `json:"max_charge_s"`
	SampleS    float64 `json:"sample_s"`
	// Priority: see AdvisorRequest.Priority — validated, admission uses the
	// X-Priority header only.
	Priority int `json:"priority"`
}

// PaperRun returns the paper's §V-B evaluation run — the 316-rack
// production mix at the actual 2.5 MW limit and medium discharge, seed 1 —
// which coordsim and coordd pre-fill their flags with.
func PaperRun() RunRequest {
	return RunRequest{
		P1: 89, P2: 142, P3: 85, Seed: 1,
		LimitMW: 2.5, AvgDOD: 0.5, Mode: "priority-aware", Policy: "variable",
	}
}

// DecodeRunRequest strictly decodes one run request and applies Validate and
// the service caps.
func DecodeRunRequest(r io.Reader) (*RunRequest, error) {
	var q RunRequest
	if err := decodeStrict(r, &q); err != nil {
		return nil, err
	}
	if err := q.validateCapped(); err != nil {
		return nil, err
	}
	return &q, nil
}

// Validate reports whether the request lowers; see Spec.
func (q *RunRequest) Validate() error {
	_, err := q.Spec()
	return err
}

// validateCapped is Validate plus the service caps: the check for what svc
// itself runs, API requests and the resident.
func (q *RunRequest) validateCapped() error {
	if err := q.Validate(); err != nil {
		return err
	}
	if err := rackCap(q.P1, q.P2, q.P3); err != nil {
		return err
	}
	if q.LimitMW > MaxLimitMW {
		return fmt.Errorf("svc: limit_mw %g exceeds %g", q.LimitMW, MaxLimitMW)
	}
	if d := time.Duration(q.OutageS * float64(time.Second)); d > MaxOutage {
		return fmt.Errorf("svc: outage_s %g exceeds %v", q.OutageS, MaxOutage)
	}
	if d := time.Duration(q.MaxChargeS * float64(time.Second)); d > MaxHorizon {
		return fmt.Errorf("svc: max_charge_s %g exceeds %v", q.MaxChargeS, MaxHorizon)
	}
	return nil
}

// Spec validates the request and lowers it onto a CoordSpec. It is the one
// place that arms the degraded-mode machinery for a lossy control plane.
func (q *RunRequest) Spec() (scenario.CoordSpec, error) {
	spec := scenario.CoordSpec{
		NumP1: q.P1, NumP2: q.P2, NumP3: q.P3,
		Seed:        q.Seed,
		MSBLimit:    units.Power(q.LimitMW) * units.Megawatt,
		AvgDOD:      units.Fraction(q.AvgDOD),
		Distributed: q.Distributed,
	}
	if q.P1 < 0 || q.P2 < 0 || q.P3 < 0 {
		return spec, errors.New("svc: negative rack count")
	}
	if q.P1+q.P2+q.P3 <= 0 {
		return spec, errors.New("svc: no racks in run request")
	}
	if err := inRange("limit_mw", q.LimitMW, 0, math.Inf(1)); err != nil {
		return spec, err
	}
	if err := inRange("avg_dod", q.AvgDOD, 0, 1); err != nil {
		return spec, err
	}
	// Past maxSeconds a conversion would wrap negative. A tick or a command
	// latency (seconds in Fig 11) past an hour is outside the model, and the
	// hour keeps an override's due time, now+latency, from wrapping too.
	for _, f := range []struct {
		name   string
		v, max float64
		dst    *time.Duration
	}{
		{"outage_s", q.OutageS, maxSeconds, &spec.OutageLen}, {"watchdog_s", q.WatchdogS, maxSeconds, &spec.WatchdogTTL},
		{"latency_s", q.LatencyS, 3600, &spec.CommandLatency}, {"step_s", q.StepS, 3600, &spec.Step},
		{"max_charge_s", q.MaxChargeS, maxSeconds, &spec.MaxChargeDuration}, {"sample_s", q.SampleS, maxSeconds, &spec.SampleEvery},
	} {
		if err := inRange(f.name, f.v, 0, f.max); err != nil {
			return spec, err
		}
		*f.dst = time.Duration(f.v * float64(time.Second))
	}
	// Checked after conversion: an outage under a nanosecond is no outage.
	if spec.OutageLen == 0 && q.AvgDOD == 0 {
		return spec, errors.New("svc: one of avg_dod or outage_s is required")
	}
	// Sub-second ticks or samples would size the run's buffers past memory.
	if (q.StepS != 0 && q.StepS < 1) || (q.SampleS != 0 && q.SampleS < 1) {
		return spec, fmt.Errorf("svc: step_s %g and sample_s %g must each be 0 (the default) or at least 1", q.StepS, q.SampleS)
	}
	var err error
	if spec.Mode, spec.LocalPolicy, err = parseChoices(q.Mode, q.Policy, q.Priority); err != nil {
		return spec, err
	}
	if spec.Faults, err = faults.ParseSpec(q.Faults); err != nil {
		return spec, err
	}
	if spec.Grid, err = grid.ParseSpecWith(q.Grid, q.GridCap, q.GridPrice, q.GridCarbon); err != nil {
		return spec, err
	}
	if q.Admission {
		c := storm.Default()
		spec.Storm = &c
	}
	if q.Guard {
		g := storm.DefaultGuardConfig()
		spec.Guard = &g
	}
	if spec.Faults.Enabled() || spec.WatchdogTTL > 0 {
		// A lossy control plane needs the degraded-mode machinery armed:
		// staleness detection and override retransmission.
		spec.StaleAfter = 10 * time.Second
		spec.Retry = dynamo.DefaultRetryPolicy()
	}
	return spec, nil
}

// Flags binds the request to fs under coordsim's flag names (shared with
// coordd's resident); each flag's default is the receiver's current value.
// Durations take Go's duration syntax ("90s", "2m").
func (q *RunRequest) Flags(fs *flag.FlagSet) {
	fleetFlags(fs, &q.P1, &q.P2, &q.P3, &q.Seed, &q.AvgDOD, &q.Mode, &q.Policy)
	fs.Float64Var(&q.LimitMW, "limit", q.LimitMW, "MSB power limit in MW")
	fs.Var((*secondsFlag)(&q.OutageS), "storm", "site-wide outage `duration` (grid-event storm; replaces the -dod-derived transition length)")
	fs.BoolVar(&q.Admission, "admission", q.Admission, "arm recharge-storm admission control (priority-aware waves under measured headroom)")
	fs.BoolVar(&q.Guard, "guard", q.Guard, "arm the last-line breaker guard (sheds charging current before the trip window closes)")
	fs.Var((*secondsFlag)(&q.WatchdogS), "watchdog", "rack fail-safe watchdog TTL `duration` (0 disables)")
	fs.Var((*secondsFlag)(&q.LatencyS), "latency", "override command-settling latency `duration` (the prototype measured ~20s)")
	fs.BoolVar(&q.Distributed, "distributed", q.Distributed, "run on the message-passing control plane")
	fs.StringVar(&q.Faults, "faults", q.Faults, "control-plane fault injection — off, default, or a k=v list overriding the defaults (seed, telloss, telstale, cmdloss, cmddup, cmddelay, cmddelaymax, agentmtbf, agentmttr, ctlmtbf, ctlmttr)")
	fs.StringVar(&q.Grid, "grid", q.Grid, "grid signal plane — off, on, or semicolon-separated key=value elements (cap=205kW@0,143.5kW@10m; price=40@0,95@6h; synthprice=seed:step:horizon:base:swing; droop/dr/capshrink events as at+dur(frac); deferprice/defercarbon/maxdefer; shave/shaveprice/shavedod/shaveprio)")
}

// fleetFlags binds the flags both request types share.
func fleetFlags(fs *flag.FlagSet, p1, p2, p3 *int, seed *int64, dod *float64, mode, policy *string) {
	fs.IntVar(p1, "p1", *p1, "P1 rack count")
	fs.IntVar(p2, "p2", *p2, "P2 rack count")
	fs.IntVar(p3, "p3", *p3, "P3 rack count")
	fs.Int64Var(seed, "seed", *seed, "trace seed")
	fs.Float64Var(dod, "dod", *dod, "target average depth of discharge")
	fs.StringVar(mode, "mode", *mode, "none, global, priority-aware, or postpone")
	fs.StringVar(policy, "policy", *policy, "local charger (original or variable)")
}

// secondsFlag binds a seconds field to a duration flag.
type secondsFlag float64

func (s *secondsFlag) String() string {
	return time.Duration(float64(*s) * float64(time.Second)).String()
}

func (s *secondsFlag) Set(v string) error {
	d, err := time.ParseDuration(v)
	if err != nil {
		return err
	}
	*s = secondsFlag(d.Seconds())
	return nil
}

// RunSummary condenses a CoordResult for the wire.
type RunSummary struct {
	TransitionS    float64        `json:"transition_s"`
	AvgDOD         float64        `json:"avg_dod"`
	PeakPowerW     float64        `json:"peak_power_w"`
	MaxCappingW    float64        `json:"max_capping_w"`
	SLAMet         map[string]int `json:"sla_met"`
	Racks          map[string]int `json:"racks"`
	LastChargeS    float64        `json:"last_charge_done_s"`
	Tripped        []string       `json:"tripped,omitempty"`
	UnservedWh     float64        `json:"unserved_wh"`
	StormAdmitted  int            `json:"storm_admitted,omitempty"`
	StormMaxQueue  int            `json:"storm_max_queue,omitempty"`
	GuardFires     int            `json:"guard_fires,omitempty"`
	FailSafeEvents int            `json:"fail_safe_events,omitempty"`
	// Grid-plane activity (zero-valued and omitted when the grid plane is
	// off).
	GridCapChanges int     `json:"grid_cap_changes,omitempty"`
	GridDeferTicks int     `json:"grid_defer_ticks,omitempty"`
	GridShavedWh   float64 `json:"grid_shaved_wh,omitempty"`
	GridViolations int     `json:"grid_violation_ticks,omitempty"`
	Interrupted    bool    `json:"interrupted,omitempty"`
}

// Summarize flattens a coordinated result into its wire form.
func Summarize(res *scenario.CoordResult) *RunSummary {
	s := &RunSummary{
		TransitionS: res.TransitionLength.Seconds(),
		AvgDOD:      float64(res.AvgDOD),
		PeakPowerW:  float64(res.PeakPower),
		MaxCappingW: float64(res.Metrics.MaxCapping),
		SLAMet:      map[string]int{},
		Racks:       map[string]int{},
		LastChargeS: res.LastChargeDone.Seconds(),
		Tripped:     res.Tripped,
		UnservedWh:  float64(res.UnservedEnergy) / 3600,
		Interrupted: res.Interrupted,
	}
	for p, c := range res.SLAMet {
		s.SLAMet[p.String()] = c
	}
	for p, c := range res.Racks {
		s.Racks[p.String()] = c
	}
	s.StormAdmitted = res.Storm.Admitted
	s.StormMaxQueue = res.Storm.MaxQueue
	s.GuardFires = res.Guard.Fires
	s.FailSafeEvents = res.FailSafeActivations
	s.GridCapChanges = res.Grid.CapChanges
	s.GridDeferTicks = res.Grid.DeferTicks
	s.GridShavedWh = float64(res.Grid.ShavedEnergy) / 3600
	s.GridViolations = res.Grid.ViolationTicks
	return s
}

// errorBody renders the uniform error payload.
func errorBody(status int, err error) []byte {
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(map[string]any{"error": err.Error(), "status": status})
	return buf.Bytes()
}
