// Package grid is the grid signal plane: it models the electric utility
// side of the meter that the paper abstracts away as a fixed breaker limit.
// The related work treats the datacenter as a grid actor — OpenG2G
// coordinates datacenter power behavior against grid runtime signals, and
// the connect-and-manage interconnection studies show BBU fleets riding out
// time-varying utility caps — and this package is the substrate for those
// scenarios: piecewise time series for the interconnection cap, energy
// price, and carbon intensity; a grid event stream (frequency-droop events,
// demand-response windows, cap shrink/restore) that drives the existing
// storm admission queue and breaker guard exactly like outage events do;
// and a Policy that the planning tick consults so that
//
//   - the effective feed limit is min(breaker limit, interconnection cap),
//     enforced within the tick over the server-management plane,
//   - charge admission defers while price or carbon sits above a threshold
//     (the postpone_charge idiom), bounded by an SLA safety valve,
//   - eligible BBUs deliberately discharge to shave grid peaks during
//     demand-response windows while their recharge deadlines stay intact.
//
// Everything is deterministic and seed-reproducible: series lookups are
// pure functions of virtual time, events fire in sorted order behind an
// integer cursor, and the synthetic generators draw from internal/rng. The
// policy's mutable state exports as PolicyState, which a coordinated-run
// checkpoint hashes so that a resume whose replay forks the grid cursor
// fails loudly.
package grid

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"coordcharge/internal/rack"
	"coordcharge/internal/units"
)

// EventKind enumerates grid events.
type EventKind int

const (
	// FreqDroop is a frequency-droop event: the grid frequency sagged and
	// the site must drop controllable load now. The policy pauses every
	// active charge into the storm queue (the same mass-pause a site outage
	// causes) and defers new admission for the event's duration.
	FreqDroop EventKind = iota
	// DemandResponse is a demand-response window: for the duration, the
	// policy discharges eligible BBUs to hold grid draw at the shave
	// target (Spec.Policy.ShaveTarget, or Frac of the effective cap).
	DemandResponse
	// CapShrink is a connect-and-manage curtailment: for the duration, the
	// effective interconnection cap is multiplied by (1-Frac). Composes
	// with the Cap series by taking the minimum.
	CapShrink
)

// String names the event kind for flight events and flags.
func (k EventKind) String() string {
	switch k {
	case FreqDroop:
		return "droop"
	case DemandResponse:
		return "dr"
	case CapShrink:
		return "capshrink"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one scheduled grid event.
type Event struct {
	// Kind selects the event behavior.
	Kind EventKind
	// At is the event start, an offset from run start.
	At time.Duration
	// Dur is how long the event lasts.
	Dur time.Duration
	// Frac parameterises the event: for CapShrink the fraction of the cap
	// removed (0,1); for DemandResponse an optional shave depth — when > 0
	// the window's target is (1-Frac) x the effective cap, otherwise the
	// policy's configured ShaveTarget. Unused for FreqDroop.
	Frac float64
}

// window reports whether the event is active at offset t.
func (e Event) window(t time.Duration) bool {
	return t >= e.At && t < e.At+e.Dur
}

// PolicyConfig parameterises the grid policy. The zero value enables
// nothing: each behavior switches on with its own field.
type PolicyConfig struct {
	// DeferPrice defers charge admission while the energy price ($/MWh) is
	// at or above this threshold. Zero disables price deferral.
	DeferPrice float64
	// DeferCarbon defers charge admission while the grid carbon intensity
	// (gCO2/kWh) is at or above this threshold. Zero disables.
	DeferCarbon float64
	// MaxDefer is the SLA safety valve: the longest continuous stretch the
	// policy may hold admission deferred before it lifts the deferral until
	// the signal next clears. Zero selects the default (30 min); negative
	// disables the valve (defer as long as the signal says).
	MaxDefer time.Duration
	// ShaveTarget is the grid-draw level to shave to during demand-response
	// windows and price-triggered shaves, in watts. Zero means DR windows
	// derive their target from the event's Frac (and price-triggered
	// shaving stays off).
	ShaveTarget units.Power
	// ShavePrice starts a shave whenever the energy price is at or above
	// this threshold, independent of DR windows. Requires ShaveTarget.
	// Zero disables.
	ShavePrice float64
	// MaxShaveDOD is the battery depth a rack may spend carrying its IT
	// load for peak shaving before the policy rotates it out. Zero selects
	// the default (0.25); the recharge SLA machinery sizes the rest.
	MaxShaveDOD units.Fraction
	// ShavePriority is the most critical class allowed to shave: only
	// racks of this class or less critical discharge for grid peaks.
	// Zero selects the default (P2) — P1 racks never volunteer.
	ShavePriority rack.Priority
}

// withDefaults resolves zero fields to their defaults.
func (c PolicyConfig) withDefaults() PolicyConfig {
	if c.MaxDefer == 0 {
		c.MaxDefer = 30 * time.Minute
	}
	if c.MaxShaveDOD == 0 {
		c.MaxShaveDOD = 0.25
	}
	if c.ShavePriority == 0 {
		c.ShavePriority = rack.P2
	}
	return c
}

// Spec is a complete grid scenario: the signal series, the event schedule,
// and the policy thresholds. A nil *Spec disables the grid plane.
type Spec struct {
	// Cap is the interconnection cap in watts (nil = breaker limit only).
	Cap *Series
	// Price is the energy price in $/MWh (nil = no price signal).
	Price *Series
	// Carbon is the grid carbon intensity in gCO2/kWh (nil = none).
	Carbon *Series
	// Events is the grid event schedule. Validate sorts it.
	Events []Event
	// Policy holds the policy thresholds.
	Policy PolicyConfig
}

// Validate checks the spec and normalises it: events are sorted by start
// time (ties by kind, duration, fraction) so the policy can fire them from
// an integer cursor — the "grid cursor" a checkpoint's fleet hash covers.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.Cap != nil && s.Cap.Min() <= 0 {
		return fmt.Errorf("grid: cap series has non-positive value %v", s.Cap.Min())
	}
	if s.Carbon != nil && s.Carbon.Min() < 0 {
		return fmt.Errorf("grid: carbon series has negative value %v", s.Carbon.Min())
	}
	// Price may go negative: real day-ahead markets clear below zero.
	for i, e := range s.Events {
		switch e.Kind {
		case FreqDroop, DemandResponse, CapShrink:
		default:
			return fmt.Errorf("grid: event %d: unknown kind %d", i, int(e.Kind))
		}
		if e.At < 0 {
			return fmt.Errorf("grid: event %d (%v): negative start %v", i, e.Kind, e.At)
		}
		if e.Dur <= 0 {
			return fmt.Errorf("grid: event %d (%v): non-positive duration %v", i, e.Kind, e.Dur)
		}
		switch e.Kind {
		case CapShrink:
			if e.Frac <= 0 || e.Frac >= 1 {
				return fmt.Errorf("grid: event %d (capshrink): fraction %v outside (0,1)", i, e.Frac)
			}
		case DemandResponse:
			if e.Frac < 0 || e.Frac >= 1 {
				return fmt.Errorf("grid: event %d (dr): fraction %v outside [0,1)", i, e.Frac)
			}
			if e.Frac == 0 && s.Policy.ShaveTarget <= 0 {
				return fmt.Errorf("grid: event %d (dr): no shave depth — set the event fraction or Policy.ShaveTarget", i)
			}
		case FreqDroop:
			if e.Frac != 0 {
				return fmt.Errorf("grid: event %d (droop): fraction %v must be zero", i, e.Frac)
			}
		}
	}
	sort.SliceStable(s.Events, func(i, j int) bool {
		a, b := s.Events[i], s.Events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Dur != b.Dur {
			return a.Dur < b.Dur
		}
		return a.Frac < b.Frac
	})
	c := s.Policy
	if c.DeferPrice < 0 || c.DeferCarbon < 0 || c.ShavePrice < 0 {
		return fmt.Errorf("grid: negative policy threshold")
	}
	if (c.DeferPrice > 0 || c.ShavePrice > 0) && s.Price == nil {
		return fmt.Errorf("grid: price threshold set but no price series")
	}
	if c.DeferCarbon > 0 && s.Carbon == nil {
		return fmt.Errorf("grid: carbon threshold set but no carbon series")
	}
	if c.ShavePrice > 0 && c.ShaveTarget <= 0 {
		return fmt.Errorf("grid: ShavePrice set but no ShaveTarget")
	}
	if c.ShaveTarget < 0 {
		return fmt.Errorf("grid: negative ShaveTarget %v", c.ShaveTarget)
	}
	if c.MaxShaveDOD < 0 || c.MaxShaveDOD > 1 {
		return fmt.Errorf("grid: MaxShaveDOD %v outside [0,1]", c.MaxShaveDOD)
	}
	if c.ShavePriority != 0 && !c.ShavePriority.Valid() {
		return fmt.Errorf("grid: invalid ShavePriority %d", int(c.ShavePriority))
	}
	return nil
}

// Fingerprint returns a 64-bit fingerprint of the whole spec, folded into
// the scenario checkpoint fingerprint so a resume against a different grid
// schedule is rejected rather than silently diverging.
func (s *Spec) Fingerprint() uint64 {
	h := fnv.New64a()
	if s == nil {
		return h.Sum64()
	}
	s.Cap.hash(h)
	s.Price.hash(h)
	s.Carbon.hash(h)
	for _, e := range s.Events {
		fmt.Fprintf(h, "|e%d:%d:%d:%x", int(e.Kind), int64(e.At), int64(e.Dur), e.Frac)
	}
	c := s.Policy
	fmt.Fprintf(h, "|p%x:%x:%d:%x:%x:%x:%d",
		c.DeferPrice, c.DeferCarbon, int64(c.MaxDefer),
		float64(c.ShaveTarget), c.ShavePrice, float64(c.MaxShaveDOD), int(c.ShavePriority))
	return h.Sum64()
}

// ParseSpec parses the -grid flag value: semicolon-separated key=value
// elements. "off"/"" yields a nil spec; "on" yields an empty enabled spec
// (useful when the series arrive from files).
//
//	cap=205kW@0,143.5kW@10m      interconnection-cap steps (power@offset)
//	price=40@0,95@6h             $/MWh steps (value@offset)
//	carbon=450@0,120@8h          gCO2/kWh steps
//	synthprice=seed:step:horizon:base:swing   seeded synthetic price series
//	synthcarbon=seed:step:horizon:base:swing  seeded synthetic carbon series
//	droop=15m+40s                frequency-droop event at+duration (repeatable ,)
//	dr=2h+30m(0.15)              demand-response window, optional depth
//	capshrink=1h+2h(0.3)         cap curtailment, required fraction
//	deferprice=80  defercarbon=400  maxdefer=20m
//	shave=180kW  shaveprice=90  shavedod=0.3  shaveprio=2
//
// The returned spec is already validated.
func ParseSpec(s string) (*Spec, error) {
	return ParseSpecWith(s, nil, nil, nil)
}

// ParseSpecWith parses like ParseSpec but attaches externally loaded series
// (CSV files the caller already read) before validation, so a flag
// string whose thresholds reference a file-loaded signal — say deferprice
// with the price curve arriving from a CSV — parses cleanly. A series given
// both inline and as a file is a conflict, not an override. Loaded series
// with an "off" spec string is a contradiction; with an empty string they
// enable the plane on their own.
func ParseSpecWith(s string, cap, price, carbon *Series) (*Spec, error) {
	s = strings.TrimSpace(s)
	loaded := cap != nil || price != nil || carbon != nil
	finish := func(spec *Spec) (*Spec, error) {
		if cap != nil {
			if spec.Cap != nil {
				return nil, fmt.Errorf("grid: cap series given both inline and as a file")
			}
			spec.Cap = cap
		}
		if price != nil {
			if spec.Price != nil {
				return nil, fmt.Errorf("grid: price series given both inline and as a file")
			}
			spec.Price = price
		}
		if carbon != nil {
			if spec.Carbon != nil {
				return nil, fmt.Errorf("grid: carbon series given both inline and as a file")
			}
			spec.Carbon = carbon
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		return spec, nil
	}
	switch strings.ToLower(s) {
	case "off", "none":
		if loaded {
			return nil, fmt.Errorf("grid: series files given but the grid plane is %q", s)
		}
		return nil, nil
	case "":
		if !loaded {
			return nil, nil
		}
		return finish(&Spec{})
	case "on", "default":
		return finish(&Spec{})
	}
	spec := &Spec{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("grid: element %q is not key=value", part)
		}
		key, val := strings.ToLower(strings.TrimSpace(kv[0])), strings.TrimSpace(kv[1])
		var err error
		switch key {
		case "cap":
			spec.Cap, err = parseInlineSeries(val, true)
		case "price":
			spec.Price, err = parseInlineSeries(val, false)
		case "carbon":
			spec.Carbon, err = parseInlineSeries(val, false)
		case "synthprice":
			spec.Price, err = parseSynth(val, SynthPrice)
		case "synthcarbon":
			spec.Carbon, err = parseSynth(val, SynthCarbon)
		case "droop":
			err = parseEvents(val, FreqDroop, &spec.Events)
		case "dr":
			err = parseEvents(val, DemandResponse, &spec.Events)
		case "capshrink":
			err = parseEvents(val, CapShrink, &spec.Events)
		case "deferprice":
			spec.Policy.DeferPrice, err = parseFinite(val)
		case "defercarbon":
			spec.Policy.DeferCarbon, err = parseFinite(val)
		case "maxdefer":
			spec.Policy.MaxDefer, err = time.ParseDuration(val)
		case "shave":
			spec.Policy.ShaveTarget, err = units.ParsePower(val)
		case "shaveprice":
			spec.Policy.ShavePrice, err = parseFinite(val)
		case "shavedod":
			var f units.Fraction
			f, err = units.ParseFraction(val)
			spec.Policy.MaxShaveDOD = f
		case "shaveprio":
			var n int
			n, err = strconv.Atoi(val)
			spec.Policy.ShavePriority = rack.Priority(n)
		default:
			return nil, fmt.Errorf("grid: unknown key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("grid: %s=%s: %v", key, val, err)
		}
	}
	return finish(spec)
}

// parseFinite parses a float and rejects NaN/Inf (strconv accepts both).
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", s)
	}
	return v, nil
}

// parseInlineSeries parses "value@offset,value@offset,..." — power-suffixed
// values when power is true, plain floats otherwise. A single bare value is
// a flat series from t=0.
func parseInlineSeries(s string, power bool) (*Series, error) {
	var pts []Point
	for _, step := range strings.Split(s, ",") {
		step = strings.TrimSpace(step)
		if step == "" {
			continue
		}
		vs, ts := step, "0s"
		if i := strings.IndexByte(step, '@'); i >= 0 {
			vs, ts = step[:i], step[i+1:]
		}
		var v float64
		if power {
			p, err := units.ParsePower(vs)
			if err != nil {
				return nil, err
			}
			v = float64(p)
		} else {
			f, err := parseFinite(vs)
			if err != nil {
				return nil, err
			}
			v = f
		}
		at, err := time.ParseDuration(ts)
		if err != nil {
			return nil, fmt.Errorf("bad offset %q: %v", ts, err)
		}
		pts = append(pts, Point{T: at, V: v})
	}
	return NewSeries(pts)
}

// parseSynth parses "seed:step:horizon:base:swing" for a synthetic series.
func parseSynth(s string, gen func(int64, time.Duration, time.Duration, float64, float64) (*Series, error)) (*Series, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 5 {
		return nil, fmt.Errorf("want seed:step:horizon:base:swing, got %d fields", len(parts))
	}
	seed, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad seed: %v", err)
	}
	step, err := time.ParseDuration(strings.TrimSpace(parts[1]))
	if err != nil {
		return nil, fmt.Errorf("bad step: %v", err)
	}
	horizon, err := time.ParseDuration(strings.TrimSpace(parts[2]))
	if err != nil {
		return nil, fmt.Errorf("bad horizon: %v", err)
	}
	base, err := parseFinite(strings.TrimSpace(parts[3]))
	if err != nil {
		return nil, fmt.Errorf("bad base: %v", err)
	}
	swing, err := parseFinite(strings.TrimSpace(parts[4]))
	if err != nil {
		return nil, fmt.Errorf("bad swing: %v", err)
	}
	return gen(seed, step, horizon, base, swing)
}

// parseEvents parses "at+dur,at+dur(frac),..." into events of one kind.
func parseEvents(s string, kind EventKind, out *[]Event) error {
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		frac := 0.0
		if i := strings.IndexByte(item, '('); i >= 0 {
			if !strings.HasSuffix(item, ")") {
				return fmt.Errorf("unclosed fraction in %q", item)
			}
			f, err := parseFinite(item[i+1 : len(item)-1])
			if err != nil {
				return fmt.Errorf("bad fraction in %q: %v", item, err)
			}
			frac, item = f, item[:i]
		}
		plus := strings.IndexByte(item, '+')
		if plus < 0 {
			return fmt.Errorf("event %q wants at+duration", item)
		}
		at, err := time.ParseDuration(strings.TrimSpace(item[:plus]))
		if err != nil {
			return fmt.Errorf("bad event start in %q: %v", item, err)
		}
		dur, err := time.ParseDuration(strings.TrimSpace(item[plus+1:]))
		if err != nil {
			return fmt.Errorf("bad event duration in %q: %v", item, err)
		}
		*out = append(*out, Event{Kind: kind, At: at, Dur: dur, Frac: frac})
	}
	return nil
}
