package svc

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"coordcharge/internal/rack"
	"coordcharge/internal/scenario"
)

// coorddMixBodies copies the coordd-mix benchmark's request catalogue at
// seed 1, so the fuzz corpora start from the service's measured workload.
var coorddMixBodies = []string{
	`{"p1":10,"p2":10,"p3":10,"seed":1,"limit_mw":0.205,"outage_s":90,"admission":true,"guard":true,"max_charge_s":21600}`,
	`{"p1":10,"p2":10,"p3":10,"seed":1,"limit_mw":0.34,"outage_s":90,"admission":true,"guard":true,"max_charge_s":21600,"grid":"cap=230kW@0"}`,
	`{"p1":10,"p2":10,"p3":10,"seed":1,"limit_mw":0.225,"avg_dod":0.3,"faults":"default","watchdog_s":30}`,
	`{"p1":10,"p2":10,"p3":10,"seed":1,"avg_dod":0.5,"resolution_kw":20}`,
	`{"p1":10,"p2":10,"p3":10,"seed":1,"limit_mw":0.225,"avg_dod":0.5,"trace":"bench"}`,
}

// FuzzAdvisorRequest hammers the strict decoder with arbitrary bytes. The
// invariant is the validation contract itself: whatever survives
// DecodeAdvisorRequest must satisfy every bound Validate promises, lower onto
// an AdvisorSpec, and set up — Advise under a HardStop that fires at once
// must fail with ErrAborted and nothing else. The compute path may assume a
// decoded request is physically sane.
func FuzzAdvisorRequest(f *testing.F) {
	f.Add([]byte(`{"p1":1,"p2":2,"p3":3,"avg_dod":0.5}`))
	f.Add([]byte(`{"p1":0,"p2":0,"p3":0,"avg_dod":0.7,"mode":"postpone","policy":"original"}`))
	f.Add([]byte(`{"avg_dod":1e308,"resolution_kw":-0}`))
	f.Add([]byte(`{"p1":1024,"priority":3,"seed":-9223372036854775808}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"p1":1}{"p1":2}`))
	for _, row := range advisorRows {
		f.Add([]byte(row.body))
	}
	for _, body := range coorddMixBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeAdvisorRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if q.P1 < 0 || q.P2 < 0 || q.P3 < 0 || q.P1+q.P2+q.P3 > MaxRacks {
			t.Fatalf("decoder admitted population %d/%d/%d", q.P1, q.P2, q.P3)
		}
		if math.IsNaN(q.AvgDOD) || q.AvgDOD < 0 || q.AvgDOD > 1 {
			t.Fatalf("decoder admitted avg_dod %v", q.AvgDOD)
		}
		// Checked explicitly as well as by set-up: Advise reports its first
		// probe's error, so a later probe failing on the limit grid can hide
		// behind the reference probe's ErrAborted.
		if math.IsNaN(q.ResolutionKW) || q.ResolutionKW < 0 || q.ResolutionKW > 1000 ||
			(q.ResolutionKW != 0 && q.ResolutionKW < 0.001) {
			t.Fatalf("decoder admitted resolution_kw %v", q.ResolutionKW)
		}
		if q.P1+q.P2+q.P3 == 0 {
			// The service fills an empty population from its resident (and
			// answers 400 without one); stand in a small resident.
			q.P1, q.P2, q.P3 = 1, 1, 1
		}
		spec, err := q.Spec()
		if err != nil {
			t.Fatalf("validated request failed to lower: %v", err)
		}
		spec.HardStop = func() bool { return true }
		if _, err := scenario.Advise(spec); !errors.Is(err, scenario.ErrAborted) {
			t.Fatalf("validated request %s failed to set up: %v", data, err)
		}
	})
}

// FuzzRunRequest drives the run decoder, whose body carries the faults and
// grid mini-languages, all the way to set-up: whatever DecodeRunRequest
// admits must lower onto a CoordSpec and build its run, so RunCoordinated
// under a HardStop that fires at once fails with ErrAborted and nothing
// else. A named trace is left unresolved (the handler's job; the synthetic
// generator stands in).
func FuzzRunRequest(f *testing.F) {
	for _, row := range runRows {
		f.Add([]byte(row.body))
	}
	for _, body := range coorddMixBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeRunRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		spec, err := q.Spec()
		if err != nil {
			t.Fatalf("validated request failed to lower: %v", err)
		}
		if spec.Distributed {
			// The message plane's pre-roll costs about a second per 30-rack
			// set-up, more for larger fleets: too slow to fuzz through.
			return
		}
		spec.HardStop = func(time.Duration) bool { return true }
		if _, err := scenario.RunCoordinated(spec); !errors.Is(err, scenario.ErrAborted) {
			t.Fatalf("validated request %s failed to set up: %v", data, err)
		}
	})
}

// FuzzTraceFrame hammers the ingestion plane: an arbitrary header line plus
// an arbitrary frame line. Whatever passes ParseIngestHeader + ValidateFrame
// must be physically plausible — finite wattages within the rack's rated IT
// load, on the declared grid — because the trace store feeds simulations
// directly.
func FuzzTraceFrame(f *testing.F) {
	f.Add([]byte(`{"name":"t","racks":2,"step_s":10}`), []byte(`{"t_s":0,"w":[100,200]}`))
	f.Add([]byte(`{"name":"t","racks":1,"step_s":0.5}`), []byte(`{"t_s":1e308,"w":[1e308]}`))
	f.Add([]byte(`{"name":"../../etc","racks":1,"step_s":10}`), []byte(`{"t_s":0,"w":[-0]}`))
	f.Add([]byte(`{"name":"t","racks":3,"step_s":3600}`), []byte(`{"t_s":0,"w":[12600,0,1.5]}`))
	f.Fuzz(func(t *testing.T, header, frame []byte) {
		h, err := ParseIngestHeader(header)
		if err != nil {
			return
		}
		if h.Racks <= 0 || h.Racks > MaxIngestRacks || h.StepS <= 0 || h.StepS > 3600 {
			t.Fatalf("header validation admitted %+v", h)
		}
		var fr TraceFrame
		if json.Unmarshal(frame, &fr) != nil {
			return
		}
		if ValidateFrame(h, &fr, -1, 0) != nil {
			return
		}
		if len(fr.W) != h.Racks {
			t.Fatalf("frame width %d admitted against %d racks", len(fr.W), h.Racks)
		}
		for i, w := range fr.W {
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 || w > float64(rack.MaxITLoad) {
				t.Fatalf("frame value %d admitted: %v", i, w)
			}
		}
		// A frame accepted as a successor must sit exactly one declared step
		// after its predecessor.
		next := fr
		next.TS = fr.TS + h.StepS
		if err := ValidateFrame(h, &next, fr.TS, 1); err != nil {
			// Float growth can push TS out of the finite range; reject is
			// fine, admitting a wrong grid is not.
			return
		}
	})
}
