package svc

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"coordcharge/internal/dynamo"
)

// requestRow is one strict-decoder table row; the fuzz targets seed from
// the tables too.
type requestRow struct {
	name, body string
	ok         bool
}

var advisorRows = []requestRow{
	{"valid", `{"p1":1,"p2":2,"p3":3,"avg_dod":0.5}`, true},
	{"unknown field", `{"p1":1,"bogus":true}`, false},
	{"trailing data", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.5} {"again":1}`, false},
	{"not json", `p1=1`, false},
	{"negative racks", `{"p1":-1,"p2":1,"p3":1}`, false},
	{"too many racks", `{"p1":2000,"p2":0,"p3":0}`, false},
	{"dod over one", `{"p1":1,"p2":1,"p3":1,"avg_dod":1.5}`, false},
	{"huge dod literal", `{"p1":1,"p2":1,"p3":1,"avg_dod":1e400}`, false},
	{"bad mode", `{"p1":1,"p2":1,"p3":1,"mode":"warp"}`, false},
	{"bad policy", `{"p1":1,"p2":1,"p3":1,"policy":"yolo"}`, false},
	{"bad priority", `{"p1":1,"p2":1,"p3":1,"priority":7}`, false},
	{"resolution over", `{"p1":1,"p2":1,"p3":1,"resolution_kw":5000}`, false},
	{"resolution overflows the limit grid", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.5,"resolution_kw":1e-300}`, false},
	{"resolution one watt", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.5,"resolution_kw":0.001}`, true},
	{"rack sum wraps", `{"p1":9223372036854775807,"p2":9223372036854775807,"p3":3}`, false},
}

var runRows = []requestRow{
	{"valid", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.3,"limit_mw":0.2}`, true},
	{"outage only", `{"p1":1,"p2":1,"p3":1,"outage_s":60}`, true},
	{"no racks", `{"avg_dod":0.5}`, false},
	{"no dod or outage", `{"p1":1,"p2":1,"p3":1}`, false},
	{"negative outage", `{"p1":1,"p2":1,"p3":1,"outage_s":-5}`, false},
	{"outage over cap", `{"p1":1,"p2":1,"p3":1,"outage_s":1e6}`, false},
	{"limit over cap", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.5,"limit_mw":5000}`, false},
	{"step over hour", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.5,"step_s":7200}`, false},
	{"bad faults", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.5,"faults":"nope=1"}`, false},
	{"good faults", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.5,"faults":"default"}`, true},
	{"unknown field", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.5,"zap":1}`, false},
	{"sample microsecond", `{"p1":1,"avg_dod":0.1,"limit_mw":1,"sample_s":1e-6}`, false},
	{"sample nanosecond", `{"p1":1,"avg_dod":0.1,"limit_mw":1,"sample_s":1e-9,"max_charge_s":172800}`, false},
	{"outage under a nanosecond", `{"p1":1,"outage_s":1e-10,"limit_mw":1,"max_charge_s":600}`, false},
	{"step sub-second", `{"p1":1,"avg_dod":0.5,"step_s":0.5}`, false},
	{"step and sample one second", `{"p1":1,"avg_dod":0.5,"step_s":1,"sample_s":1}`, true},
	{"watchdog past duration range", `{"p1":1,"avg_dod":0.5,"watchdog_s":1e300}`, false},
	{"latency and distributed", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.5,"latency_s":20,"distributed":true}`, true},
	{"negative latency", `{"p1":1,"avg_dod":0.5,"latency_s":-1}`, false},
	{"latency wraps the clock", `{"p1":3,"p2":3,"p3":3,"avg_dod":0.5,"limit_mw":0.08,"latency_s":9223372036}`, false},
	{"latency one hour", `{"p1":3,"p2":3,"p3":3,"avg_dod":0.5,"limit_mw":0.08,"latency_s":3600}`, true},
	{"distributed at cap", `{"p1":30,"p2":30,"p3":4,"avg_dod":0.5,"distributed":true}`, true},
	{"distributed over cap", `{"p1":30,"p2":30,"p3":5,"avg_dod":0.5,"distributed":true}`, false},
	{"rack sum wraps", `{"p1":9223372036854775807,"p2":9223372036854775807,"p3":3,"avg_dod":0.5}`, false},
	{"series not on the wire", `{"p1":1,"avg_dod":0.5,"GridCap":{}}`, false},
}

func TestDecodeAdvisorRequestStrict(t *testing.T) {
	for _, tc := range advisorRows {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeAdvisorRequest(strings.NewReader(tc.body))
			if (err == nil) != tc.ok {
				t.Fatalf("err = %v, want ok=%t", err, tc.ok)
			}
		})
	}
}

func TestDecodeRunRequestStrict(t *testing.T) {
	for _, tc := range runRows {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRunRequest(strings.NewReader(tc.body))
			if (err == nil) != tc.ok {
				t.Fatalf("err = %v, want ok=%t", err, tc.ok)
			}
		})
	}
}

// TestRunRequestSpecLowering checks the lowering every entry point shares:
// defaults, storm/guard arming, and degraded-mode machinery under faults.
func TestRunRequestSpecLowering(t *testing.T) {
	q, err := DecodeRunRequest(strings.NewReader(
		`{"p1":2,"p2":3,"p3":4,"avg_dod":0.4,"limit_mw":1.5,"admission":true,"guard":true,"faults":"default"}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := q.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mode != dynamo.ModePriorityAware {
		t.Errorf("default mode = %v, want priority-aware", spec.Mode)
	}
	if spec.Storm == nil || spec.Guard == nil {
		t.Errorf("storm/guard not armed: %v %v", spec.Storm, spec.Guard)
	}
	if !spec.Faults.Enabled() {
		t.Error("faults not enabled")
	}
	if spec.StaleAfter == 0 || spec.Retry.MaxAttempts == 0 {
		t.Error("degraded-mode machinery not armed alongside faults")
	}
	if spec.NumP1 != 2 || spec.NumP2 != 3 || spec.NumP3 != 4 {
		t.Errorf("population = %d/%d/%d", spec.NumP1, spec.NumP2, spec.NumP3)
	}

	// The two settings experiment files had before the API did.
	q, err = DecodeRunRequest(strings.NewReader(`{"p1":1,"avg_dod":0.5,"latency_s":20,"distributed":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec, err = q.Spec(); err != nil {
		t.Fatal(err)
	}
	if spec.CommandLatency != 20*time.Second || !spec.Distributed {
		t.Errorf("latency/distributed = %v/%t, want 20s/true", spec.CommandLatency, spec.Distributed)
	}
	if spec.StaleAfter != 0 || spec.Retry.MaxAttempts != 0 {
		t.Error("degraded-mode machinery armed on a loss-free plane")
	}
}

// TestRunRequestFlags binds a request to a flag set: defaults come from the
// receiver, and the duration flags fill the seconds fields.
func TestRunRequestFlags(t *testing.T) {
	q := PaperRun()
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	q.Flags(fs)
	if err := fs.Parse([]string{"-p1", "4", "-storm", "1m30s", "-watchdog", "30s", "-latency", "20s", "-distributed", "-faults", "default"}); err != nil {
		t.Fatal(err)
	}
	want := PaperRun()
	want.P1, want.OutageS, want.WatchdogS, want.LatencyS = 4, 90, 30, 20
	want.Distributed, want.Faults = true, "default"
	if q != want {
		t.Errorf("bound request = %+v, want %+v", q, want)
	}
	if err := fs.Parse([]string{"-storm", "ninety"}); err == nil {
		t.Error("malformed duration accepted")
	}
}

func TestAdvisorSpecLowering(t *testing.T) {
	q, err := DecodeAdvisorRequest(strings.NewReader(
		`{"p1":1,"p2":1,"p3":1,"avg_dod":0.7,"mode":"postpone","policy":"original","resolution_kw":50}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := q.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mode != dynamo.ModePostpone {
		t.Errorf("mode = %v, want postpone", spec.Mode)
	}
	if spec.LocalPolicy == nil || spec.LocalPolicy.Name() != "original" {
		t.Errorf("policy = %v, want original", spec.LocalPolicy)
	}
	if float64(spec.Resolution) != 50_000 {
		t.Errorf("resolution = %v W, want 50000", float64(spec.Resolution))
	}
}
