package coordcharge

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"coordcharge/internal/battery"
	"coordcharge/internal/charger"
	"coordcharge/internal/core"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/scenario"
	"coordcharge/internal/storm"
	"coordcharge/internal/units"
)

// Observability acceptance. Three properties matter: the HTTP surface is
// consistent with the run it watches (a scraper mid-storm sees the same fleet
// the final summary reports), the flight recorder is deterministic per seed
// on both control planes (the digest is the nondeterminism tripwire), and a
// guard incident can be reconstructed as a cause chain from events alone.

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestObsEndpointsLiveDuringStorm runs the storm scenario with the HTTP
// surface attached, scrapes /metrics from HardStop while the admission
// queue is non-empty (i.e. mid-storm), and cross-checks both the mid-run
// scrape and the final scrape against the simulation's own summary.
func TestObsEndpointsLiveDuringStorm(t *testing.T) {
	spec := stormSpec(1)
	armStorm(&spec)
	sink := obs.NewSink(obs.DefaultFlightCap)
	spec.Obs = sink
	srv := httptest.NewServer(obs.Handler(sink, func() map[string]any {
		return map[string]any{"scenario": "storm"}
	}))
	defer srv.Close()

	depth := sink.Gauge("storm.queue_depth")
	var mid obs.Snapshot
	scraped := false
	spec.HardStop = func(time.Duration) bool {
		if !scraped && depth.Value() > 0 {
			getJSON(t, srv.URL+"/metrics", &mid)
			scraped = true
		}
		return false
	}

	res, err := scenario.RunCoordinated(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !scraped {
		t.Fatal("the admission queue never held a rack; no mid-storm scrape happened")
	}

	// Mid-storm scrape: the fleet gauges a storm operator needs must exist
	// and describe a consistent power balance.
	if mid.Gauges["storm.queue_depth"] <= 0 {
		t.Fatalf("mid-storm queue depth = %v, want > 0", mid.Gauges["storm.queue_depth"])
	}
	for _, k := range []string{"msb.power_w", "msb.limit_w", "msb.headroom_w",
		"charge.charging.p1", "charge.completed.p1", "charge.completed.p2", "charge.completed.p3"} {
		if _, ok := mid.Gauges[k]; !ok {
			t.Fatalf("mid-storm /metrics missing gauge %q", k)
		}
	}
	if got, want := mid.Gauges["msb.headroom_w"], mid.Gauges["msb.limit_w"]-mid.Gauges["msb.power_w"]; got != want {
		t.Fatalf("mid-storm headroom %v != limit-power %v", got, want)
	}
	if mid.Counters["storm.storms"] < 1 {
		t.Fatalf("mid-storm storm.storms = %d, want >= 1", mid.Counters["storm.storms"])
	}

	// Final scrape: the live surface must agree with the run's summary.
	var fin obs.Snapshot
	getJSON(t, srv.URL+"/metrics", &fin)
	for i, p := range []rack.Priority{rack.P1, rack.P2, rack.P3} {
		key := fmt.Sprintf("charge.completed.p%d", i+1)
		if got, want := int(fin.Gauges[key]), len(res.ChargeDurations[p]); got != want {
			t.Errorf("%s = %d, want %d completed racks", key, got, want)
		}
	}
	wantCounters := map[string]int64{
		"storm.storms":     int64(res.Storm.Storms),
		"storm.enqueued":   int64(res.Storm.Enqueued),
		"storm.admitted":   int64(res.Storm.Admitted),
		"storm.waves":      int64(res.Storm.Waves),
		"storm.promotions": int64(res.Storm.Promotions),
		"guard.fires":      int64(res.Guard.Fires),
		"guard.demoted":    int64(res.Guard.Demoted),
		"guard.paused":     int64(res.Guard.Paused),
		"guard.it_capped":  int64(res.Guard.ITCapped),
		"guard.resumed":    int64(res.Guard.Resumed),
	}
	for k, want := range wantCounters {
		if got := fin.Counters[k]; got != want {
			t.Errorf("final %s = %d, want %d (the summary's value)", k, got, want)
		}
	}
	if got, want := fin.Gauges["msb.headroom_w"], fin.Gauges["msb.limit_w"]-fin.Gauges["msb.power_w"]; got != want {
		t.Errorf("final headroom %v != limit-power %v", got, want)
	}

	// The debug surface: health, a non-empty flight recorder, and a digest.
	var health map[string]any
	getJSON(t, srv.URL+"/healthz", &health)
	if health["status"] != "ok" || health["scenario"] != "storm" {
		t.Errorf("healthz = %v, want status ok with scenario field", health)
	}
	resp, err := http.Get(srv.URL + "/debug/flight?n=64")
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("flight line %d: %v", lines, err)
		}
		lines++
	}
	resp.Body.Close()
	if lines == 0 {
		t.Error("/debug/flight returned no events after a storm run")
	}
	var dig struct {
		Digest string `json:"digest"`
		Total  uint64 `json:"total"`
	}
	getJSON(t, srv.URL+"/debug/flight/digest", &dig)
	if dig.Digest == "" || dig.Total == 0 {
		t.Errorf("digest = %+v, want non-empty digest over > 0 events", dig)
	}
}

// TestObsFlightDigestDeterminism replays the same seed and spec twice on each
// control plane and demands byte-identical flight-recorder digests: any
// wall-clock, map-order, or scheduling leak into the control path shows up
// here first.
func TestObsFlightDigestDeterminism(t *testing.T) {
	for _, distributed := range []bool{false, true} {
		name := "sync"
		if distributed {
			name = "distributed"
		}
		t.Run(name, func(t *testing.T) {
			run := func() (string, uint64) {
				spec := stormSpec(3)
				armStorm(&spec)
				spec.Distributed = distributed
				sink := obs.NewSink(obs.DefaultFlightCap)
				spec.Obs = sink
				if _, err := scenario.RunCoordinated(spec); err != nil {
					t.Fatal(err)
				}
				return sink.Flight.Digest(), sink.Flight.Total()
			}
			d1, n1 := run()
			d2, n2 := run()
			if n1 == 0 {
				t.Fatal("flight recorder captured no events")
			}
			if d1 != d2 || n1 != n2 {
				t.Fatalf("same seed, different flight recordings: %s (%d events) vs %s (%d events)",
					d1, n1, d2, n2)
			}
		})
	}
}

// causeChainRack mirrors the rack population of the dynamo storm tests: named
// so priority classes cannot be inverted by name tie-breaks, with seed-varied
// IT demand.
func causeChainRack(i int, p rack.Priority, rng *rand.Rand) *rack.Rack {
	r := rack.New(fmt.Sprintf("p%d-%02d", p, i), p, charger.Variable{}, battery.Fig5Surface())
	r.SetDemand(units.Power(4000 + rng.Intn(2001)))
	return r
}

// runGuardIncident drains a small fleet, crashes the planning controller, and
// restores input so the synchronized recharge overdraws a tight breaker with
// nobody coordinating: the guard must contain it alone. The controller then
// restarts and the admission queue re-admits what the guard paused. Returns
// the sink after the fleet has fully recovered.
func runGuardIncident(t *testing.T, seed int64) *obs.Sink {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rpp := power.NewNode("rpp", power.LevelRPP, power.DefaultRPPLimit)
	prios := []rack.Priority{rack.P1, rack.P1, rack.P2, rack.P2, rack.P2, rack.P3, rack.P3, rack.P3}
	racks := make([]*rack.Rack, len(prios))
	var it units.Power
	for i, p := range prios {
		racks[i] = causeChainRack(i, p, rng)
		it += racks[i].Demand()
		rpp.AttachLoad(racks[i])
	}
	const step = 5 * time.Second
	for _, r := range racks {
		r.LoseInput(0)
	}
	var restoreAt time.Duration
	for now := step; ; now += step {
		done := true
		for _, r := range racks {
			r.Step(now, step)
			if !r.Depleted() {
				done = false
			}
		}
		if done {
			restoreAt = now
			break
		}
		if now > time.Hour {
			t.Fatal("packs never depleted")
		}
	}
	for _, r := range racks {
		r.RestoreInput(restoreAt)
	}
	rpp.SetLimit(it + 2*units.Kilowatt)
	rpp.SetTripRule(power.TripRule{Fraction: 0.05, Sustain: 30 * time.Second})

	sink := obs.NewSink(obs.DefaultFlightCap)
	sc := storm.Default()
	sc.Reserve = 0.01
	gc := storm.DefaultGuardConfig()
	h, err := dynamo.BuildHierarchyOpts(rpp, dynamo.ModePriorityAware, core.DefaultConfig(),
		dynamo.HierarchyOptions{Storm: &sc, Guard: &gc, Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	ctl := h.Controller(rpp)
	ctl.Crash()

	// Phase 1: two unmanaged minutes. The synchronized restart breaches the
	// limit and the guard — ticking without its controller — must shed.
	now := restoreAt
	for ; now <= restoreAt+2*time.Minute; now += step {
		for _, r := range racks {
			r.Step(now, step)
		}
		h.Tick(now)
		if rpp.Tripped() {
			t.Fatalf("breaker tripped at %v with the guard armed", now)
		}
	}
	gm := h.TotalGuardMetrics()
	if gm.Fires == 0 || gm.Demoted == 0 || gm.Paused == 0 {
		t.Fatalf("guard metrics after unmanaged phase = %+v, want fires, demotions, and pauses", gm)
	}

	// Phase 2: the controller returns and drains the queue the guard filled.
	ctl.Restart(now)
	for ; now <= restoreAt+8*time.Hour; now += step {
		for _, r := range racks {
			r.Step(now, step)
		}
		h.Tick(now)
		if rpp.Tripped() {
			t.Fatalf("breaker tripped at %v after controller restart", now)
		}
		recovered := true
		for _, r := range racks {
			if r.Charging() || r.PendingDOD() > 0 || r.BatteryDOD() > 0 {
				recovered = false
				break
			}
		}
		if recovered {
			return sink
		}
	}
	t.Fatal("fleet never recovered within the horizon")
	return nil
}

// TestObsGuardCauseChain reconstructs the incident from flight-recorder
// events alone — breach, guard-fire, demote, guard-pause, enqueue, admit, in
// causal (sequence) order for a single shed rack — and demands the same seed
// reproduce the recording bit for bit.
func TestObsGuardCauseChain(t *testing.T) {
	sink := runGuardIncident(t, 1)
	events := sink.Flight.Last(int(sink.Flight.Total()))
	if sink.Flight.Dropped() > 0 {
		// The ring is larger than this incident; dropping events would break
		// reconstruction below.
		t.Fatalf("flight recorder dropped %d events", sink.Flight.Dropped())
	}

	// Index the first occurrence of each step, keyed by the paused rack.
	firstSeq := func(comp, kind, rackName string) (uint64, bool) {
		for _, e := range events {
			if e.Comp == comp && e.Kind == kind && (rackName == "" || e.Attr["rack"] == rackName) {
				return e.Seq, true
			}
		}
		return 0, false
	}
	var paused string
	for _, e := range events {
		if e.Comp == "guard/rpp" && e.Kind == "guard-pause" {
			paused = e.Attr["rack"]
			break
		}
	}
	if paused == "" {
		t.Fatal("no guard-pause event recorded")
	}
	breach, ok1 := firstSeq("guard/rpp", "breach", "")
	fire, ok2 := firstSeq("guard/rpp", "guard-fire", "")
	demote, ok3 := firstSeq("guard/rpp", "demote", "")
	pause, ok4 := firstSeq("guard/rpp", "guard-pause", paused)
	enq, ok5 := firstSeq("storm/queue", "enqueue", paused)
	admit, ok6 := firstSeq("storm/queue", "admit", paused)
	for i, ok := range []bool{ok1, ok2, ok3, ok4, ok5, ok6} {
		if !ok {
			t.Fatalf("cause-chain step %d missing from the flight recorder (paused rack %s)", i, paused)
		}
	}
	if !(breach < fire && fire <= demote && demote < pause && pause < enq && enq < admit) {
		t.Fatalf("cause chain out of order: breach=%d fire=%d demote=%d pause=%d enqueue=%d admit=%d",
			breach, fire, demote, pause, enq, admit)
	}

	// Same seed, same incident, same bits.
	again := runGuardIncident(t, 1)
	if d1, d2 := sink.Flight.Digest(), again.Flight.Digest(); d1 != d2 {
		t.Fatalf("same seed, different incident recordings: %s vs %s", d1, d2)
	}
}
