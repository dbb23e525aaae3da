package main

// The coordd-mix workload: an open loop of seeded Poisson arrivals at a fixed
// offered rate against an in-process svc.Service behind a loopback HTTP
// server, timing each request from the moment it was due.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"coordcharge/internal/obs"
	"coordcharge/internal/scenario"
	"coordcharge/internal/svc"
	"coordcharge/internal/trace"
	"coordcharge/internal/units"
)

const (
	// coorddRate is the offered load in requests per second, a constant never
	// calibrated from the code under test: a quarter of the 54.6 req/s median
	// saturation rate that -saturation measured for this mix and client cap on
	// a 2-core Xeon (ten seeds, 47-65 req/s; see README.md), rounded.
	coorddRate = 14.0
	// minRequests keeps p95 ten samples from the tail: a short budget
	// stretches the arrival window to hold this many.
	minRequests = 200
	// coorddSLOMs is the fixed latency limit behind slo_met_frac.
	coorddSLOMs = 1000.0
	// coorddTraceName names the ingested trace the replay requests use.
	coorddTraceName = "bench"
	// replayAfter holds replay requests back until the ingest has had time
	// to land; a replay that still finds no trace fails its check.
	replayAfter = time.Second
)

// reqKind is one entry of the request mix.
type reqKind struct {
	name string
	path string
	body func(seed int64) string
}

// coorddKinds is the request mix; planMix gives every kind an equal share.
var coorddKinds = []reqKind{
	{"run-storm", "/api/v1/run", func(s int64) string {
		return fmt.Sprintf(`{"p1":10,"p2":10,"p3":10,"seed":%d,"limit_mw":0.205,"outage_s":90,"admission":true,"guard":true,"max_charge_s":21600}`, s)
	}},
	{"run-grid", "/api/v1/run", func(s int64) string {
		return fmt.Sprintf(`{"p1":10,"p2":10,"p3":10,"seed":%d,"limit_mw":0.34,"outage_s":90,"admission":true,"guard":true,"max_charge_s":21600,"grid":"cap=230kW@0"}`, s)
	}},
	{"run-faults", "/api/v1/run", func(s int64) string {
		return fmt.Sprintf(`{"p1":10,"p2":10,"p3":10,"seed":%d,"limit_mw":0.225,"avg_dod":0.3,"faults":"default","watchdog_s":30}`, s)
	}},
	{"advise", "/api/v1/advise", func(s int64) string {
		return fmt.Sprintf(`{"p1":10,"p2":10,"p3":10,"seed":%d,"avg_dod":0.5,"resolution_kw":20}`, s)
	}},
	{"run-replay", "/api/v1/run", func(s int64) string {
		return fmt.Sprintf(`{"p1":10,"p2":10,"p3":10,"seed":%d,"limit_mw":0.225,"avg_dod":0.5,"trace":%q}`, s, coorddTraceName)
	}},
}

// bodyVariants is how many bodies each kind has: simulation seeds
// 1..bodyVariants.
const bodyVariants = 4

// ingestBody renders a 30-rack, 8-hour NDJSON trace upload from the seeded
// trace generator at 30 s resolution.
func ingestBody(seed int64) ([]byte, *trace.Materialized, error) {
	const racks = 30
	step := 30 * time.Second
	span := 8 * time.Hour
	scale := float64(racks) / 316
	g, err := trace.NewGenerator(trace.Spec{
		NumRacks: racks, Seed: seed,
		TroughPower: units.Power(1.9e6 * scale), PeakPower: units.Power(2.1e6 * scale),
	})
	if err != nil {
		return nil, nil, err
	}
	n := trace.NumFrames(0, span-step, step)
	frames := trace.Frames(g, nil, 0, span-step, step)
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"name":%q,"racks":%d,"step_s":%g}`+"\n", coorddTraceName, racks, step.Seconds())
	rows := make([][]float64, racks)
	for t := 0; t < n; t++ {
		fmt.Fprintf(&b, `{"t_s":%g,"w":[`, (time.Duration(t) * step).Seconds())
		for r := 0; r < racks; r++ {
			// Round to whole watts so the NDJSON text and the reference trace
			// carry identical values.
			w := float64(int64(frames[t*racks+r]))
			rows[r] = append(rows[r], w)
			if r > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", w)
		}
		b.WriteString("]}\n")
	}
	m, err := trace.FromSamples(0, step, rows)
	if err != nil {
		return nil, nil, err
	}
	return b.Bytes(), m, nil
}

// expected is the oracle for one distinct request body.
type expected struct {
	body      []byte
	rackHours float64
	rackTicks float64
}

// coorddInputs is everything one run of the mix needs, built from the seed.
type coorddInputs struct {
	ingest  []byte
	replay  *trace.Materialized
	bodies  map[string]string // key "kind/seed" -> request body
	paths   map[string]string
	oracle  map[string]expected
	ingestR []byte // expected ingest response
}

// bodyKey names variant v of a kind's body in the run with seed. The bodies
// are a fixed catalogue, so runs differ in their traffic — arrival times,
// order, priorities, and the ingested trace — not in per-request work. Replay
// responses and the ingest depend on the trace the run seed generates, so
// their keys carry the run seed.
func bodyKey(kind string, seed, v int64) string {
	if kind == "run-replay" || kind == "ingest" {
		return fmt.Sprintf("%s/%d/%d", kind, seed, v)
	}
	return fmt.Sprintf("%s/%d", kind, v+1)
}

// buildCoorddInputs renders the request bodies for run seed and computes
// their expected responses — the warm-up op. Run bodies go through the
// layers the handler calls (requestLayers), which also yields each run's
// simulated span; the ingest and advise bodies go through a private service.
func buildCoorddInputs(seed int64) (*coorddInputs, error) {
	in := &coorddInputs{bodies: map[string]string{}, paths: map[string]string{}, oracle: map[string]expected{}}
	var err error
	if in.ingest, in.replay, err = ingestBody(seed); err != nil {
		return nil, err
	}
	s, err := svc.New(svc.Options{})
	if err != nil {
		return nil, err
	}
	defer s.Shutdown(context.Background())
	h := s.Handler()
	rec := serve(h, "/api/v1/ingest", in.ingest, 2)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("oracle ingest: %d %s", rec.Code, rec.Body)
	}
	in.ingestR = rec.Body.Bytes()
	for _, k := range coorddKinds {
		for v := int64(0); v < bodyVariants; v++ {
			key := bodyKey(k.name, seed, v)
			in.bodies[key], in.paths[key] = k.body(v+1), k.path
			if k.path != "/api/v1/run" {
				rec := serve(h, k.path, []byte(in.bodies[key]), 2)
				if rec.Code != http.StatusOK {
					return nil, fmt.Errorf("oracle %s: %d %s", key, rec.Code, rec.Body)
				}
				in.oracle[key] = expected{body: rec.Body.Bytes()}
				continue
			}
			_, body, res, err := requestLayers(in.bodies[key], in.replay)
			if err != nil {
				return nil, fmt.Errorf("oracle %s: %w", key, err)
			}
			n := float64(res.Spec.NumP1 + res.Spec.NumP2 + res.Spec.NumP3)
			span := res.Samples[len(res.Samples)-1].T - res.Samples[0].T
			in.oracle[key] = expected{body: body, rackHours: span.Hours() * n, rackTicks: float64(span/res.Spec.Step) * n}
		}
	}
	return in, nil
}

// serve runs one request through h on a recorder.
func serve(h http.Handler, path string, body []byte, prio int) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("X-Priority", fmt.Sprint(prio))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// plannedReq is one arrival of the open loop.
type plannedReq struct {
	due  time.Duration
	key  string // oracle key
	path string
	body []byte
	prio int
}

// planMix draws the run's arrivals: the ingest first, then a Poisson process
// at coorddRate conditioned on its count — n = coorddRate × budget arrivals
// (at least minRequests) at uniform random times over the window. The
// requests cycle through every kind, body variant and X-Priority 1, 2 and 3
// in equal shares before the seed shuffles them: no traffic log backs any
// other weighting, and equal shares keep the work of a run the same from
// seed to seed, so the seed varies timing and order, not the amount of work.
func planMix(seed int64, in *coorddInputs, budget time.Duration) []plannedReq {
	rng := rand.New(rand.NewSource(seed))
	n := int(coorddRate * budget.Seconds())
	if n < minRequests {
		n = minRequests
		budget = time.Duration(float64(n) / coorddRate * float64(time.Second))
	}
	type slot struct{ kind, variant, prio int }
	slots := make([]slot, n)
	for i := range slots {
		k := len(coorddKinds)
		slots[i] = slot{i % k, i / k % bodyVariants, 1 + i/(k*bodyVariants)%3}
	}
	rng.Shuffle(n, func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * float64(budget))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	isReplay := func(s slot) bool { return coorddKinds[s.kind].name == "run-replay" }
	plan := []plannedReq{{due: 0, key: bodyKey("ingest", seed, 0), path: "/api/v1/ingest", body: in.ingest, prio: 1}}
	for i, due := range dues {
		if isReplay(slots[i]) && due < replayAfter {
			// Too early for the ingested trace: swap with the first later
			// non-replay arrival.
			for j := i + 1; j < n; j++ {
				if !isReplay(slots[j]) {
					slots[i], slots[j] = slots[j], slots[i]
					break
				}
			}
		}
		s := slots[i]
		key := bodyKey(coorddKinds[s.kind].name, seed, int64(s.variant))
		plan = append(plan, plannedReq{
			due: due, key: key, path: in.paths[key], body: []byte(in.bodies[key]), prio: s.prio,
		})
	}
	return plan
}

// rig is a service behind a loopback HTTP server plus a client whose
// transport is capped at one connection per CPU.
type rig struct {
	svc    *svc.Service
	srv    *http.Server
	url    string
	client *http.Client
	served chan error
}

func startRig() (*rig, error) {
	s, err := svc.New(svc.Options{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rig{
		svc:    s,
		srv:    &http.Server{Handler: s.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		}},
	}
	go func() { r.served <- r.srv.Serve(ln) }()
	return r, nil
}

// close stops the server and waits for it, then drains the service.
func (r *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	r.client.CloseIdleConnections()
	if serr := r.svc.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// outcome is one request's fate.
type outcome struct {
	key     string
	status  int
	body    []byte
	err     error
	latency time.Duration // from due time to the last body byte
	lag     time.Duration // how late the generator sent it
}

// drive runs the open loop and waits for every request to finish.
func (r *rig) drive(plan []plannedReq) []outcome {
	outs := make([]outcome, len(plan))
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range plan {
		if d := p.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, p plannedReq) {
			defer wg.Done()
			o := outcome{key: p.key, lag: time.Since(start) - p.due}
			req, err := http.NewRequest(http.MethodPost, r.url+p.path, bytes.NewReader(p.body))
			if err == nil {
				req.Header.Set("X-Priority", fmt.Sprint(p.prio))
				var resp *http.Response
				if resp, err = r.client.Do(req); err == nil {
					o.status = resp.StatusCode
					o.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
			}
			o.err = err
			o.latency = time.Since(start) - p.due
			outs[i] = o
		}(i, p)
	}
	wg.Wait()
	return outs
}

// mixStats is what one open-loop run reduces to.
type mixStats struct {
	attempted, failed, sloMet int
	lat, lag                  []float64
	rackHours, rackTicks      float64
	problems                  []string
}

// judge checks every outcome against the oracle: a 2xx must carry the
// expected body byte for byte; a 429 or 503 is a refusal; anything else fails.
func judge(in *coorddInputs, outs []outcome) mixStats {
	var st mixStats
	for _, o := range outs {
		st.attempted++
		st.lat = append(st.lat, ms(o.latency))
		st.lag = append(st.lag, ms(o.lag))
		want := in.ingestR
		ex, ok := in.oracle[o.key]
		if ok {
			want = ex.body
		}
		switch {
		case o.err != nil:
			st.failed++
			st.problems = append(st.problems, fmt.Sprintf("%s: %v", o.key, o.err))
		case o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable:
			// Refused: not a failure, but it misses the latency limit.
		case o.status != http.StatusOK || !json.Valid(o.body) || !bytes.Equal(o.body, want):
			st.failed++
			st.problems = append(st.problems, fmt.Sprintf("%s: status %d, body %.200q", o.key, o.status, o.body))
		default:
			st.rackHours += ex.rackHours
			st.rackTicks += ex.rackTicks
			if ms(o.latency) <= coorddSLOMs {
				st.sloMet++
			}
		}
	}
	return st
}

// coorddSetup builds one run's inputs and rig.
func coorddSetup(seed int64) (*coorddInputs, *rig, error) {
	in, err := buildCoorddInputs(seed)
	if err != nil {
		return nil, nil, err
	}
	r, err := startRig()
	if err != nil {
		return nil, nil, err
	}
	return in, r, nil
}

// setupCoordd sets up setupRounds times, keeping the last rig; the first
// round is timed from process start.
func setupCoordd(e *env, c *checker) (*coorddInputs, *rig, float64, error) {
	var setups []float64
	var in *coorddInputs
	var r *rig
	for k := 0; k < setupRounds; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = procStart
		}
		if r != nil {
			if err := r.close(); err != nil {
				return nil, nil, 0, err
			}
		}
		var err error
		if in, r, err = coorddSetup(e.seed); err != nil {
			return nil, nil, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	c.oracle(in)
	return in, r, median(setups), nil
}

func benchCoordd(e *env) (*result, error) {
	c := newChecker(e, "coordd-mix")
	in, r, setup, err := setupCoordd(e, c)
	if err != nil {
		return nil, err
	}
	plan := planMix(e.seed, in, e.budget)
	runtime.GC()
	a0 := totalAlloc()
	cpu0 := cpuTime()
	outs := r.drive(plan)
	cpu := cpuTime() - cpu0
	alloc := totalAlloc() - a0
	if err := r.close(); err != nil {
		return nil, err
	}
	st := judge(in, outs)
	c.requests(st)
	m := map[string]metric{}
	set(m, "setup_s", setup)
	set(m, "op_ms_p50", quantile(st.lat, 0.5))
	set(m, "op_ms_p95", quantile(st.lat, 0.95))
	// Per CPU second, not per wall second: below saturation the wall time of
	// an open loop is the arrival window, which the generator sets.
	set(m, "sim_rack_h_per_s", st.rackHours/cpu.Seconds())
	set(m, "alloc_b_per_rack_tick", float64(alloc)/st.rackTicks)
	set(m, "peak_rss_mb", peakRSSMB())
	set(m, "ok_frac", 1-float64(st.failed)/float64(st.attempted))
	set(m, "slo_met_frac", float64(st.sloMet)/float64(st.attempted))
	return c.result(m), nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// saturation measures the rate the service sustains on this mix through the
// capped client: the same planned requests, sent closed-loop by twice as many
// senders as the client has connections, so a connection never idles. It
// returns completed requests per wall second; coorddRate is set from it once,
// by hand, and never from the commit under test.
func saturation(e *env) (float64, error) {
	c := newChecker(e, "coordd-mix")
	in, r, _, err := setupCoordd(e, c)
	if err != nil {
		return 0, err
	}
	plan := planMix(e.seed, in, e.budget)
	// The ingest lands before any replay is sent.
	ingest := r.drive(plan[:1])
	next := make(chan plannedReq, len(plan))
	for _, p := range plan[1:] {
		p.due = 0
		next <- p
	}
	close(next)
	outs := make(chan outcome, len(plan))
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < 2*runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range next {
				outs <- r.drive([]plannedReq{p})[0]
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	close(outs)
	if err := r.close(); err != nil {
		return 0, err
	}
	all, refused := ingest, 0
	for o := range outs {
		all = append(all, o)
		if o.status != http.StatusOK {
			refused++
		}
	}
	c.requests(judge(in, all))
	if c.failed > 0 || refused > 0 {
		return 0, fmt.Errorf("%d failed and %d refused of %d requests", c.failed, refused, len(all))
	}
	return float64(len(plan)-1) / wall.Seconds(), nil
}

// tracedCoordd runs the same open loop to read the service's queue waits and
// counters from /metrics, then times each layer of the request path on every
// run body once.
func tracedCoordd(e *env) (*result, error) {
	c := newChecker(e, "coordd-mix")
	in, r, _, err := setupCoordd(e, c)
	if err != nil {
		return nil, err
	}
	outs := r.drive(planMix(e.seed, in, e.budget))
	resp, err := r.client.Get(r.url + "/metrics")
	if err != nil {
		return nil, err
	}
	var snap obs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	// A fresh service for the handler timings: the rig's has drained.
	s, err := svc.New(svc.Options{})
	if err != nil {
		return nil, err
	}
	defer s.Shutdown(context.Background())
	h := s.Handler()
	if rec := serve(h, "/api/v1/ingest", in.ingest, 2); rec.Code != http.StatusOK {
		return nil, fmt.Errorf("ingest: %d %s", rec.Code, rec.Body)
	}
	st := judge(in, outs)
	c.requests(st)
	m := map[string]metric{}
	wait := snap.Histograms["svc.queue_wait_ms"]
	set(m, "svc.queue_wait_ms_p50", wait.P50)
	set(m, "svc.queue_wait_ms_p95", wait.P95)
	set(m, "svc.admitted", float64(snap.Counters["svc.admitted"]))
	set(m, "svc.shed", float64(snap.Counters["svc.shed"]))
	set(m, "svc.breaker_rejected", float64(snap.Counters["svc.breaker_rejected"]))
	set(m, "svc.quarantined", float64(snap.Counters["svc.quarantined"]))
	set(m, "bench.gen_lag_ms_p95", quantile(st.lag, 0.95))

	// Every run body through the request path's layers, timed and untimed,
	// and through the handler; per body, the medians.
	var decodeUs, timedMs, untimedMs []float64
	var layersMs, handlerMs float64
	for _, key := range runKeys(in) {
		var dec, lay, unt, hdl []float64
		handler := func() {
			t0 := time.Now()
			rec := serve(h, in.paths[key], []byte(in.bodies[key]), 2)
			hdl = append(hdl, ms(time.Since(t0)))
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), in.oracle[key].body) {
				c.fail(e.seed, key+": handler output differs from the oracle")
			}
		}
		// Four rounds, the handler first in every other one, so warm-up and
		// collection debt fall on both sides alike.
		for rep := 0; rep < 4; rep++ {
			if rep%2 == 1 {
				handler()
			}
			t0 := time.Now()
			if _, _, _, err := requestLayers(in.bodies[key], in.replay); err != nil {
				return nil, err
			}
			unt = append(unt, ms(time.Since(t0)))
			t0 = time.Now()
			decode, body, _, err := requestLayers(in.bodies[key], in.replay)
			if err != nil {
				return nil, err
			}
			lay = append(lay, ms(time.Since(t0)))
			dec = append(dec, float64(decode)/float64(time.Microsecond))
			if !bytes.Equal(body, in.oracle[key].body) {
				c.fail(e.seed, key+": traced request path output differs from the oracle")
			}
			if rep%2 == 0 {
				handler()
			}
		}
		decodeUs = append(decodeUs, median(dec))
		timedMs = append(timedMs, median(lay))
		untimedMs = append(untimedMs, median(unt))
		layersMs += median(lay)
		handlerMs += median(hdl)
	}
	supervise, err := superviseUs(h)
	if err != nil {
		return nil, err
	}
	set(m, "svc.decode_us", median(decodeUs))
	set(m, "svc.supervise_us", supervise)
	set(m, "bench.span_coverage", layersMs/handlerMs)
	set(m, "bench.tracing_overhead_frac", median(timedMs)/median(untimedMs)-1)
	return c.result(m), nil
}

// tinyRun is a one-rack run request whose compute is small next to the
// supervision stack around it.
const tinyRun = `{"p1":1,"avg_dod":0.1,"limit_mw":1,"max_charge_s":600}`

// superviseUs is the handler's time outside the layers it calls — routing,
// deadline, pool admission, breaker, response writing — in microseconds:
// the median handler time minus the median layer time on tinyRun, over many
// repetitions so the difference rises above timer noise.
func superviseUs(h http.Handler) (float64, error) {
	var lay, hdl []float64
	for rep := 0; rep < 200; rep++ {
		t0 := time.Now()
		if _, _, _, err := requestLayers(tinyRun, nil); err != nil {
			return 0, err
		}
		lay = append(lay, float64(time.Since(t0))/float64(time.Microsecond))
		t0 = time.Now()
		rec := serve(h, "/api/v1/run", []byte(tinyRun), 2)
		hdl = append(hdl, float64(time.Since(t0))/float64(time.Microsecond))
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("tiny run: %d %s", rec.Code, rec.Body)
		}
	}
	return median(hdl) - median(lay), nil
}

// requestLayers runs one run body through the layers the handler calls —
// strict decode, Spec, RunCoordinated, Summarize, indented JSON encode — with
// replay standing in for the ingested trace, and returns the decode time, the
// encoded body, and the result.
func requestLayers(body string, replay *trace.Materialized) (time.Duration, []byte, *scenario.CoordResult, error) {
	t0 := time.Now()
	q, err := svc.DecodeRunRequest(strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	decode := time.Since(t0)
	spec, err := q.Spec()
	if err != nil {
		return 0, nil, nil, err
	}
	if q.Trace != "" {
		spec.Trace = replay
	}
	res, err := scenario.RunCoordinated(spec)
	if err != nil {
		return 0, nil, nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(svc.Summarize(res)); err != nil {
		return 0, nil, nil, err
	}
	return decode, buf.Bytes(), res, nil
}

// runKeys lists the run bodies' oracle keys in sorted order.
func runKeys(in *coorddInputs) []string {
	var keys []string
	for key, path := range in.paths {
		if path == "/api/v1/run" {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
}
