package svc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestService builds a started Service and registers its drain.
func newTestService(t *testing.T, opt Options) *Service {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// do drives one request through the handler in-process.
func do(h http.Handler, method, path, body string, hdr ...string) *httptest.ResponseRecorder {
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		r.Header.Set(hdr[i], hdr[i+1])
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func TestStatusWithoutResident(t *testing.T) {
	s := newTestService(t, Options{})
	w := do(s.Handler(), http.MethodGet, "/api/v1/status", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp StatusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.State != StateIdle {
		t.Errorf("state = %q, want idle", resp.State)
	}
	if resp.Resident != nil {
		t.Errorf("resident = %+v, want absent", resp.Resident)
	}
}

func TestAdviseEndpoint(t *testing.T) {
	s := newTestService(t, Options{})
	h := s.Handler()
	w := do(h, http.MethodPost, "/api/v1/advise", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var adv AdviceResponse
	if err := json.Unmarshal(w.Body.Bytes(), &adv); err != nil {
		t.Fatal(err)
	}
	if adv.Racks != 3 || adv.MinFullSLALimitW <= 0 {
		t.Errorf("advice = %+v", adv)
	}
	if w := do(h, http.MethodPost, "/api/v1/advise", `{"p1":1,"zap":2}`); w.Code != http.StatusBadRequest {
		t.Errorf("malformed request: status = %d, want 400", w.Code)
	}
	if w := do(h, http.MethodGet, "/api/v1/advise", ""); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET advise: status = %d, want 405", w.Code)
	}
}

// TestOverloadSheds429 fills the single worker and its disabled queue; the
// next request must shed with 429 and a Retry-After hint.
func TestOverloadSheds429(t *testing.T) {
	s := newTestService(t, Options{Pool: PoolConfig{Workers: 1, QueueCap: -1}})
	block := make(chan struct{})
	entered := make(chan struct{})
	h := s.supervised(true, func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-block
	})
	go do(h, http.MethodPost, "/api/v1/advise", `{}`)
	<-entered
	w := do(h, http.MethodPost, "/api/v1/advise", `{}`)
	close(block)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestPanicRecovered pins the supervision contract: a panicking handler
// becomes a 500 and the service keeps serving.
func TestPanicRecovered(t *testing.T) {
	s := newTestService(t, Options{})
	boom := s.supervised(false, func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	})
	w := do(boom, http.MethodGet, "/api/v1/status", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", w.Code)
	}
	if got := s.cPanics.Value(); got != 1 {
		t.Errorf("svc.panics = %d, want 1", got)
	}
	// The daemon is still alive and the panic is journaled.
	if w := do(s.Handler(), http.MethodGet, "/api/v1/status", ""); w.Code != http.StatusOK {
		t.Fatalf("service died after panic: %d", w.Code)
	}
	found := false
	for _, e := range s.ServiceFlight().Last(16) {
		if e.Kind == "panic" {
			found = true
		}
	}
	if !found {
		t.Error("panic not journaled in the service flight recorder")
	}
}

// TestComputePanicTripsBreaker: panics inside the compute path count as
// breaker failures and surface as 500s, never crashes.
func TestComputePanicTripsBreaker(t *testing.T) {
	s := newTestService(t, Options{Breaker: BreakerConfig{Threshold: 2}})
	for i := 0; i < 2; i++ {
		_, err := s.compute(func() (any, error) { panic("planner bug") })
		if err == nil || !strings.Contains(err.Error(), "compute panic") {
			t.Fatalf("compute err = %v", err)
		}
	}
	if st, trips := s.brk.State(); st != BreakerOpen || trips != 1 {
		t.Fatalf("breaker = %v/%d, want open after 2 panics", st, trips)
	}
	// An open breaker rejects API compute with 503 + Retry-After.
	w := do(s.Handler(), http.MethodPost, "/api/v1/advise", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.5}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestProbeEarlyExitDoesNotWedgeBreaker drives the probe-wedge regression end
// to end: the half-open probe request 405s before reaching compute (no
// verdict), and the next valid request must still be admitted as a fresh
// probe and close the breaker — not be rejected with 503 forever.
func TestProbeEarlyExitDoesNotWedgeBreaker(t *testing.T) {
	fc := newFakeClock()
	s := newTestService(t, Options{
		Clock:   fc.Clock(),
		Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Second},
	})
	h := s.Handler()
	if _, err := s.compute(func() (any, error) { return nil, fmt.Errorf("planner down") }); err == nil {
		t.Fatal("compute failure not surfaced")
	}
	if st, _ := s.brk.State(); st != BreakerOpen {
		t.Fatalf("breaker = %v, want open", st)
	}
	fc.Advance(2 * time.Second)
	// The probe request exits the handler before compute: method not allowed.
	if w := do(h, http.MethodGet, "/api/v1/advise", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("probe status = %d, want 405", w.Code)
	}
	// The verdict-less probe released its slot: a valid request is admitted
	// as the next probe and its success closes the breaker.
	w := do(h, http.MethodPost, "/api/v1/advise", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("post-probe status = %d: %s, want 200 (breaker wedged?)", w.Code, w.Body)
	}
	if st, _ := s.brk.State(); st != BreakerClosed {
		t.Fatalf("breaker = %v, want closed", st)
	}
}

// TestRequestDeadlineAborts504: the run-watchdog (the request deadline wired
// into HardStop) aborts a query that cannot finish in time.
func TestRequestDeadlineAborts504(t *testing.T) {
	s := newTestService(t, Options{RequestTimeout: time.Millisecond})
	// 60 racks is far more than a millisecond of advisor bisection.
	w := do(s.Handler(), http.MethodPost, "/api/v1/advise", `{"p1":20,"p2":20,"p3":20,"avg_dod":0.7}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d: %s, want 504", w.Code, w.Body)
	}
	// The abort is not a compute failure: the breaker must stay closed.
	if st, _ := s.brk.State(); st != BreakerClosed {
		t.Errorf("breaker = %v after deadline abort, want closed", st)
	}
}

// TestUnexecutableRequestsAre400 sends bodies that parse but that no run or
// sizing could execute — sub-second sampling sized past memory, an outage
// that converts to 0 ns, an override latency whose due time wraps the
// clock, a limit grid whose step count overflows, a sizing with no
// population. Each must be a client error, not a compute failure: after six
// of them the breaker is still closed and a valid run succeeds.
func TestUnexecutableRequestsAre400(t *testing.T) {
	s := newTestService(t, Options{})
	h := s.Handler()
	for _, c := range []struct{ path, body string }{
		{"/api/v1/run", `{"p1":1,"avg_dod":0.1,"limit_mw":1,"sample_s":1e-6}`},
		{"/api/v1/run", `{"p1":1,"avg_dod":0.1,"limit_mw":1,"sample_s":1e-9,"max_charge_s":172800}`},
		{"/api/v1/run", `{"p1":1,"outage_s":1e-10,"limit_mw":1,"max_charge_s":600}`},
		{"/api/v1/run", `{"p1":3,"p2":3,"p3":3,"avg_dod":0.5,"limit_mw":0.08,"latency_s":9223372036}`},
		{"/api/v1/advise", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.5,"resolution_kw":1e-300}`},
		{"/api/v1/advise", `{}`}, // no resident to take a population from
	} {
		if w := do(h, http.MethodPost, c.path, c.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s %s: status = %d, want 400: %s", c.path, c.body, w.Code, w.Body)
		}
	}
	if st, _ := s.brk.State(); st != BreakerClosed {
		t.Fatalf("breaker = %v after rejected requests, want closed", st)
	}
	if w := do(h, http.MethodPost, "/api/v1/run", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.3,"limit_mw":0.2}`); w.Code != http.StatusOK {
		t.Fatalf("valid run after rejections: %d %s, want 200", w.Code, w.Body)
	}
}

func TestIngestAndRunOverIngestedTrace(t *testing.T) {
	s := newTestService(t, Options{})
	h := s.Handler()
	var b strings.Builder
	b.WriteString(`{"name":"up","racks":3,"step_s":10}` + "\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, `{"t_s":%d,"w":[4000,5000,6000]}`+"\n", i*10)
	}
	if w := do(h, http.MethodPost, "/api/v1/ingest", b.String()); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}
	// Referencing it with the wrong population is a client error.
	if w := do(h, http.MethodPost, "/api/v1/run", `{"p1":1,"p2":1,"p3":2,"avg_dod":0.3,"limit_mw":0.2,"trace":"up"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("mismatched trace: %d, want 400", w.Code)
	}
	if w := do(h, http.MethodPost, "/api/v1/run", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.3,"limit_mw":0.2,"trace":"nope"}`); w.Code != http.StatusNotFound {
		t.Fatalf("unknown trace: %d, want 404", w.Code)
	}
	w := do(h, http.MethodPost, "/api/v1/run", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.3,"limit_mw":0.2,"trace":"up"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("run over trace: %d %s", w.Code, w.Body)
	}
	var sum RunSummary
	if err := json.Unmarshal(w.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Racks["P1"] != 1 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestIngestQuarantine(t *testing.T) {
	s := newTestService(t, Options{})
	h := s.Handler()
	bad := "{\"name\":\"evil\",\"racks\":2,\"step_s\":10}\n{\"t_s\":0,\"w\":[1,99999]}\n"
	if w := do(h, http.MethodPost, "/api/v1/ingest", bad); w.Code != http.StatusBadRequest {
		t.Fatalf("bad upload: %d, want 400", w.Code)
	}
	var resp StatusResponse
	w := do(h, http.MethodGet, "/api/v1/status", "")
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", resp.Quarantined)
	}
	if len(resp.Traces) != 0 {
		t.Errorf("quarantined trace entered the store: %+v", resp.Traces)
	}
	// The quarantine is journaled.
	found := false
	for _, e := range s.ServiceFlight().Last(16) {
		if e.Comp == "svc/ingest" && e.Kind == "quarantine" {
			found = true
		}
	}
	if !found {
		t.Error("quarantine not journaled")
	}
}

func TestDrainingRejectsWith503(t *testing.T) {
	s := newTestService(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	w := do(s.Handler(), http.MethodPost, "/api/v1/advise", `{"p1":1,"p2":1,"p3":1,"avg_dod":0.5}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 while draining", w.Code)
	}
	if s.State() != StateStopped {
		t.Errorf("state = %q, want stopped", s.State())
	}
}
