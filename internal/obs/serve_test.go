package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHTTPSurface(t *testing.T) {
	s := NewSink(64)
	s.Counter("dynamo.overrides").Add(3)
	s.Gauge("msb.headroom_w").Set(1500)
	s.Event(2*time.Second, "controller/msb", "plan", "starts", "2")
	srv := httptest.NewServer(Handler(s, func() map[string]any {
		return map[string]any{"scenario": "storm"}
	}))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters["dynamo.overrides"] != 3 || snap.Gauges["msb.headroom_w"] != 1500 {
		t.Fatalf("/metrics content wrong: %+v", snap)
	}

	code, body = get(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) || !strings.Contains(body, `"scenario": "storm"`) {
		t.Fatalf("/healthz = %d %s", code, body)
	}

	code, body = get(t, srv, "/debug/flight?n=10")
	if code != http.StatusOK || !strings.Contains(body, `"kind":"plan"`) {
		t.Fatalf("/debug/flight = %d %s", code, body)
	}
	if code, _ := get(t, srv, "/debug/flight?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad n accepted: %d", code)
	}

	code, body = get(t, srv, "/debug/flight/digest")
	if code != http.StatusOK || !strings.Contains(body, `"digest"`) {
		t.Fatalf("/debug/flight/digest = %d %s", code, body)
	}

	if code, _ := get(t, srv, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof not mounted: %d", code)
	}
}

func TestHTTPSurfaceNilSink(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, nil))
	defer srv.Close()
	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, `"counters": {}`) {
		t.Fatalf("nil-sink /metrics = %d %s", code, body)
	}
	if code, _ := get(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("nil-sink /healthz = %d", code)
	}
	if code, _ := get(t, srv, "/debug/flight"); code != http.StatusOK {
		t.Fatalf("nil-sink /debug/flight = %d", code)
	}
}

// TestServeTimeoutsBounded is the slow-loris regression test: every I/O
// timeout on the obs-plane http.Server must be bounded, and the write
// timeout must still leave room for a default 30-second pprof CPU profile.
func TestServeTimeoutsBounded(t *testing.T) {
	srv := NewServer(Handler(NewSink(16), nil))
	checks := []struct {
		name string
		d    time.Duration
	}{
		{"ReadHeaderTimeout", srv.ReadHeaderTimeout},
		{"ReadTimeout", srv.ReadTimeout},
		{"WriteTimeout", srv.WriteTimeout},
		{"IdleTimeout", srv.IdleTimeout},
	}
	for _, c := range checks {
		if c.d <= 0 {
			t.Errorf("%s unbounded: a slow-loris client can pin the obs plane", c.name)
		}
		if c.d > 10*time.Minute {
			t.Errorf("%s = %v: effectively unbounded", c.name, c.d)
		}
	}
	if srv.WriteTimeout <= 30*time.Second {
		t.Errorf("WriteTimeout %v cannot serve a default 30s pprof profile", srv.WriteTimeout)
	}
}
