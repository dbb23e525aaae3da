package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// HealthFunc supplies extra fields for the /healthz response (may be nil).
// It is called from HTTP handler goroutines and must only read state that is
// safe to read concurrently with the simulation.
type HealthFunc func() map[string]any

// Handler returns the observability HTTP surface over a sink:
//
//	/metrics            registry snapshot (expvar-style JSON, sorted keys)
//	/healthz            {"status":"ok", ...health()}
//	/debug/flight       last-N flight-recorder events as JSONL (?n=, default 256)
//	/debug/flight/digest  running digest + totals as JSON
//	/debug/pprof/...    net/http/pprof
//
// A nil sink serves empty metrics and no flight events, never errors.
func Handler(s *Sink, health HealthFunc) http.Handler {
	var reg *Registry
	var fr *Recorder
	if s != nil {
		reg = s.Reg
		fr = s.Flight
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		resp := map[string]any{"status": "ok"}
		if health != nil {
			for k, v := range health() {
				resp[k] = v
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		n := 256
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, fmt.Sprintf("bad n %q", q), http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, e := range fr.Last(n) {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
	})
	mux.HandleFunc("/debug/flight/digest", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"digest":  fr.Digest(),
			"total":   fr.Total(),
			"dropped": fr.Dropped(),
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server I/O bounds. Every timeout is set so a slow-loris client — one that
// dribbles header or body bytes, or never drains its response — occupies a
// connection for a bounded time instead of pinning the obs plane forever.
// WriteTimeout must accommodate the slowest legitimate response: a 30-second
// /debug/pprof/profile capture plus its transfer.
const (
	// ServeReadHeaderTimeout bounds how long a client may take to finish
	// sending request headers.
	ServeReadHeaderTimeout = 5 * time.Second
	// ServeReadTimeout bounds the whole request read (headers + body; obs
	// requests carry no meaningful bodies).
	ServeReadTimeout = 30 * time.Second
	// ServeWriteTimeout bounds the response write, from the end of the
	// request read. pprof CPU profiles default to 30 s of sampling before a
	// byte is written, so this must stay comfortably above that.
	ServeWriteTimeout = 2 * time.Minute
	// ServeIdleTimeout bounds how long a keep-alive connection may sit
	// between requests.
	ServeIdleTimeout = 2 * time.Minute
)

// NewServer builds the obs-plane http.Server with every I/O timeout bounded
// (see the Serve* constants). Anything exposing an obs handler on a real
// listener (coordd does) should build its server here so a slow or hostile
// client can never hold a connection unboundedly.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ServeReadHeaderTimeout,
		ReadTimeout:       ServeReadTimeout,
		WriteTimeout:      ServeWriteTimeout,
		IdleTimeout:       ServeIdleTimeout,
	}
}
