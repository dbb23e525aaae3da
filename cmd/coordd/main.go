// Command coordd is the coordinated-charging daemon: a supervised,
// long-running service hosting a resident fleet simulation while serving
// concurrent what-if advisor queries, on-demand runs, and validated trace
// ingestion over HTTP (see internal/svc).
//
// Usage:
//
//	coordd -addr :8080 -ckpt-dir /var/lib/coordd       # production shape
//	coordd -addr :0 -p1 4 -p2 6 -p3 4 -pace 60         # small paced fleet
//	coordd -no-resident                                 # API plane only
//
// The resident fleet takes coordsim -run's experiment flags (-p1 -p2 -p3
// -seed -limit -dod -mode -policy -storm -admission -guard -watchdog
// -latency -distributed -faults -grid): both bind one svc.RunRequest, the
// type POST /api/v1/run decodes.
//
// Lifecycle: SIGTERM (or Ctrl-C) drains — in-flight requests finish, the
// resident run writes a final checkpoint, and the process exits 0. On
// restart with the same -ckpt-dir, the daemon auto-discovers the newest
// verified checkpoint and resumes the resident run bit-exactly, falling back
// to the previous-good generation when the latest fails digest verification.
// -fresh ignores any checkpoint and starts over.
//
// The API surface:
//
//	POST /api/v1/advise     what-if breaker sizing (defaults to the resident population)
//	POST /api/v1/run        launch one coordinated run
//	POST /api/v1/ingest     NDJSON trace upload (validated, quarantined on failure)
//	GET  /api/v1/status     lifecycle, pool, breaker, trace store
//	GET  /metrics, /healthz, /debug/flight, /debug/service/flight, /debug/pprof/...
//
// Overload behavior: requests beyond the worker pool and its deficit-aged
// wait queue are shed with 429 + Retry-After; repeated compute failures trip
// a circuit breaker that rejects with 503 until a cooldown probe succeeds.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"coordcharge/internal/obs"
	"coordcharge/internal/svc"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address (use :0 for an ephemeral port)")
	ckptDir := flag.String("ckpt-dir", "", "directory for resident-run checkpoints; enables crash-safe auto-resume")
	ckptEvery := flag.Duration("checkpoint-interval", 0, "virtual time between resident checkpoint writes (default 5m)")
	fresh := flag.Bool("fresh", false, "ignore any existing checkpoint and start the resident run from scratch")
	noResident := flag.Bool("no-resident", false, "serve the API plane without a resident simulation")
	// The resident fleet: the same request and flags as coordsim -run.
	resident := svc.PaperRun()
	resident.Flags(flag.CommandLine)
	pace := flag.Float64("pace", 0, "resident fleet: simulated seconds per wall-clock second (0 = free-running)")
	// Service plane.
	workers := flag.Int("workers", 0, "compute worker pool size (default 4)")
	queueCap := flag.Int("queue", 0, "admission wait-queue capacity (default 4×workers; -1 disables queueing)")
	ageBoost := flag.Duration("age-boost", 0, "queue wait that promotes a request one priority class (default 5s)")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request deadline; the run-watchdog aborts requests that outlive it (default 60s)")
	brkThreshold := flag.Int("breaker-threshold", 0, "consecutive compute failures that trip the circuit breaker (default 5)")
	brkCooldown := flag.Duration("breaker-cooldown", 0, "how long a tripped breaker stays open before a half-open probe (default 15s)")
	stallTTL := flag.Duration("stall-ttl", 0, "resident-run stall watchdog: abort after this long without a completed tick (default 2m; negative disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain window on SIGTERM before the resident run is hard-aborted")
	flag.Parse()

	opt := svc.Options{
		Pace:            *pace,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		Fresh:           *fresh,
		Pool: svc.PoolConfig{
			Workers:  *workers,
			QueueCap: *queueCap,
			AgeBoost: *ageBoost,
		},
		Breaker: svc.BreakerConfig{
			Threshold: *brkThreshold,
			Cooldown:  *brkCooldown,
		},
		RequestTimeout: *reqTimeout,
		WatchdogTTL:    *stallTTL,
	}
	if !*noResident {
		opt.Resident = &resident
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fatal(err)
		}
	}

	s, err := svc.New(opt)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := obs.NewServer(s.Handler())
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}() //coordvet:detached process-lifetime server; exits only via fatal or process end
	// The address line is machine-read by the chaos harness; keep its shape.
	fmt.Printf("coordd: listening on http://%s\n", ln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Fprintln(os.Stderr, "coordd: draining")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain order: flip the service to draining first (new requests get fast
	// 503s and the resident run checkpoints), then let the HTTP server
	// finish whatever was in flight.
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "coordd: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	fmt.Fprintln(os.Stderr, "coordd: stopped")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "coordd: %v\n", err)
	os.Exit(1)
}
