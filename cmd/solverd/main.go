// Command solverd serves the steady-state solver as a long-running HTTP
// daemon: scenarios (the same platform+spec JSON files cmd/topogen writes
// and cmd/sweep consumes) are posted over HTTP and answered with solved
// Reports, sharing one warm-start basis cache and caching hot scenarios
// across requests — the serving counterpart of the batch pipeline
// topogen → sweep → report.
//
// Usage:
//
//	solverd                                  # listen on :8080 with defaults
//	solverd -addr 127.0.0.1:9090 -workers 8  # bind elsewhere, size the pool
//	solverd -queue 128 -cache 4096           # deeper queue, bigger report cache
//	solverd -timeout 1m -max-timeout 5m      # default and maximum per-request deadline
//	solverd -log-format json -log-level info # structured slog request logs on stderr
//	solverd -debug-addr 127.0.0.1:6060       # net/http/pprof on a separate listener
//
// Endpoints:
//
//	POST /solve   one Scenario JSON body in, the solved Report out.
//	              ?timeout=30s bounds the solve; a report-cache hit skips
//	              the LP entirely (X-Cache: hit). ?trace=1 embeds the
//	              span-structured solve trace in the Report, carrying the
//	              request's X-Request-ID as its trace ID; a traced cache
//	              hit replays the cold solve's trace marked "replayed".
//	              Errors are structured JSON: 400 malformed, 413
//	              oversized, 503 queue full, 504 deadline exceeded.
//	POST /sweep   JSONL in (one Scenario per line, or {"name":…,
//	              "scenario":{…}}), JSONL out — one sweep record per line
//	              in completion order, the same record format cmd/sweep
//	              streams with -jsonl. ?trace=1 traces every solve.
//	GET  /healthz readiness: 200 while serving, 503 once draining.
//	GET  /metrics telemetry snapshot as JSON (counters, queue depth,
//	              queue-wait and solve-time histograms); Prometheus text
//	              with ?format=prometheus.
//
// A seeded batch served through /solve produces Reports byte-identical
// (modulo the solve_ms measurement) to cmd/sweep over the same files —
// the CI solverd-smoke job pins exactly that.
//
// On SIGTERM or SIGINT the daemon drains gracefully: /healthz flips to
// 503, new scenarios are refused, in-flight solves finish and flush their
// responses (bounded by -drain), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "solverd: %v\n", err)
		os.Exit(1)
	}
}

// run executes the daemon until ctx is canceled (the signal path) or the
// listener fails; factored out of main for testability. The bound address
// is printed to stderr once listening — tests bind :0 and parse it.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("solverd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 0, "solver pool size (0: GOMAXPROCS)")
		queue      = fs.Int("queue", serve.DefaultQueueDepth, "admission queue depth (full queue answers 503)")
		cache      = fs.Int("cache", serve.DefaultCacheSize, "report-cache entries (negative: disable)")
		timeout    = fs.Duration("timeout", serve.DefaultSolveTimeoutValue, "default per-request deadline (negative: none)")
		maxTimeout = fs.Duration("max-timeout", serve.DefaultMaxSolveTimeout, "cap on request-supplied ?timeout=")
		maxBody    = fs.Int64("max-body", serve.DefaultMaxBodyBytes, "max request body (and /sweep line) bytes")
		drain      = fs.Duration("drain", 30*time.Second, "graceful shutdown budget for in-flight solves")
		logFormat  = fs.String("log-format", "text", "request log format: text or json")
		logLevel   = fs.String("log-level", "info", "request log level: debug, info, warn or error")
		debugAddr  = fs.String("debug-addr", "", "serve net/http/pprof on this separate address (empty: disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	logger, err := newLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}

	srv := serve.New(serve.Config{
		Workers:             *workers,
		QueueDepth:          *queue,
		CacheSize:           *cache,
		DefaultSolveTimeout: *timeout,
		MaxSolveTimeout:     *maxTimeout,
		MaxBodyBytes:        *maxBody,
		Logger:              logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "solverd: listening on %s\n", ln.Addr())

	// The pprof listener is deliberately separate from the API address:
	// profiling endpoints never share exposure with the solve surface, and
	// a saturated worker pool cannot starve a profile grab. net/http/pprof
	// registers on the DefaultServeMux at import.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dln.Close()
		fmt.Fprintf(stderr, "solverd: pprof on %s/debug/pprof/\n", dln.Addr())
		go http.Serve(dln, nil)
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (healthz flips to 503, new scenarios
	// get structured 503s), let in-flight handlers flush their solves,
	// then stop the workers.
	fmt.Fprintf(stderr, "solverd: draining (up to %v for in-flight solves)\n", *drain)
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		// The budget ran out with handlers still busy: cut them off.
		hs.Close()
		srv.Close()
		return fmt.Errorf("drain exceeded %v: %w", *drain, err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
		return err
	}
	srv.Close()
	fmt.Fprintf(stderr, "solverd: drained cleanly\n")
	return nil
}

// newLogger builds the request logger from the -log-format and
// -log-level flags.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
}
