// Command served is the serving daemon: a long-running HTTP/JSON server
// over the session API (Open/Run/RunMatrix/Join/Repair/Churn) with
// per-session handles, slot-event streaming, a size/TTL-bounded result
// cache with singleflight coalescing, /metrics and /healthz, and graceful
// drain on SIGTERM.
//
// Usage:
//
//	served -addr :8080                       # serve until SIGTERM/SIGINT
//	served -journal s.journal                # journal session opens/closes
//	served -journal s.journal -recover       # rebuild the session table after a crash
//	served -chaos "seed=1,serve.conn.reset=0.01"  # seeded fault injection (testing)
//
// On SIGTERM the daemon stops accepting new sessions (503), lets in-flight
// requests finish within -drain-timeout, then closes every deployment.
// Hardening (DESIGN.md §13): handler panics become JSON 500s, -max-concurrent
// bounds executing requests with deadline-aware shedding, sessions carry
// per-session circuit breakers, and -journal/-recover replay the session
// table bit-identically after a crash.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sinrconn/internal/faults"
	"sinrconn/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "served:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("served", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheSize := fs.Int("cache-size", 0, "result-cache entries per deployment (0 = library default, 128)")
	cacheTTL := fs.Duration("cache-ttl", 0, "result-cache entry TTL (0 = never expire)")
	defTimeout := fs.Duration("default-timeout", 0, "per-request timeout when the request sets none (0 = none)")
	maxTimeout := fs.Duration("max-timeout", 5*time.Minute, "hard per-request timeout cap (0 = uncapped)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	workers := fs.Int("workers", 0, "simulator workers per deployment (0 = NumCPU)")
	maxConcurrent := fs.Int("max-concurrent", 0, "bound concurrently executing operation requests; excess queues or sheds 503 (0 = unlimited)")
	breaker := fs.Int("breaker", 0, "consecutive failures that open a session's circuit breaker (0 = default 8, negative = disabled)")
	chaos := fs.String("chaos", "", `fault-injection spec, e.g. "seed=42,delay=2ms,serve.handler.delay=0.05,serve.conn.reset=0.01" (testing only)`)
	journalPath := fs.String("journal", "", "append-only session journal path (fsync'd per open/close; enables -recover)")
	recoverFlag := fs.Bool("recover", false, "replay the -journal session table before serving (crash recovery)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := serve.Config{
		CacheSize:      *cacheSize,
		CacheTTL:       *cacheTTL,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		Workers:        *workers,
		MaxConcurrent:  *maxConcurrent,
	}
	if *breaker != 0 {
		cfg.BreakerThreshold = *breaker
	}
	if *chaos != "" {
		spec, err := faults.ParseSpec(*chaos)
		if err != nil {
			return err
		}
		plan, err := faults.NewPlan(spec)
		if err != nil {
			return err
		}
		cfg.Injector = plan
		fmt.Fprintf(out, "served: chaos injection armed (%s)\n", spec.String())
	}
	var replay []serve.JournalRecord
	if *recoverFlag && *journalPath == "" {
		return errors.New("-recover requires -journal")
	}
	if *journalPath != "" {
		if *recoverFlag {
			// Read the surviving session table BEFORE reopening the
			// journal for append.
			var err error
			if replay, err = serve.ReadJournal(*journalPath); err != nil {
				return err
			}
		}
		j, err := serve.OpenJournal(*journalPath)
		if err != nil {
			return err
		}
		defer j.Close()
		cfg.Journal = j
	}

	srv := serve.New(cfg)
	if *recoverFlag {
		n, err := srv.Restore(replay)
		if err != nil {
			srv.Close()
			return fmt.Errorf("recover: %w", err)
		}
		fmt.Fprintf(out, "served: recovered %d sessions\n", n)
	}
	hs := &http.Server{Handler: srv.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "served: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
		stop() // restore default signal handling: second SIGTERM kills
		fmt.Fprintln(out, "served: draining")
		return shutdown(srv, hs, *drainTimeout, out)
	}
}

// shutdown drains gracefully: refuse new sessions, wait for in-flight
// requests up to the timeout, then close every deployment.
func shutdown(srv *serve.Server, hs *http.Server, timeout time.Duration, out io.Writer) error {
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := hs.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(out, "served: drain timeout exceeded, closing")
		hs.Close()
		err = nil
	}
	srv.Close()
	fmt.Fprintln(out, "served: stopped")
	return err
}
