// Command xvserve is the query daemon: it loads a persistent view store
// built by `xv build` and answers tree-pattern (and XQuery) queries over HTTP
// without ever touching the source document.
//
//	xvserve -dir store/ -addr :8080
//	curl 'localhost:8080/query?q=site(/item[id](/name[v]))'
//	curl 'localhost:8080/query?q=site(/item[id](/name[v]))&explain=1'
//	curl 'localhost:8080/healthz'
//	curl 'localhost:8080/stats'
//	curl 'localhost:8080/metrics'          # Prometheus text exposition
//	curl 'localhost:8080/debug/traces'     # recent request traces
//
// Observability: -log routes structured JSON logs to stderr, stdout or a
// file; -slowquery logs requests over a latency threshold; -debugaddr
// opens a second, non-public listener with the Go pprof profiler (plus
// /metrics and /debug/traces).
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener closes
// immediately, in-flight queries drain (bounded by -drain), then the
// process exits.
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
	"os"
	"os/signal"
	"syscall"
	"time"

	"xmlviews/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xvserve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("xvserve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	dir := fs.String("dir", "", "store directory built by xvstore")
	addr := fs.String("addr", ":8080", "listen address")
	fs.Int("workers", 0, "ignored; accepted for compatibility (queries execute on the request's goroutine)")
	planCache := fs.Int("plancache", 0, "plan cache capacity (0: default 256)")
	readOnly := fs.Bool("readonly", false, "disable POST /update")
	maxUpdate := fs.Int64("maxupdate", 0, "maximum /update body bytes (0: default 8 MiB)")
	maxRows := fs.Int("maxrows", 0, "hard cap on /query response rows; the default when no limit is passed, and explicit limits are clamped to it (0: default 10000)")
	maxRewritings := fs.Int("maxrewritings", 0, "equivalent rewritings enumerated per cold query before cost selection (0: default 2; higher values search longer and hold far more memory on cold //-queries)")
	groupWait := fs.Duration("groupwait", 0, "straggler window: after the first queued update opens a commit group, wait this long for more writers to join before sealing it (0: natural batching only)")
	groupMax := fs.Int("groupmax", 0, "maximum update requests merged into one commit group (0: default 64)")
	maxVersions := fs.Int("maxversions", 0, "extent versions retained for in-flight snapshot readers, live version included (0: default 8)")
	drain := fs.Duration("drain", 15*time.Second, "graceful shutdown drain timeout")
	slowQuery := fs.Duration("slowquery", 0, "log /query and /update requests slower than this (0: disabled; requires -log)")
	logDest := fs.String("log", "", "structured JSON log destination: stderr, stdout or a file path (empty: logging off)")
	debugAddr := fs.String("debugaddr", "", "separate listener serving /debug/pprof, /metrics and /debug/traces (empty: off; keep it non-public)")
	traceRing := fs.Int("tracering", 0, "recent request traces kept for /debug/traces (0: default 128)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("missing -dir (a store directory built by xvstore)")
	}
	logger, logClose, err := openLogger(*logDest, stdout)
	if err != nil {
		return err
	}
	if logClose != nil {
		defer logClose.Close()
	}
	srv, err := serve.New(serve.Config{Dir: *dir, PlanCacheSize: *planCache,
		ReadOnly: *readOnly, MaxUpdateBytes: *maxUpdate, MaxResponseRows: *maxRows,
		MaxRewritings: *maxRewritings,
		GroupWait:     *groupWait, GroupMax: *groupMax, MaxVersions: *maxVersions,
		SlowQuery: *slowQuery, Logger: logger, TraceRingSize: *traceRing})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "xvserve: serving %d view(s) from %s on %s\n", srv.Views(), *dir, ln.Addr())

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		dbg := &http.Server{Handler: srv.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		defer dbg.Close()
		// Debug serving is best-effort: a failure there must not take the
		// query daemon down.
		go func() { _ = dbg.Serve(dln) }()
		fmt.Fprintf(stdout, "xvserve: debug listener (pprof, metrics, traces) on %s\n", dln.Addr())
	}

	hs := &http.Server{
		Handler: srv.Handler(),
		// Slow or stalled clients must not pin connections forever: bound
		// the header and whole-request reads and reap idle keep-alives.
		// Query execution time is not limited here (no WriteTimeout) —
		// long analytical queries are legitimate; abandoned ones are cut
		// by the request-context cancellation instead.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	fmt.Fprintf(stdout, "xvserve: shutting down, draining in-flight requests (up to %s)\n", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// openLogger resolves the -log destination into a JSON slog logger. A nil
// logger (empty destination) makes the server discard its log lines. The
// returned closer is non-nil only for file destinations.
func openLogger(dest string, stdout io.Writer) (*slog.Logger, io.Closer, error) {
	var w io.Writer
	switch dest {
	case "":
		return nil, nil, nil
	case "stderr":
		w = os.Stderr
	case "stdout":
		w = stdout
	default:
		f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("opening log file: %w", err)
		}
		return slog.New(slog.NewJSONHandler(f, nil)), f, nil
	}
	return slog.New(slog.NewJSONHandler(w, nil)), nil, nil
}
