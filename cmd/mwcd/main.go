// Command mwcd serves MWC queries over HTTP: submissions enter a bounded
// queue, a worker pool runs them through the congestmwc facade, and
// identical jobs are answered from an LRU result cache. See docs/SERVER.md
// for the API.
//
// Examples:
//
//	mwcd -addr :8356
//	mwcd -addr 127.0.0.1:9000 -workers 8 -queue 128 -cache 512 -timeout 2m
//	mwcd -data-dir /var/lib/mwcd -fsync always
//	mwcd -observe -log-format json -pprof 127.0.0.1:6060
//	mwcd -addr :8361 -shard s0 -data-dir /var/lib/mwcd-s0
//
// With -data-dir the daemon journals every job lifecycle event and
// terminal result to disk (internal/store): on restart it re-enqueues the
// jobs that were queued or running, under their original IDs, and serves
// previously-computed results from the durable cache without
// re-simulation. Without it the daemon is purely in-memory, as before.
//
// With -observe every job carries a live event hub: GET
// /v1/jobs/{id}/events streams state transitions and per-round simulation
// progress as Server-Sent Events (cmd/mwctail renders them), and job
// statuses include the per-run observability summary.
//
// Besides one-shot jobs the daemon serves dynamic graph sessions
// (/v1/graphs): long-lived mutable graphs whose MWC answer is kept warm
// across batched edge edits, with witness-scoped invalidation deciding
// whether an edit can be absorbed with zero simulation or needs a
// recompute through the same worker pool. Sessions persist under
// -data-dir and hand off through a mwcrouter cluster like jobs do. See
// docs/SERVER.md ("Dynamic sessions") and cmd/mwcreplay for a trace-replay
// load harness.
//
// Logs are structured (log/slog): -log-format selects text or JSON, and
// every HTTP request is access-logged with a request ID, status and
// latency. -pprof serves net/http/pprof on a separate loopback-only
// listener.
//
// With -shard the daemon takes a cluster identity: job IDs carry the
// shard prefix ("s0-j-00000001") and /readyz echoes it, so a mwcrouter
// can route per-job requests back to the owning shard. See docs/SERVER.md
// ("Cluster deployment").
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: admission stops,
// running jobs get -drain to finish, and only then does the process exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"congestmwc/internal/jobs"
	"congestmwc/internal/obs"
	"congestmwc/internal/session"
	"congestmwc/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mwcd:", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon's structured logger on stderr.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// startPprof serves net/http/pprof on its own listener, refusing anything
// but a loopback bind: the profiling surface exposes heap and goroutine
// internals and must never ride on the public API address.
func startPprof(logger *slog.Logger, addr string) (*http.Server, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("-pprof %q: %w", addr, err)
	}
	if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		return nil, fmt.Errorf("-pprof %q: profiling is restricted to loopback addresses", addr)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-pprof listen: %w", err)
	}
	go func() {
		logger.Info("pprof listening", slog.String("addr", ln.Addr().String()))
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			logger.Error("pprof server failed", slog.Any("err", err))
		}
	}()
	return srv, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("mwcd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8356", "listen address")
		workers   = fs.Int("workers", 4, "worker-pool size")
		queue     = fs.Int("queue", 64, "admission queue capacity (backpressure beyond it)")
		cache     = fs.Int("cache", 256, "result-cache entries (negative disables caching)")
		timeout   = fs.Duration("timeout", 5*time.Minute, "default per-job deadline (0 = unbounded)")
		maxBody   = fs.Int64("maxbody", 1<<20, "request body size limit in bytes")
		records   = fs.Int("maxrecords", 4096, "retained job records before the oldest terminal ones are pruned")
		maxN      = fs.Int("maxn", 16384, "largest instance size accepted at submission (negative disables the cap)")
		drain     = fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for running jobs")
		observe   = fs.Bool("observe", false, "attach per-job observability (live /events streams, obs summaries)")
		dataDir   = fs.String("data-dir", "", "durable data directory (WAL + result store); empty = in-memory only")
		fsync     = fs.String("fsync", "interval", "WAL fsync policy: always | interval | none (-data-dir only)")
		walMax    = fs.Int64("walmax", 4<<20, "WAL bytes before snapshot + compaction (-data-dir only)")
		shard     = fs.String("shard", "", "shard identity in a mwcrouter cluster: prefixes job IDs and is echoed by /readyz")
		logFormat = fs.String("log-format", "text", "log output format: text | json")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this loopback address (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if strings.ContainsAny(*shard, "-/ ") {
		// The router parses the shard back out of "<shard>-j-<seq>" job IDs;
		// a "-" (or URL-hostile characters) would make that ambiguous.
		return fmt.Errorf("-shard %q may not contain '-', '/' or spaces", *shard)
	}
	logger, err := newLogger(*logFormat)
	if err != nil {
		return err
	}

	var st *store.Store
	var recovered jobs.RecoveredState
	if *dataDir != "" {
		var err error
		st, err = store.Open(store.Options{
			Dir:          *dataDir,
			Fsync:        store.FsyncPolicy(*fsync),
			CompactBytes: *walMax,
		})
		if err != nil {
			return err
		}
		recovered = st.Recovered()
	}

	cfg := jobs.Config{
		Workers:        *workers,
		QueueCap:       *queue,
		CacheEntries:   *cache,
		DefaultTimeout: *timeout,
		MaxRecords:     *records,
		MaxN:           *maxN,
		Observe:        *observe,
	}
	if *shard != "" {
		cfg.IDPrefix = *shard + "-"
	}
	if st != nil {
		cfg.Journal = st
	}
	svc := jobs.New(cfg)
	if st != nil {
		warmed, requeued, err := svc.Restore(recovered)
		if err != nil {
			return fmt.Errorf("restore from %s: %w", *dataDir, err)
		}
		logger.Info("recovered journal",
			slog.String("dataDir", *dataDir),
			slog.Int("warmed", warmed),
			slog.Int("requeued", requeued),
		)
	}
	sessCfg := session.Config{
		Jobs:    svc,
		MaxN:    *maxN,
		Observe: *observe,
	}
	if *shard != "" {
		sessCfg.IDPrefix = *shard + "-"
	}
	if st != nil {
		sessCfg.Store = st
	}
	mgr, err := session.NewManager(sessCfg)
	if err != nil {
		return err
	}
	if st != nil {
		restored, err := mgr.Restore()
		if err != nil {
			return fmt.Errorf("restore sessions from %s: %w", *dataDir, err)
		}
		if restored > 0 {
			logger.Info("recovered sessions",
				slog.String("dataDir", *dataDir),
				slog.Int("sessions", restored),
			)
		}
	}

	// The dynamic-session API mounts next to the jobs API; /metrics serves
	// both series from one scrape.
	jobsAPI := jobs.NewHandler(svc, jobs.HandlerConfig{MaxBodyBytes: *maxBody, ShardID: *shard})
	sessAPI := session.NewHandler(mgr, session.HandlerConfig{MaxBodyBytes: *maxBody})
	mux := http.NewServeMux()
	mux.Handle("/v1/graphs", sessAPI)
	mux.Handle("/v1/graphs/", sessAPI)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		jobs.WriteMetrics(w, svc.Metrics())
		session.WriteMetrics(w, mgr.Metrics())
	})
	mux.Handle("/", jobsAPI)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           obs.AccessLog(logger, mux),
		ReadHeaderTimeout: 10 * time.Second,
	}

	var psrv *http.Server
	if *pprofAddr != "" {
		psrv, err = startPprof(logger, *pprofAddr)
		if err != nil {
			return err
		}
		defer psrv.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening",
			slog.String("addr", *addr),
			slog.Int("workers", *workers),
			slog.Int("queue", *queue),
			slog.Int("cache", *cache),
			slog.Bool("observe", *observe),
		)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	closeStore := func() error {
		if st == nil {
			return nil
		}
		return st.Close()
	}

	select {
	case err := <-errc:
		mgr.Close()
		_ = svc.Close(context.Background())
		_ = closeStore()
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	logger.Info("shutting down",
		slog.Duration("drainBudget", *drain),
		slog.Int("queueDepth", svc.Metrics().QueueDepth),
	)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// End live event streams first — Shutdown waits for active requests,
	// and an SSE stream over a still-running job would otherwise pin the
	// listener for the whole budget. Then stop accepting HTTP, then drain
	// the job service; in-flight status polls finish before the listener
	// closes.
	svc.SignalDrain()
	serr := srv.Shutdown(drainCtx)
	// Sessions close before the job service: open sessions stay durable on
	// disk (their records restore on the next start or hand off through the
	// cluster), and closing the manager first stops recompute loops from
	// resubmitting into a draining pool.
	mgr.Close()
	jerr := svc.Close(drainCtx)
	// The service is drained (its Close fsynced the journal after the last
	// transitions); now the store itself can close.
	sterr := closeStore()
	if werr := <-errc; werr != nil {
		return werr
	}
	if serr != nil {
		return fmt.Errorf("http shutdown: %w", serr)
	}
	if jerr != nil {
		return fmt.Errorf("job drain: %w", jerr)
	}
	if sterr != nil {
		return fmt.Errorf("store close: %w", sterr)
	}
	logger.Info("drained cleanly")
	return nil
}
