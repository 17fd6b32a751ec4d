// Command sramserverd serves SRAM failure-rate estimation as a
// long-running HTTP/JSON service: jobs are submitted to a bounded queue,
// run by a fixed executor pool with per-job cancellation and deadlines,
// and observed live (running Pf, 99% relative error, simulations
// consumed) while they run.
//
//	sramserverd -addr :8080 -queue 64 -executors 2
//
//	curl -s localhost:8080/v1/workloads
//	curl -s -X POST localhost:8080/v1/jobs -d '{"workload":"readcurrent","method":"g-s","seed":1}'
//	curl -s localhost:8080/v1/jobs/j000001            # live progress
//	curl -s -X DELETE localhost:8080/v1/jobs/j000001  # cancel
//
// The live observability plane is on by default (-event-ring 256), and
// always with -telemetry, whose event log is the global stream: each job
// has an event bus served as Server-Sent Events on /v1/jobs/{id}/events
// (all jobs merged: /v1/events), a watchdog turns mid-run statistical
// pathologies into health.* events, and the last -event-ring events per
// job form a flight recorder dumped to -flight-dir on job failure,
// watchdog alert, or SIGQUIT; /debug/pprof serves CPU and heap
// profiles. Logs are structured (log/slog) with -log-format text|json
// and carry job/lease/worker/trace correlation fields.
//
// With -dist the server also acts as the distributed coordinator:
// sramworkerd workers poll /v1/dist for chunk-range leases, and jobs
// submitted with "distribute": true are sharded across them — the
// folded result is bit-identical to a single-node run. Every lease
// renewal and result upload carries the worker's metrics snapshot,
// health gauges included; the coordinator republishes it per-worker and
// cluster-aggregated at /metrics and GET /v1/cluster, and stitches
// worker-uploaded spans into each job's trace (GET /v1/jobs/{id}/trace
// spans the whole fleet). -result-cache N adds a content-addressed
// result cache so a repeat of an identical request (same module
// version, workload, options, seed, at any worker count) returns
// instantly with zero new simulations.
//
// SIGINT/SIGTERM drains gracefully: new submissions are rejected with
// 503 while the listener stays up (drain-crossing clients see clean
// problem+json rejections, not connection errors), running jobs get
// -drain-timeout to finish, then are cancelled (their partial
// simulation cost is preserved in the final snapshot). The -telemetry
// JSONL event log and the -trace span file are flushed after the drain
// completes, so the last events of in-flight jobs are never lost.
// SIGQUIT does not kill the server: it dumps flight recorders and keeps
// serving.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/jobs"
	"repro/internal/obslog"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	queue := flag.Int("queue", 64, "bounded job-queue capacity")
	executors := flag.Int("executors", 1, "jobs run concurrently (each already fans out across -workers)")
	jobTimeout := flag.Duration("job-timeout", 0, "default per-job deadline (0 = none; jobs may override)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for running jobs on shutdown")
	teleOut := flag.String("telemetry", "", "write structured run events (JSONL) to this file, flushed on drain")
	traceOut := flag.String("trace", "", "write the server's span trace to this file on shutdown (Chrome trace JSON, or JSONL with a .jsonl suffix)")
	eventRing := flag.Int("event-ring", 256, "per-job live-event ring size (SSE resume window and flight recorder; 0 disables event streaming unless -telemetry is set)")
	flightDir := flag.String("flight-dir", "", "write flight-recorder dumps (JSONL) into this directory on job failure, watchdog alert, or SIGQUIT")
	retention := flag.Duration("retention", 0, "garbage-collect terminal jobs this long after they finish (0 = keep forever)")
	heartbeat := flag.Duration("sse-heartbeat", 15*time.Second, "SSE comment-heartbeat period")
	distOn := flag.Bool("dist", false, "serve the /v1/dist coordinator so sramworkerd workers can run jobs submitted with \"distribute\": true")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "distributed lease time-to-live (an unrenewed lease requeues its range)")
	resultCache := flag.Int("result-cache", 0, "content-addressed result-cache capacity (0 disables; repeat submissions of an identical request return instantly)")
	logFormat := flag.String("log-format", obslog.FormatText, "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	flag.Parse()

	cfg := serverConfig{
		addr: *addr, queue: *queue, executors: *executors,
		jobTimeout: *jobTimeout, drainTimeout: *drainTimeout,
		teleOut: *teleOut, traceOut: *traceOut,
		eventRing: *eventRing, flightDir: *flightDir,
		retention: *retention, heartbeat: *heartbeat,
		dist: *distOn, leaseTTL: *leaseTTL, resultCache: *resultCache,
		logFormat: *logFormat, logLevel: *logLevel,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "sramserverd:", err)
		os.Exit(1)
	}
}

type serverConfig struct {
	addr                     string
	queue, executors         int
	jobTimeout, drainTimeout time.Duration
	teleOut, traceOut        string
	eventRing                int
	flightDir                string
	retention                time.Duration
	heartbeat                time.Duration
	dist                     bool
	leaseTTL                 time.Duration
	resultCache              int
	logFormat, logLevel      string
}

func run(cfg serverConfig) error {
	log, err := obslog.New(os.Stderr, cfg.logFormat, cfg.logLevel)
	if err != nil {
		return err
	}
	log = log.With("service", "sramserverd")
	// The CLI bundle owns the JSONL event-log bus and the span-trace
	// file; closing it after the drain is what guarantees the flush.
	cli, err := telemetry.StartCLI(cfg.teleOut, cfg.traceOut, "", false)
	if err != nil {
		return err
	}
	reg := cli.Registry
	if reg == nil {
		reg = telemetry.New()
	}
	if cfg.flightDir != "" {
		if err := os.MkdirAll(cfg.flightDir, 0o755); err != nil {
			cli.Close()
			return err
		}
	}
	// The coordinator exists before the manager so distributed jobs can
	// hand their sharding to it; workers poll /v1/dist while the jobs
	// API stays at the mux root.
	var coord *dist.Coordinator
	mgrCfg := jobs.Config{
		QueueSize:  cfg.queue,
		Executors:  cfg.executors,
		JobTimeout: cfg.jobTimeout,
		Registry:   reg,
		EventRing:  cfg.eventRing,
		FlightDir:  cfg.flightDir,
		Retention:  cfg.retention,
		Heartbeat:  cfg.heartbeat,
		CacheSize:  cfg.resultCache,
		Log:        log,
	}
	if cfg.dist {
		coord = dist.NewCoordinator(dist.Config{LeaseTTL: cfg.leaseTTL, Registry: reg, Log: log})
		mgrCfg.Distributor = coord.Run
	}
	mgr := jobs.NewManager(mgrCfg)

	mux := http.NewServeMux()
	if coord != nil {
		mux.Handle("/v1/dist/", coord.Handler())
		mux.Handle("/v1/cluster", coord.Handler())
	}
	mux.Handle("/", jobs.Handler(mgr))
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		cli.Close()
		return err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGQUIT is the operator's "what is going on in there": dump every
	// flight recorder to -flight-dir and keep serving.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	defer signal.Stop(quitc)
	go func() {
		for range quitc {
			paths := mgr.DumpFlight("sigquit")
			log.Info("SIGQUIT flight dump", "dumps", len(paths), "dir", cfg.flightDir)
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("sramserverd: serving %d workloads, %d methods on http://%s\n",
		len(repro.Workloads()), len(repro.AllMethods()), ln.Addr())
	log.Info("serving", "addr", ln.Addr().String(),
		"workloads", len(repro.Workloads()), "dist", cfg.dist)

	select {
	case err := <-errc:
		cli.Close()
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	log.Info("draining", "timeout", cfg.drainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	// Drain order matters for clients that cross the shutdown boundary:
	// first flip the manager to draining while the listener is still up,
	// so new submissions get clean 503 problem+json rejections instead
	// of connection errors; then wait for queued and running jobs (the
	// global SSE streams end when the drain completes); only then shut
	// the HTTP server down.
	mgr.BeginDrain()
	if err := mgr.Drain(drainCtx); err != nil {
		log.Warn("drain deadline hit, running jobs cancelled")
	}
	shutdownErr := srv.Shutdown(drainCtx)
	if coord != nil {
		coord.Stop()
	}
	// Flush the event log and write the trace only after the drain: the
	// last events of in-flight jobs land in the log during Drain, and a
	// flush any earlier would lose them.
	if err := cli.Close(); err != nil {
		log.Warn("telemetry flush failed", "error", err.Error())
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	log.Info("drained, bye")
	return nil
}
