// Command sramworkerd is a distributed-estimation worker: it polls a
// sramserverd coordinator (started with -dist) for chunk-range leases,
// replays each job's deterministic first stage locally, evaluates the
// leased sample range, and streams the partial statistics back. Any
// number of workers can serve one coordinator; adding or killing
// workers never changes the estimate — only how fast it arrives.
//
//	sramworkerd -coordinator http://host:8080 -id worker-a
//
// The worker carries its own observability plane. Each lease is
// evaluated under the trace context the coordinator granted and the
// finished spans upload with the result, so the job's stitched trace
// spans the whole fleet. Every renewal and result upload carries the
// worker's metrics snapshot, whose health gauges are how the
// coordinator learns of the worker's watchdog alerts. Locally,
// -event-ring keeps a flight-recorder ring of the worker's last events,
// dumped to -flight-dir on a watchdog alert or SIGQUIT, and -debug-addr
// serves /metrics and /debug/pprof. Logs are structured (log/slog)
// behind -log-format text|json.
//
// SIGINT/SIGTERM stop the worker after its current chunk; the
// coordinator reassigns any unfinished lease once it expires. SIGQUIT
// dumps the flight recorder and keeps working.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/obslog"
	"repro/internal/telemetry"
)

func main() {
	coordinator := flag.String("coordinator", "http://localhost:8080", "coordinator base URL (sramserverd -dist)")
	id := flag.String("id", "", "worker ID (default: hostname-pid)")
	poll := flag.Duration("poll", 500*time.Millisecond, "idle delay between lease polls")
	debugAddr := flag.String("debug-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address")
	eventRing := flag.Int("event-ring", 256, "flight-recorder ring size (retained worker events; 0 disables the event plane)")
	flightDir := flag.String("flight-dir", "", "write flight-recorder dumps (JSONL) into this directory on watchdog alert or SIGQUIT")
	logFormat := flag.String("log-format", obslog.FormatText, "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	flag.Parse()

	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	log, err := obslog.New(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sramworkerd:", err)
		os.Exit(1)
	}
	log = log.With("service", "sramworkerd", "worker", *id)

	reg := telemetry.New()
	// The event plane: a ring bus on the worker's registry. The health
	// watchdog evaluates it mid-lease, and the retained ring is the
	// flight recorder dumped below.
	var bus *telemetry.Bus
	if *eventRing > 0 {
		bus = telemetry.NewBus(*eventRing)
		reg.SetBus(bus)
	}
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "sramworkerd:", err)
			os.Exit(1)
		}
	}
	dump := func(reason string) string {
		if bus == nil || *flightDir == "" {
			return ""
		}
		name := fmt.Sprintf("worker-%s-%s-%s.jsonl",
			sanitize(*id), sanitize(reason), time.Now().UTC().Format("20060102T150405.000000000"))
		path := filepath.Join(*flightDir, name)
		if err := bus.DumpFile(path); err != nil {
			log.Warn("flight dump failed", "error", err.Error())
			return ""
		}
		return path
	}
	// The watchdog turns the worker's own statistical pathologies into
	// health gauges (which reach the coordinator in the metrics snapshot
	// of the next renewal or result upload) and snapshots the flight
	// ring locally; the alert's detail stays in this log and the dump.
	watchdog := telemetry.StartWatchdog(reg, func(a telemetry.Alert) {
		log.Warn("watchdog alert", "kind", a.Kind, "detail", a.Detail)
		if path := dump("alert-" + a.Kind); path != "" {
			log.Info("flight dump written", "path", path)
		}
	})
	defer watchdog.Stop()

	if *debugAddr != "" {
		dbg, err := telemetry.ServeDebug(*debugAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sramworkerd:", err)
			os.Exit(1)
		}
		defer dbg.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGQUIT dumps the flight recorder and keeps working, mirroring
	// sramserverd.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	defer signal.Stop(quitc)
	go func() {
		for range quitc {
			if path := dump("sigquit"); path != "" {
				log.Info("SIGQUIT flight dump", "path", path)
			} else {
				log.Info("SIGQUIT flight dump skipped (no -flight-dir or -event-ring)")
			}
		}
	}()

	fmt.Printf("sramworkerd: %s polling %s (%d cores)\n", *id, *coordinator, runtime.GOMAXPROCS(0))
	err = dist.RunWorker(ctx, dist.WorkerConfig{
		Coordinator:  *coordinator,
		ID:           *id,
		PollInterval: *poll,
		Registry:     reg,
		Log:          log,
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		log.Error("worker failed", "error", err.Error())
		os.Exit(1)
	}
	log.Info("stopped")
}

// sanitize keeps file-name components portable: anything outside
// [a-zA-Z0-9._-] becomes '-'.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, s)
}
