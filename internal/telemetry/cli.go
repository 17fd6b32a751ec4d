package telemetry

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strings"
)

// CLI bundles the run-telemetry surface every command shares: the
// registry to thread into the library, plus the JSONL event log, the
// span-trace file and debug HTTP listener behind the -telemetry, -trace
// and -debug-addr flags.
type CLI struct {
	// Registry is nil when telemetry was not requested; it is safe to
	// pass onward unconditionally (the whole package is nil-safe).
	Registry *Registry

	file *os.File
	buf  *bufio.Writer
	log  *Bus
	dbg  *DebugServer

	trace     *Trace
	tracePath string
	root      *Span
}

// StartCLI wires up CLI telemetry: when any of jsonlPath, tracePath,
// debugAddr or force is set it creates a Registry, installing a bus
// that logs every event as JSONL to jsonlPath (NewLogBus; live
// consumers subscribe to Registry.Bus rather than replace it), a span
// trace written to tracePath at Close
// (Chrome trace-event JSON, or span JSONL when the path ends in
// ".jsonl"), and a debug listener at debugAddr. The trace opens with a
// "run" root span that slices the registry, so its counters cover the
// whole command, solver work outside any pipeline stage included; a
// command that starts pipeline stages runs them under Context(ctx) so
// they nest under the root. With everything unset it returns an inert
// CLI with a nil Registry. Close flushes and releases everything.
func StartCLI(jsonlPath, tracePath, debugAddr string, force bool) (*CLI, error) {
	c := &CLI{}
	if jsonlPath == "" && tracePath == "" && debugAddr == "" && !force {
		return c, nil
	}
	c.Registry = New()
	if jsonlPath != "" {
		f, err := os.Create(jsonlPath)
		if err != nil {
			return nil, fmt.Errorf("telemetry: creating event log: %w", err)
		}
		c.file = f
		c.buf = bufio.NewWriter(f)
		c.log = NewLogBus(0, c.buf)
		c.Registry.SetBus(c.log)
	}
	if tracePath != "" {
		// Create eagerly so a bad path fails before the run, not after.
		f, err := os.Create(tracePath)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("telemetry: creating trace file: %w", err)
		}
		f.Close()
		c.trace = NewTrace()
		c.tracePath = tracePath
		c.Registry.SetTrace(c.trace)
		_, c.root = StartSpan(context.Background(), c.Registry, "run")
	}
	if debugAddr != "" {
		dbg, err := ServeDebug(debugAddr, c.Registry)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.dbg = dbg
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics and /debug/pprof on http://%s\n", dbg.Addr())
	}
	return c, nil
}

// Context returns ctx carrying the trace's "run" root span, so the
// spans started under it nest there (ctx itself without a trace).
func (c *CLI) Context(ctx context.Context) context.Context {
	if c == nil {
		return ctx
	}
	return ContextWithSpan(ctx, c.root)
}

// Close ends the root span, writes the trace file, closes the event-log
// bus and flushes its file, and stops the debug listener, reporting the
// first error (including any sticky event-log write error).
func (c *CLI) Close() error {
	if c == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if c.dbg != nil {
		keep(c.dbg.Close())
		c.dbg = nil
	}
	if c.trace != nil {
		c.root.End()
		keep(c.writeTrace())
		c.trace = nil
	}
	if c.log != nil {
		// Closing the bus stops its writes, so the flush below cannot
		// race a late publish.
		c.log.Close()
		keep(c.log.Err())
		c.log = nil
	}
	if c.buf != nil {
		keep(c.buf.Flush())
		c.buf = nil
	}
	if c.file != nil {
		keep(c.file.Close())
		c.file = nil
	}
	return first
}

// writeTrace renders the collected spans to the -trace file: Chrome
// trace-event JSON by default, span-per-line JSONL when the path ends in
// ".jsonl".
func (c *CLI) writeTrace() error {
	f, err := os.Create(c.tracePath)
	if err != nil {
		return fmt.Errorf("telemetry: writing trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	if strings.HasSuffix(c.tracePath, ".jsonl") {
		err = c.trace.WriteJSONL(bw)
	} else {
		err = c.trace.WriteChromeTrace(bw)
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
