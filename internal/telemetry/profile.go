package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// Profiler captures pprof CPU and heap profiles into the flight-recorder
// directory when a health watchdog alert fires, so the profile of the
// misbehaving process lands next to the event-ring dump that triggered
// it. Captures are serialized: the runtime supports one CPU profile at a
// time, and a storm of alerts must not stack profile windows. While one
// capture runs, further Capture calls return immediately.
//
// A nil *Profiler no-ops, matching the rest of the package, so callers
// wire it unconditionally and enable it with a flag.
type Profiler struct {
	dir  string
	cpu  time.Duration
	busy atomic.Bool
}

// NewProfiler returns a profiler writing into dir; cpu is how long each
// CPU profile window runs (<= 0 captures only heap profiles). An empty
// dir disables profiling (returns nil).
func NewProfiler(dir string, cpu time.Duration) *Profiler {
	if dir == "" {
		return nil
	}
	return &Profiler{dir: dir, cpu: cpu}
}

// Capture writes a heap profile and (when a CPU window is configured) a
// CPU profile named after prefix into the profiler's directory,
// returning the paths written. The CPU capture blocks for the
// configured window — call from a goroutine when latency matters (the
// watchdog's onAlert hook does). Overlapping calls are skipped, as are
// all calls on a nil profiler.
func (p *Profiler) Capture(prefix string) []string {
	if p == nil {
		return nil
	}
	if !p.busy.CompareAndSwap(false, true) {
		return nil
	}
	defer p.busy.Store(false)
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil
	}
	stamp := time.Now().UTC().Format("20060102T150405.000000000")
	base := filepath.Join(p.dir, fmt.Sprintf("%s-%s", sanitizeFile(prefix), stamp))
	var written []string
	if path := base + ".heap.pprof"; p.writeHeap(path) {
		written = append(written, path)
	}
	if p.cpu > 0 {
		if path := base + ".cpu.pprof"; p.writeCPU(path) {
			written = append(written, path)
		}
	}
	return written
}

// writeHeap writes one up-to-date heap profile (a GC runs first so the
// profile reflects live objects, not garbage awaiting collection).
func (p *Profiler) writeHeap(path string) bool {
	f, err := os.Create(path)
	if err != nil {
		return false
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		os.Remove(path)
		return false
	}
	return true
}

// writeCPU samples the CPU for the configured window. A failed start
// (another CPU profile already running, e.g. via the pprof debug
// endpoint) removes the empty file and reports false.
func (p *Profiler) writeCPU(path string) bool {
	f, err := os.Create(path)
	if err != nil {
		return false
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		os.Remove(path)
		return false
	}
	time.Sleep(p.cpu)
	pprof.StopCPUProfile()
	return true
}

// sanitizeFile maps a capture prefix onto the filename-safe alphabet
// used by the flight recorder.
func sanitizeFile(s string) string {
	if s == "" {
		return "capture"
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
