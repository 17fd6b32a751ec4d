package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// Times are scaled towards nominal host speed. The benchmark runs on
// small shared VMs where other tenants slow every instruction, by up to
// 2.5x, in phases of seconds to minutes: the raw median latency of one
// workload moved 55% between two sets of runs a quarter of an hour apart,
// and one set's spread reached 0.47. A fixed kernel owned by the
// benchmark (no repository code runs in it) slows with the host. So each
// pass samples it between its operation groups (an estimator run with its
// set-ups, or a serving round) and multiplies every time it measured by
// (refNominal / kernel)^refExponent, where kernel is the geometric mean
// of the pass's samples.
//
// Why the whole pass: host speed swings within a second. Kernel samples a
// third of a second apart differed by 20% (standard deviation of the log
// ratio), and one sample before a run explained little of that run's time
// (correlation 0.35). Samples taking about kernelShare of the pass, spread
// over it, average those swings out the way the pass's own median does.
//
// Why not the full slowdown: the kernel's slowdown tracks the program's,
// but not one for one; refExponent is chosen in bench/README.md.
//
// The kernel shares the process with the program, so it is sampled only
// after a collection and with no service running: otherwise garbage or
// background goroutines of a change would slow the kernel and shrink that
// change's own times.
//
// The kernel runs on as many goroutines as the workload keeps busy: a
// sequential workload contends for one core, a pooled one for all of them.

// refN is the order of the kernel's dense system.
const refN = 24

// refKernel factors and solves a fixed diagonally dominant system 3000
// times: dense, cache-resident floating point, like the circuit solves.
func refKernel() float64 {
	var a0 [refN][refN]float64
	for i := range a0 {
		for j := range a0[i] {
			a0[i][j] = 1 / float64(1+i+j)
		}
		a0[i][i] += refN
	}
	s := 0.0
	for r := 0; r < 3000; r++ {
		a := a0
		var b [refN]float64
		for i := range b {
			b[i] = float64(i + r%7)
		}
		for k := 0; k < refN; k++ {
			for i := k + 1; i < refN; i++ {
				f := a[i][k] / a[k][k]
				for j := k; j < refN; j++ {
					a[i][j] -= f * a[k][j]
				}
				b[i] -= f * b[k]
			}
		}
		for i := refN - 1; i >= 0; i-- {
			for j := i + 1; j < refN; j++ {
				b[i] -= a[i][j] * b[j]
			}
			b[i] /= a[i][i]
		}
		s += b[0]
	}
	return s
}

// refSink keeps the kernel's result live.
var refSink float64

// refNominal is the kernel's time on the reference box (2 vCPUs) while
// the host was quiet, on one goroutine or on one per CPU alike.
const refNominal = 0.011

// refExponent is the power of the kernel's slowdown that times are
// divided by.
const refExponent = 0.75

// kernelShare is the share of a pass spent sampling the kernel.
const kernelShare = 0.05

// samplesFor is the number of kernel samples taken before an operation
// group of nominal length seconds.
func samplesFor(seconds float64) int {
	return max(1, int(math.Round(kernelShare*seconds/refNominal)))
}

// hostSpeed samples the kernel during one pass.
type hostSpeed struct {
	threads int
	samples []float64
}

// newHostSpeed measures host speed for a workload that keeps one core
// busy, or every core when parallel.
func newHostSpeed(parallel bool) *hostSpeed {
	threads := 1
	if parallel {
		threads = runtime.NumCPU()
	}
	return &hostSpeed{threads: threads}
}

// sample times n rounds of the kernel, each on every thread at once. It
// collects garbage first, so the program's collector does not run beside
// the kernel; callers sample only while no other goroutine of theirs is
// busy.
func (h *hostSpeed) sample(n int) {
	runtime.GC()
	out := make([]float64, h.threads)
	for ; n > 0; n-- {
		var wg sync.WaitGroup
		t0 := time.Now()
		for i := range out {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out[i] = refKernel()
			}(i)
		}
		wg.Wait()
		h.samples = append(h.samples, since(t0))
		refSink = sum(out)
	}
}

// kernel is the geometric mean of the samples, in seconds.
func (h *hostSpeed) kernel() float64 {
	logs := 0.0
	for _, t := range h.samples {
		logs += math.Log(t)
	}
	return math.Exp(logs / float64(len(h.samples)))
}

// scale is the factor that converts a time measured during the pass to
// nominal host speed.
func (h *hostSpeed) scale() float64 {
	return math.Pow(refNominal/h.kernel(), refExponent)
}

// setSpeed records the pass's host speed on the info line.
func (m *measurement) setSpeed(h *hostSpeed) {
	m.info["speed_scale"] = h.scale()
	m.info["kernel_s"] = h.kernel()
}

// maxOverrun bounds a pass on a host much slower than the reference box:
// the pass starts no operation group that would, at the length of the
// group before it, end later than maxOverrun times the pass's nominal
// length. Such a pass runs fewer groups than its run count, so its
// counts differ; the info line then carries "stopped_early".
const maxOverrun = 1.5

// pace tracks one pass against its deadline.
type pace struct {
	deadline, last time.Time
}

// newPace starts the clock of a pass of nominal length seconds.
func newPace(seconds float64) *pace {
	now := time.Now()
	limit := time.Duration(maxOverrun * seconds * float64(time.Second))
	return &pace{deadline: now.Add(limit), last: now}
}

// next is called before each group and reports whether it may start.
func (p *pace) next() bool {
	now := time.Now()
	ok := !now.Add(now.Sub(p.last)).After(p.deadline)
	p.last = now
	return ok
}
