package telemetry

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/wire"
)

// Watchdog evaluates a run's streamed telemetry against the same
// statistical health thresholds the end-of-run RunReport applies — but
// mid-run, while there is still time to kill a doomed job. It
// subscribes to the registry's event bus and watches three failure
// modes:
//
//	chain_stalled  the Gibbs chain's acceptance rate collapsed
//	               ("gibbs.chain" events; report: stalled mixing)
//	weight_blowup  a single importance weight carries too much of the
//	               running estimate ("progress" events; report:
//	               max-weight fraction > WeightBlowupFrac)
//	newton_storm   the SPICE solver is living on its gmin/source
//	               fallbacks (spice counters read at every event)
//
// The solver publishes no event of its own, so the spice counters are
// sampled at every event the watchdog sees: phases that publish no
// progress (the Algorithm 4 search, MNIS training, a worker's leased
// range) are judged at the run's next event, and subset simulation,
// which publishes no progress at all, only at "run.done".
//
// Each alert fires once per kind per watchdog: a typed "health.<kind>"
// event is emitted on the registry's bus, the "health" metric
// scope is updated (alerts_total counter, per-kind 0/1 gauges — visible
// in /metrics), the alert is retained for the job-status API, and the
// optional onAlert hook runs (the job layer uses it to dump the flight
// recorder). The watchdog only observes — it never cancels anything
// itself.
type Watchdog struct {
	reg     *Registry
	onAlert func(Alert)
	sub     *Subscription

	alertsTotal *Counter

	mu     sync.Mutex
	active map[string]Alert // guarded by mu

	stop chan struct{}
	done chan struct{}
}

// Alert is one triggered health condition.
type Alert struct {
	// Kind is the condition identifier ("chain_stalled", "weight_blowup",
	// "newton_storm").
	Kind string `json:"kind"`
	// Detail is the human-readable explanation with the measured values.
	Detail string `json:"detail"`
	// Seq is the bus sequence number of the event that triggered the
	// alert.
	Seq int64 `json:"seq"`
}

// WeightBlowupFrac is the share of an importance-sampling estimate one
// weight may carry before the estimate is suspect: above it the
// watchdog fires weight_blowup mid-run and the end-of-run RunReport
// warns, so the two cannot disagree.
const WeightBlowupFrac = 0.2

// The remaining alert thresholds.
const (
	// A Gibbs chain stalls when its acceptance (resampled updates / total
	// updates) is below minChainAcceptance after minChainUpdates updates.
	minChainAcceptance = 0.02
	minChainUpdates    = 100
	// weight_blowup waits for minWeightSamples samples (the library's
	// mc.MinTargetN).
	minWeightSamples = 500
	// A Newton storm is more than maxFallbackRatio of DC solves needing a
	// gmin/source fallback, once minSolves solves accumulated.
	maxFallbackRatio = 0.5
	minSolves        = 256
)

// StartWatchdog subscribes a new watchdog to reg's event bus and starts
// its evaluation goroutine. onAlert, when non-nil, runs synchronously on
// that goroutine for each newly fired alert — the flight-recorder dump
// hook. It returns nil — a fully inert watchdog — when reg is nil or has
// no bus installed, so callers can wire it unconditionally. Stop it when
// the run ends.
func StartWatchdog(reg *Registry, onAlert func(Alert)) *Watchdog {
	bus := reg.Bus()
	if bus == nil {
		return nil
	}
	w := &Watchdog{
		reg:         reg,
		onAlert:     onAlert,
		sub:         bus.Subscribe(256),
		alertsTotal: reg.Scope(wire.ScopeHealth).Counter("alerts_total"),
		active:      make(map[string]Alert),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	go w.loop()
	return w
}

// Stop unsubscribes and waits for the evaluation goroutine to exit.
// Idempotent-enough for the single-owner job layer; nil-safe.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	w.sub.Close()
	<-w.done
}

// Alerts returns the fired alerts sorted by kind (nil when healthy).
func (w *Watchdog) Alerts() []Alert {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.active) == 0 {
		return nil
	}
	out := make([]Alert, 0, len(w.active))
	for _, a := range w.active {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// loop consumes bus events until Stop.
func (w *Watchdog) loop() {
	defer close(w.done)
	events := w.sub.Events()
	for {
		select {
		case <-w.stop:
			return
		case ev, ok := <-events:
			if !ok {
				return // the bus closed under us (job teardown)
			}
			w.observe(ev)
		}
	}
}

// observe evaluates one streamed event.
func (w *Watchdog) observe(ev Event) {
	switch ev.Name {
	case wire.EvGibbsChain:
		updates, _ := NumField(ev.Fields, "updates")
		acceptance, okA := NumField(ev.Fields, "acceptance")
		if okA && int(updates) >= minChainUpdates && acceptance < minChainAcceptance {
			w.fire(Alert{
				Kind: wire.AlertChainStalled,
				Detail: fmt.Sprintf("Gibbs chain acceptance %.4f below %.4f after %d updates — the chain is not mixing",
					acceptance, minChainAcceptance, int(updates)),
				Seq: ev.Seq,
			})
		}
	case wire.EvProgress:
		n, _ := NumField(ev.Fields, "n")
		frac, okF := NumField(ev.Fields, "max_weight_frac")
		if okF && int(n) >= minWeightSamples && frac > WeightBlowupFrac {
			w.fire(Alert{
				Kind: wire.AlertWeightBlowup,
				Detail: fmt.Sprintf("a single importance weight carries %.0f%% of the running estimate after %d samples (threshold %.0f%%)",
					100*frac, int(n), 100*WeightBlowupFrac),
				Seq: ev.Seq,
			})
		}
	}
	w.checkNewtonStorm(ev.Seq)
}

// checkNewtonStorm reads the solver counters: a solve population living
// on its convergence fallbacks signals a metric pushed outside the
// region where warm starts and plain Newton hold.
func (w *Watchdog) checkNewtonStorm(seq int64) {
	s := w.reg.Scope(wire.ScopeSpice)
	solves := s.Counter("solves_total").Value()
	if solves < minSolves {
		return
	}
	falls := s.Counter("fallback_gmin_total").Value() + s.Counter("fallback_source_total").Value()
	if ratio := float64(falls) / float64(solves); ratio > maxFallbackRatio {
		w.fire(Alert{
			Kind: wire.AlertNewtonStorm,
			Detail: fmt.Sprintf("%.0f%% of %d DC solves needed gmin/source fallbacks (threshold %.0f%%)",
				100*ratio, solves, 100*maxFallbackRatio),
			Seq: seq,
		})
	}
}

// fire records an alert the first time its kind triggers: health scope
// metrics, a typed health.<kind> event, and the onAlert hook.
func (w *Watchdog) fire(a Alert) {
	w.mu.Lock()
	if _, seen := w.active[a.Kind]; seen {
		w.mu.Unlock()
		return
	}
	w.active[a.Kind] = a
	w.mu.Unlock()

	w.alertsTotal.Inc()
	w.reg.Scope(wire.ScopeHealth).Gauge(a.Kind).Set(1)
	w.reg.Emit(wire.EvHealthPrefix+a.Kind, map[string]any{
		"kind": a.Kind, "detail": a.Detail, "trigger_seq": a.Seq,
	})
	if w.onAlert != nil {
		w.onAlert(a)
	}
}

// NumField reads a numeric event field, tolerating the int/int64/
// float64 mix the instrumentation layers publish (decoded JSON holds
// float64). It reports false when the field is absent or not a number.
func NumField(fields map[string]any, key string) (float64, bool) {
	switch v := fields[key].(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	}
	return 0, false
}
