package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// MetricPoint is one metric in a registry snapshot. It is also the
// metrics-federation wire type workers upload on lease renew; the JSON
// tags keep that wire format stable. Beware that a raw snapshot is not
// always JSON-marshalable — empty histograms carry NaN quantiles and
// ±Inf extrema, and the overflow bucket's bound is +Inf — so wire
// senders sanitize first (see internal/dist).
type MetricPoint struct {
	// Scope and Name locate the metric; Kind is "counter", "gauge" or
	// "histogram".
	Scope string `json:"scope"`
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	// Value is the counter count or gauge level (0 for histograms).
	Value float64 `json:"value,omitempty"`
	// Histogram aggregates (Count is also the number of observations).
	Count int64   `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	// P50, P90 and P99 are approximate quantiles reconstructed from the
	// bucket counts (NaN with no observations).
	P50     float64       `json:"p50,omitempty"`
	P90     float64       `json:"p90,omitempty"`
	P99     float64       `json:"p99,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot returns every metric in the registry, sorted by scope then
// name (counters, then gauges, then histograms within a scope+name
// collision, which well-behaved callers avoid). Nil registries snapshot
// empty.
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	var out []MetricPoint
	for _, sn := range r.scopeNames() {
		s := r.Scope(sn)
		s.mu.RLock()
		names := make([]string, 0, len(s.counters)+len(s.gauges)+len(s.hists))
		for n := range s.counters {
			names = append(names, n)
		}
		for n := range s.gauges {
			names = append(names, n)
		}
		for n := range s.hists {
			names = append(names, n)
		}
		sort.Strings(names)
		seen := map[string]bool{}
		for _, n := range names {
			if seen[n] {
				continue
			}
			seen[n] = true
			if c, ok := s.counters[n]; ok {
				out = append(out, MetricPoint{Scope: sn, Name: n, Kind: "counter", Value: float64(c.Value())})
			}
			if g, ok := s.gauges[n]; ok {
				out = append(out, MetricPoint{Scope: sn, Name: n, Kind: "gauge", Value: g.Value()})
			}
			if h, ok := s.hists[n]; ok {
				out = append(out, MetricPoint{
					Scope: sn, Name: n, Kind: "histogram",
					Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
					P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99),
					Buckets: h.Buckets(),
				})
			}
		}
		s.mu.RUnlock()
	}
	return out
}

// totals returns every counter's value and every histogram's count and
// sum, keyed as SpanSnapshot.Counters is (nil on a nil registry): the
// readings a span's counters are the growth of.
func (r *Registry) totals() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for sn, s := range r.scopes {
		s.mu.RLock()
		for n, c := range s.counters {
			out[sn+"."+n] = float64(c.Value())
		}
		for n, h := range s.hists {
			out[sn+"."+n+".count"] = float64(h.Count())
			out[sn+"."+n+".sum"] = h.Sum()
		}
		s.mu.RUnlock()
	}
	return out
}

// promName builds the exposition-format metric name: the repro_ prefix,
// the scope, and the metric name, with non-alphanumeric runes mapped to
// underscores.
func promName(scope, name string) string {
	san := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
				b.WriteRune(r)
			default:
				b.WriteRune('_')
			}
		}
		return b.String()
	}
	return "repro_" + san(scope) + "_" + san(name)
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms with cumulative le buckets plus _sum and _count. No
// external dependencies — the format is plain text.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, m := range r.Snapshot() {
		name := promName(m.Scope, m.Name)
		var err error
		switch m.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", name, name, promFloat(m.Value))
		case "gauge":
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(m.Value))
		case "histogram":
			if _, err = fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
				return err
			}
			cum := int64(0)
			for _, b := range m.Buckets {
				cum += b.Count
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promFloat(b.UpperBound), cum); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, promFloat(m.Sum), name, m.Count); err != nil {
				return err
			}
			// Approximate quantiles reconstructed from the bucket counts,
			// exported as separate gauges (a histogram and a summary cannot
			// share a metric name in the exposition format). Skipped while
			// empty — NaN samples upset some scrapers.
			if m.Count > 0 {
				for _, p := range [...]struct {
					suffix string
					v      float64
				}{{"p50", m.P50}, {"p90", m.P90}, {"p99", m.P99}} {
					if _, err = fmt.Fprintf(w, "# TYPE %s_%s gauge\n%s_%s %s\n",
						name, p.suffix, name, p.suffix, promFloat(p.v)); err != nil {
						return err
					}
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteTable writes a human-readable snapshot of every metric, the table
// the CLIs print at run end.
func (r *Registry) WriteTable(w io.Writer) {
	if r == nil {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SCOPE\tMETRIC\tVALUE")
	for _, m := range r.Snapshot() {
		switch m.Kind {
		case "counter":
			fmt.Fprintf(tw, "%s\t%s\t%d\n", m.Scope, m.Name, int64(m.Value))
		case "gauge":
			fmt.Fprintf(tw, "%s\t%s\t%.6g\n", m.Scope, m.Name, m.Value)
		case "histogram":
			if m.Count == 0 {
				fmt.Fprintf(tw, "%s\t%s\tn=0\n", m.Scope, m.Name)
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\tn=%d mean=%.4g p50=%.4g p99=%.4g min=%.4g max=%.4g\n",
				m.Scope, m.Name, m.Count, m.Sum/float64(m.Count), m.P50, m.P99, m.Min, m.Max)
		}
	}
	tw.Flush()
}
