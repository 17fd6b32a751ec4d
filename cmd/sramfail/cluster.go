package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/dist"
)

// watchCluster renders the -watch-cluster fleet dashboard: a live
// multi-line terminal view of GET /v1/cluster (workers, leases, folded
// sampling rate) refreshed about once a second, with the tail of the
// server's global SSE firehose underneath. Ctrl-C exits.
func watchCluster(base string) {
	c := client.New(base, nil)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The event tail rides the global firehose in the background; a
	// server without the event plane just leaves it empty.
	tail := &eventTail{}
	go func() {
		for ctx.Err() == nil {
			c.Events(ctx, "", -1, func(ev client.Event) error {
				tail.add(ev)
				return nil
			})
			select {
			case <-ctx.Done():
			case <-time.After(time.Second):
			}
		}
	}()

	drawn := 0
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		sum, err := c.Cluster(ctx)
		var lines []string
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			lines = []string{fmt.Sprintf("cluster @ %s: %v", base, err)}
		} else {
			lines = renderCluster(base, sum, tail.snapshot())
		}
		// In-place redraw: climb back over the previous frame, then
		// overwrite line by line (clearing each), so the dashboard
		// repaints without scrolling.
		if drawn > 0 {
			fmt.Fprintf(os.Stderr, "\x1b[%dA", drawn)
		}
		for _, l := range lines {
			fmt.Fprintf(os.Stderr, "\r\x1b[K%s\n", l)
		}
		for i := len(lines); i < drawn; i++ {
			fmt.Fprint(os.Stderr, "\r\x1b[K\n")
		}
		if d := drawn - len(lines); d > 0 {
			fmt.Fprintf(os.Stderr, "\x1b[%dA", d)
		}
		drawn = len(lines)

		select {
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr)
			return
		case <-ticker.C:
		}
	}
	fmt.Fprintln(os.Stderr)
}

// renderCluster formats one dashboard frame.
func renderCluster(base string, sum dist.ClusterSummary, events []client.Event) []string {
	lines := []string{
		fmt.Sprintf("cluster @ %s   jobs %d   leases %d active / %d pending   %.0f sims/s   granted %d done %d expired %d failed %d",
			base, sum.DistJobs, sum.ActiveLeases, sum.PendingRanges, sum.SimsPerSec,
			sum.LeasesGranted, sum.LeasesCompleted, sum.LeasesExpired, sum.LeasesFailed),
	}
	if len(sum.Workers) == 0 {
		lines = append(lines, "  (no workers registered)")
	} else {
		lines = append(lines, fmt.Sprintf("  %-20s %5s %4s %6s %5s %5s %12s %10s  %s",
			"WORKER", "CORES", "ACT", "DONE", "FAIL", "EXP", "SIMS", "RATE", "HEALTH"))
		for _, w := range sum.Workers {
			health := "-"
			if len(w.Health) > 0 {
				health = strings.Join(w.Health, ",")
			}
			lines = append(lines, fmt.Sprintf("  %-20s %5d %4d %6d %5d %5d %12d %8.0f/s  %s",
				clip(w.ID, 20), w.Cores, w.Active, w.Completed, w.Failed, w.Expired,
				w.Sims, w.SimsPerSec, health))
		}
	}
	if len(events) > 0 {
		lines = append(lines, "  recent events:")
		for _, ev := range events {
			lines = append(lines, clip(fmt.Sprintf("    #%d %s %s", ev.ID, ev.Name, ev.Data), 160))
		}
	}
	return lines
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// eventTail is a small concurrent ring of the last firehose events.
type eventTail struct {
	mu   sync.Mutex
	evs  []client.Event
	keep int
}

func (t *eventTail) add(ev client.Event) {
	// Heartbeat-ish frames with no name carry nothing to show.
	if strings.TrimSpace(ev.Name) == "" {
		return
	}
	t.mu.Lock()
	if t.keep == 0 {
		t.keep = 5
	}
	t.evs = append(t.evs, ev)
	if len(t.evs) > t.keep {
		t.evs = t.evs[len(t.evs)-t.keep:]
	}
	t.mu.Unlock()
}

func (t *eventTail) snapshot() []client.Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]client.Event(nil), t.evs...)
}
