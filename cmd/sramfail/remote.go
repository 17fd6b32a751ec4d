package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/client"
	"repro/internal/jobs"
	"repro/internal/wire"
)

// remoteJob carries the CLI flags of a -remote submission.
type remoteJob struct {
	workload, method string
	k, n             int
	target           float64
	seed             int64
	quadratic        bool
	workers, mixture int
	distribute       bool
	idemKey          string
	watch            bool
}

// runRemote submits the job to a sramserverd instance through the typed
// client and renders the final snapshot the way a local run would.
// Ctrl-C cancels the remote job before exiting.
func runRemote(base string, rj remoteJob) {
	c := client.New(base, nil)
	req := jobs.Request{
		Workload: rj.workload, Method: rj.method,
		K: rj.k, N: rj.n, Target: rj.target, Seed: rj.seed,
		Quadratic: rj.quadratic, Workers: rj.workers, Mixture: rj.mixture,
		Distribute: rj.distribute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	snap, replayed, err := c.Submit(ctx, req, rj.idemKey)
	if err != nil {
		fatal(err)
	}
	switch {
	case replayed:
		fmt.Fprintf(os.Stderr, "sramfail: idempotent replay of job %s\n", snap.ID)
	case snap.Cached:
		fmt.Fprintf(os.Stderr, "sramfail: job %s served from the result cache\n", snap.ID)
	default:
		fmt.Fprintf(os.Stderr, "sramfail: job %s submitted to %s\n", snap.ID, base)
	}

	var watchDone chan struct{}
	if rj.watch && !snap.State.Terminal() {
		watchDone = make(chan struct{})
		go func() {
			defer close(watchDone)
			watchRemote(ctx, c, snap.ID)
		}()
	}

	final, err := c.Wait(ctx, snap.ID, 250*time.Millisecond)
	if watchDone != nil {
		<-watchDone
	}
	if ctx.Err() != nil {
		// Best-effort cancel with a fresh context: ctx is already dead.
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if cs, cerr := c.Cancel(cctx, snap.ID); cerr == nil {
			fmt.Fprintf(os.Stderr, "sramfail: interrupted, job cancelled after %d simulations\n", cs.Sims)
		}
		os.Exit(130)
	}
	if err != nil {
		fatal(err)
	}
	if final.State != jobs.StateDone {
		fatal(fmt.Errorf("job %s %s: %s", final.ID, final.State, final.Error))
	}
	printRemote(base, final, time.Since(start))
}

// printRemote mirrors the local result block from a job snapshot.
func printRemote(base string, snap jobs.Snapshot, elapsed time.Duration) {
	res := snap.Result
	fmt.Printf("server            %s (job %s", base, snap.ID)
	if snap.Distributed {
		fmt.Printf(", distributed")
	}
	if snap.Cached {
		fmt.Printf(", cached")
	}
	fmt.Printf(")\n")
	fmt.Printf("metric            %s\n", snap.Workload)
	fmt.Printf("method            %s\n", snap.Method)
	fmt.Printf("failure rate      %.4g\n", res.Pf)
	if res.RelErr99 == nil {
		fmt.Printf("relerr (99%% CI)   inf (no failures observed)\n")
	} else {
		fmt.Printf("relerr (99%% CI)   %.2f%%\n", 100**res.RelErr99)
	}
	fmt.Printf("failures          %d / %d stage-2 samples\n", res.Failures, res.N)
	fmt.Printf("simulations       stage1 %d + stage2 %d = %d\n",
		res.Stage1Sims, res.Stage2Sims, res.TotalSims)
	fmt.Printf("wall time         %v (round trip)\n", elapsed.Round(time.Millisecond))
	if snap.Elapsed > 0 {
		fmt.Printf("server time       %.3fs\n", snap.Elapsed)
	}
}

// watchRemote renders the job's SSE progress events as the same
// in-place status line the local -watch mode draws.
func watchRemote(ctx context.Context, c *client.Client, id string) {
	wrote := false
	err := c.Events(ctx, id, -1, func(ev client.Event) error {
		if ev.Name == wire.EvJobDone {
			return errWatchDone
		}
		if ev.Name != wire.EvProgress {
			return nil
		}
		var fields map[string]any
		if json.Unmarshal(ev.Data, &fields) != nil {
			return nil
		}
		fmt.Fprint(os.Stderr, progressLine(fields))
		wrote = true
		return nil
	})
	if wrote {
		fmt.Fprint(os.Stderr, "\n")
	}
	if err != nil && !errors.Is(err, errWatchDone) && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "sramfail: event stream:", err)
	}
}

var errWatchDone = errors.New("watch done")
