// Command spicecli runs the circuit-simulation substrate on a
// SPICE-flavored netlist file: DC operating points and DC sweeps.
//
//	spicecli -op circuit.sp
//	spicecli -sweep vin:0:1:51 -probe out circuit.sp
//
// See internal/spice.ParseNetlist for the accepted netlist syntax.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"

	"repro/internal/spice"
	"repro/internal/telemetry"
)

func main() {
	var (
		doOP     = flag.Bool("op", false, "print the DC operating point")
		sweep    = flag.String("sweep", "", "DC sweep: SOURCE:START:STOP:STEPS")
		probe    = flag.String("probe", "", "comma-separated nodes to print (default: all)")
		teleOut  = flag.String("telemetry", "", "write structured solver events (JSONL) to this file")
		traceOut = flag.String("trace", "", "write a span trace to this file (Chrome trace JSON, or JSONL with a .jsonl suffix)")
		stats    = flag.Bool("stats", false, "print solver telemetry (iterations, strategies, latencies) after the run")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: spicecli [-op] [-sweep src:a:b:n] [-probe nodes] netlist.sp")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	ckt, err := spice.ParseNetlist(f)
	if err != nil {
		fatal(err)
	}
	nodes := probeList(*probe, ckt)

	cli, err := telemetry.StartCLI(*teleOut, *traceOut, "", *stats)
	if err != nil {
		fatal(err)
	}

	// Ctrl-C flushes telemetry and exits instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	go func() {
		<-ctx.Done()
		stop()
		cli.Close()
		fmt.Fprintln(os.Stderr, "spicecli: interrupted")
		os.Exit(130)
	}()
	dc := &spice.DCOptions{Telemetry: cli.Registry}

	if *doOP || *sweep == "" {
		op, err := ckt.SolveDC(dc)
		if err != nil {
			fatal(err)
		}
		fmt.Println("DC operating point:")
		for _, n := range nodes {
			fmt.Printf("  V(%s) = %.6g V\n", n, op.Voltage(n))
		}
		fmt.Printf("  converged via %s in %d Newton iterations (residual %.3g)\n",
			op.Strategy(), op.NewtonIterations(), op.Residual())
	}
	if *sweep != "" {
		parts := strings.Split(*sweep, ":")
		if len(parts) != 4 {
			fatal(fmt.Errorf("bad -sweep %q", *sweep))
		}
		start, err1 := spice.ParseValue(parts[1])
		stop, err2 := spice.ParseValue(parts[2])
		steps, err3 := strconv.Atoi(parts[3])
		if err1 != nil || err2 != nil || err3 != nil {
			fatal(fmt.Errorf("bad -sweep %q", *sweep))
		}
		fmt.Printf("%12s", parts[0])
		for _, n := range nodes {
			fmt.Printf(" %12s", "V("+n+")")
		}
		fmt.Println()
		err = ckt.Sweep(parts[0], start, stop, steps, dc, func(v float64, op *spice.OperatingPoint) bool {
			fmt.Printf("%12.5g", v)
			for _, n := range nodes {
				fmt.Printf(" %12.5g", op.Voltage(n))
			}
			fmt.Println()
			return true
		})
		if err != nil {
			fatal(err)
		}
	}
	if cli.Registry != nil {
		fmt.Println()
		cli.Registry.WriteTable(os.Stdout)
	}
	if err := cli.Close(); err != nil {
		fatal(err)
	}
}

func probeList(probe string, ckt *spice.Circuit) []string {
	if probe != "" {
		return strings.Split(probe, ",")
	}
	nodes := ckt.NodeNames()
	sort.Strings(nodes)
	return nodes
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spicecli:", err)
	os.Exit(1)
}
