// Command butterfly dumps the 6-T cell's transfer curves and stability
// metrics for a given mismatch vector — a window into the
// transistor-level simulation substrate behind the statistical library.
//
//	butterfly                         # nominal cell, read configuration
//	butterfly -config hold
//	butterfly -dvth 0.03,0,-0.02,0,0,0
//	butterfly -cell fastread -csv butterfly.csv
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/sram"
	"repro/internal/telemetry"
)

func main() {
	var (
		configName = flag.String("config", "read", "bias configuration: hold, read or write")
		cellName   = flag.String("cell", "default", "cell variant: default or fastread")
		dvthFlag   = flag.String("dvth", "", "comma-separated ΔVth for M1..M6 in volts")
		csvPath    = flag.String("csv", "", "write the two transfer curves as CSV")
		points     = flag.Int("points", 41, "sweep points per curve")
		teleOut    = flag.String("telemetry", "", "write structured solver events (JSONL) to this file")
		traceOut   = flag.String("trace", "", "write a span trace to this file (Chrome trace JSON, or JSONL with a .jsonl suffix)")
		stats      = flag.Bool("stats", false, "print solver telemetry after the run")
	)
	flag.Parse()

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
		fmt.Fprintln(os.Stderr, "butterfly: interrupted")
		os.Exit(130)
	}()

	cell := sram.Default90nm()
	if *cellName == "fastread" {
		cell = sram.FastRead90nm()
	} else if *cellName != "default" {
		fatal(fmt.Errorf("unknown cell %q", *cellName))
	}
	cell.Grid = *points
	cell.Telemetry = cli.Registry

	var cfg sram.BiasConfig
	switch *configName {
	case "hold":
		cfg = sram.HoldConfig
	case "read":
		cfg = sram.ReadConfig
	case "write":
		cfg = sram.WriteConfig
	default:
		fatal(fmt.Errorf("unknown config %q", *configName))
	}

	var dvth [sram.NumTransistors]float64
	if *dvthFlag != "" {
		parts := strings.Split(*dvthFlag, ",")
		if len(parts) != sram.NumTransistors {
			fatal(fmt.Errorf("-dvth wants %d values, got %d", sram.NumTransistors, len(parts)))
		}
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				fatal(err)
			}
			dvth[i] = v
		}
	}

	g1, g2, err := sram.TransferCurves(cell, cfg, dvth)
	if err != nil {
		fatal(err)
	}
	margins, err := cell.NoiseMargins(cfg, dvth)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("cell %s, %s configuration, ΔVth = %v\n\n", *cellName, cfg, dvth)
	fmt.Printf("butterfly eyes:   state-0 %.4f V, state-1 %.4f V (SNM %.4f V)\n",
		margins.Eye0, margins.Eye1, margins.Min())
	if ir, err := (&sram.Metric{Cell: cell, Kind: sram.ReadCurrent}).Raw(dvth); err == nil {
		fmt.Printf("read current:     %.2f µA\n", ir*1e6)
	}
	if wt, err := (&sram.Metric{Cell: cell, Kind: sram.WNM}).Raw(dvth); err == nil {
		fmt.Printf("write trip:       %.4f V\n", wt)
	}

	fmt.Printf("\n%8s %10s %10s\n", "Vin", "QB=g1(Q)", "Q=g2(QB)")
	for i := range g1.X {
		fmt.Printf("%8.3f %10.4f %10.4f\n", g1.X[i], g1.Y[i], g2.Y[i])
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w := csv.NewWriter(f)
		_ = w.Write([]string{"vin", "g1_qb", "g2_q"})
		for i := range g1.X {
			_ = w.Write([]string{
				fmt.Sprintf("%.5f", g1.X[i]),
				fmt.Sprintf("%.5f", g1.Y[i]),
				fmt.Sprintf("%.5f", g2.Y[i]),
			})
		}
		w.Flush()
		if err := w.Error(); err != nil {
			fatal(err)
		}
		fmt.Println("\nwrote", *csvPath)
	}

	if cli.Registry != nil {
		fmt.Println()
		cli.Registry.WriteTable(os.Stdout)
	}
	if err := cli.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "butterfly:", err)
	os.Exit(1)
}
