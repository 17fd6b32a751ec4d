package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// hardware records where a results file was measured.
type hardware struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

// workloadResult is one child process's output.
type workloadResult struct {
	Workload string         `json:"workload"`
	Info     map[string]any `json:"info"`
	Result   result         `json:"result"`
}

// resultsFile is what a full run writes: untraced passes, then one
// traced pass, each holding every workload.
type resultsFile struct {
	Hardware hardware           `json:"hardware"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Passes   [][]workloadResult `json:"passes"`
	Traced   []workloadResult   `json:"traced"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runAll measures every workload in a child process of its own — so one
// workload's heap and peak RSS never carry into the next — for passes
// untraced passes and one traced pass, and writes out/results.json.
func runAll(ctx context.Context, seed int64, seconds float64, passes int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rf := resultsFile{
		Hardware: hardware{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
			GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		},
		Seed: seed, Seconds: seconds,
	}
	failed := 0
	pass := func(trace int) ([]workloadResult, error) {
		var res []workloadResult
		for _, w := range workloads {
			wr, err := child(ctx, exe, w.name, seed, seconds, trace, out)
			if err != nil {
				if errors.Is(err, context.Canceled) {
					return nil, err
				}
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				failed++
			}
			fmt.Fprintf(os.Stderr, "%s trace=%d: correct=%t attempted=%d failed=%d\n",
				w.name, trace, wr.Result.Correct, wr.Result.Attempted, wr.Result.Failed)
			res = append(res, wr)
		}
		return res, nil
	}
	for p := 0; p < passes; p++ {
		res, err := pass(0)
		if err != nil {
			return err
		}
		rf.Passes = append(rf.Passes, res)
	}
	if rf.Traced, err = pass(1); err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, "results.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if failed > 0 {
		return fmt.Errorf("%d workload runs failed: %w", failed, errChecks)
	}
	return nil
}

// child runs one workload in a child process and parses its output: the
// info line, then the result line.
func child(ctx context.Context, exe, name string, seed int64, seconds float64, trace int, out string) (workloadResult, error) {
	wr := workloadResult{Workload: name}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", out)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return wr, ctx.Err()
	}
	var lines []string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 {
		return wr, errors.Join(runErr, errors.New("no result printed"))
	}
	var info struct {
		Info map[string]any `json:"info"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
		return wr, errors.Join(runErr, fmt.Errorf("info line: %w", err))
	}
	wr.Info = info.Info
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &wr.Result); err != nil {
		return wr, errors.Join(runErr, fmt.Errorf("result line: %w", err))
	}
	return wr, runErr
}

func loadResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Passes) == 0 {
		return nil, fmt.Errorf("%s: no untraced passes", path)
	}
	return &rf, nil
}

// values collects a metric of one workload over every untraced pass.
func (rf *resultsFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, pass := range rf.Passes {
		for _, wr := range pass {
			if v, ok := wr.Result.Metrics[metric]; ok && wr.Workload == workload {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}

// runCompare compares a base and a change results file metric by metric:
// each side's median and quartiles over its untraced passes, the change
// of the median in the metric's worse direction, and a verdict. A metric
// whose base spread (interquartile range over median) exceeds its bound
// is unresolved unless every change value beats every base value; a
// resolved metric that worsened beyond its bound is a regression, and
// any regression makes the comparison fail.
func runCompare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("-compare takes two results files: base.json change.json")
	}
	base, err := loadResults(args[0])
	if err != nil {
		return err
	}
	change, err := loadResults(args[1])
	if err != nil {
		return err
	}
	s, err := loadSpec()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tchange median [q1, q3]\tworse by\tbound\tverdict")
	regressions := 0
	for _, wr := range base.Passes[0] {
		for _, sm := range s.EndToEnd {
			a, b := base.values(wr.Workload, sm.Name), change.values(wr.Workload, sm.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t%.2f\tmissing\n", wr.Workload, sm.Name, sm.Bound)
				continue
			}
			verdict, worse := judge(a, b, sm)
			if verdict == "REGRESSION" {
				regressions++
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.0f%%\t%s\n",
				wr.Workload, sm.Name, a2, a1, a3, b2, b1, b3, 100*worse, 100*sm.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressions > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound", regressions)
	}
	return nil
}

// judge returns the verdict on base values a and change values b of one
// metric, and the relative change of the median in its worse direction.
func judge(a, b []float64, sm specMetric) (string, float64) {
	a1, a2, a3 := quartiles(a)
	_, b2, _ := quartiles(b)
	sign := 1.0 // lower is better: an increase is worse
	if sm.Better == "higher" {
		sign = -1
	}
	worse := sign * (b2 - a2) / math.Abs(a2)
	if (a3-a1)/math.Abs(a2) > sm.Bound {
		if allBetter(a, b, sign) {
			return "better", worse
		}
		return "unresolved", worse
	}
	if worse > sm.Bound {
		return "REGRESSION", worse
	}
	return "ok", worse
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}
