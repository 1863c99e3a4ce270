// Command perfbench is the repository's benchmark. It runs one named
// workload in-process on loopback, prints every end-to-end metric with its
// unit, checks the workload's outputs, and ends with one JSON record.
//
//	perfbench --workload ingest-wire --seed 1 --seconds 20 --trace 0
//
// --workload all runs the three workloads in turn, one record each, and
// exits non-zero if any output check failed.
//
// With --trace 1 it runs the workload twice, untraced and then with probes
// around every layer boundary, and reports the per-layer metrics instead,
// including the probes' own cost (tracing.overhead_share).
//
// Workloads, metrics and the layer → metric → workload map are described
// in METRICS.md beside this file. Inputs are generated from --seed; the
// program under test only ever sees the generated inputs.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*result, error){
	"ingest-wire": runIngestWire,
	"mixed-http":  runMixedHTTP,
	"sweep-fig10": runSweepFig10,
}

// env is what a workload run gets: the seed, the measuring time, a work
// directory, and whether to probe layers.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	dir     string
	// ingest and sweep, when set, replace the workloads' parameters
	// (tests shrink them).
	ingest *ingestParams
	sweep  *sweepParams
}

// endToEnd and perLayer list the metrics every run reports, in order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"observe_p50_us", "us"},
	{"max_ops_per_s", "1/s"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: ingest-wire, mixed-http, sweep-fig10, or all of them in turn")
		seed    = flag.Int64("seed", 1, "input generator seed")
		seconds = flag.Float64("seconds", 10, "measuring time per run")
		traced  = flag.Int("trace", 0, "1 = also run with per-layer probes and report per-layer metrics")
	)
	flag.Parse()
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	switch {
	case *name == "all":
	case workloads[*name] != nil:
		names = []string{*name}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v or all)\n", *name, names)
		os.Exit(2)
	}
	correct := true
	for _, n := range names {
		ok, err := run(n, *seed, *seconds, *traced == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		correct = correct && ok
	}
	// A single workload reports a failed check in its record; running them
	// all, the command itself fails.
	if !correct && len(names) > 1 {
		os.Exit(1)
	}
}

// run runs one workload and prints its record; it reports whether every
// output check passed.
func run(name string, seed int64, seconds float64, traced bool) (bool, error) {
	wl := workloads[name]
	if seconds <= 0 {
		return false, fmt.Errorf("--seconds %g must be positive", seconds)
	}
	// Pin the scheduler to the CPUs this process may use, so numbers mean
	// the same on every machine with that many CPUs.
	runtime.GOMAXPROCS(runtime.NumCPU())

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)

	fp := machineFingerprint(seed)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v\n", name, seed, seconds, traced)
	fmt.Print("fingerprint ")
	if err := writeJSONLine(os.Stdout, fp); err != nil {
		return false, err
	}

	e := &env{seed: seed, seconds: seconds, dir: dir}
	start := time.Now()
	steal0, total0 := cpuTicks()
	res, err := wl(e)
	if err != nil {
		return false, err
	}
	out := output{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	runs := []*result{res}
	if traced {
		e.traced = true
		tr, err := wl(e)
		if err != nil {
			return false, err
		}
		runs = append(runs, tr)
		out.Attempted += tr.Attempted
		out.Failed += tr.Failed
		tr.layer("tracing.overhead_share", overheadShare(name, res, tr))
		// The load generator's figures and the heap peak come from the
		// untraced run, which the probes did not slow or grow.
		for k, v := range res.Layers {
			if strings.HasPrefix(k, "loadgen.") || strings.HasPrefix(k, "runtime.") {
				tr.layer(k, v)
			}
		}
		res.Layers = tr.Layers
	}
	out.Correct = true
	for i, r := range runs {
		if i == 1 {
			fmt.Println("traced run:")
		}
		printResult(r)
		out.Correct = out.Correct && r.correct()
	}
	if traced {
		for _, l := range perLayerNames {
			v := res.Layers[l.name]
			fmt.Printf("layer %-34s %14.6g %s\n", l.name, v, l.unit)
			out.Metrics[l.name] = metricValue{Value: v, Unit: l.unit}
		}
	} else {
		for _, m := range endToEnd {
			v := res.e2e(m.name)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false, fmt.Errorf("workload %s did not measure %s", name, m.name)
			}
			out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		// Time the hypervisor gave this machine's CPUs to someone else:
		// a run with much of it was slowed from outside the program.
		fmt.Printf("machine: hypervisor steal %.1f%% of CPU time during the run\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	fmt.Printf("run: %.1fs wall, failed_ratio %.6g (%d of %d operations)\n",
		time.Since(start).Seconds(), float64(out.Failed)/float64(max(out.Attempted, 1)), out.Failed, out.Attempted)
	if out.Attempted < 1 {
		return false, fmt.Errorf("workload %s attempted no operations", name)
	}
	return out.Correct, writeJSONLine(os.Stdout, out)
}

// overheadShare is how much slower the traced run's headline metric was
// than the untraced run's, as a share of the untraced value.
func overheadShare(name string, plain, traced *result) float64 {
	if name == "sweep-fig10" {
		return plain.e2e("max_ops_per_s")/traced.e2e("max_ops_per_s") - 1
	}
	return traced.e2e("observe_p50_us")/plain.e2e("observe_p50_us") - 1
}

func printResult(r *result) {
	for _, line := range r.Info {
		fmt.Println("info", line)
	}
	for _, m := range r.E2E {
		fmt.Printf("metric %-22s %14.6g %-4s", m.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Printf(" n=%d", m.Samples)
		}
		if m.Top > 0 {
			fmt.Printf(" p%.4g=%.6g", 100*m.Top, m.TopValue)
		}
		fmt.Println()
	}
	for _, c := range r.Checks {
		status := "ok"
		if c.Err != nil {
			status = "FAILED: " + c.Err.Error()
		}
		fmt.Printf("check %s: %s\n", c.Name, status)
	}
}

// stateDir returns a fresh directory under the run's work directory.
func (e *env) stateDir(name string) (string, error) {
	d := filepath.Join(e.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}
