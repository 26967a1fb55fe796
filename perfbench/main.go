// Command perfbench is the repository's benchmark. It runs one named
// workload against the reproduction's public surfaces — the figure
// suite, the streamed simulator behind /v1/simulate, and the whole
// service over loopback HTTP — checks every output, and prints the
// end-to-end metrics. With --trace 1 it instead times each layer's
// public entry point from the benchmark's own code and prints the
// per-layer metrics. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// The exit status is non-zero when any output was wrong or the run
// could not complete.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	root    string // repository checkout the run reads its expected outputs from
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// named is a workload-specific end-to-end metric, printed in the
// report under the name the README gives it.
type named struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// outcome is what one untraced workload run measured.
type outcome struct {
	Attempted, Failed int64
	Setups            []float64 // seconds, one per set-up
	CPUMS             float64   // process CPU time per unit of work in the timed phase
	HeapMB            float64   // peak heap over set-up and timed phase, MiB
	Named             []named
	Lines             []string // further report lines
	Problems          []string // wrong outputs, one line each
}

// workload is one named way of loading the system.
type workloadDef struct {
	Name string
	// Run executes the untraced workload.
	Run func(o options) (*outcome, error)
	// Unit names what CPUMS counts.
	Unit string
}

var workloads = []workloadDef{
	{Name: "figures", Run: runFigures, Unit: "one regeneration of Figures 5, 7, 10, 13 and 14"},
	{Name: "replay", Run: runReplay, Unit: "one pass of the eight streamed /v1/simulate requests"},
	{Name: "serve", Run: runServe, Unit: "one request of the low and high phases"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "figures", "workload: figures, replay or serve")
	seed := fs.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := fs.Float64("seconds", 25, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 times every layer and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, root: "."}
	host := currentHost(o.root)
	hostLine, err := json.Marshal(host)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "host %s\n", hostLine)

	steal0, total0, ok0 := stealSample()
	var res result
	if o.trace {
		res, err = runTraced(o, w, host, stdout)
	} else {
		res, err = runUntraced(o, w, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	fmt.Fprintf(stdout, "host steal %.2f%% of machine CPU time during the run (-1: unknown)\n", stealSince(steal0, total0, ok0))
	if err := checkDeclared(o.root, o.trace, res.Metrics); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runUntraced runs the workload with tracing off and returns its
// end-to-end metrics, printing the workload-named ones as a report.
func runUntraced(o options, w workloadDef, out io.Writer) (result, error) {
	oc, err := w.Run(o)
	if err != nil {
		return result{}, err
	}
	if len(oc.Setups) == 0 || oc.Attempted == 0 {
		return result{}, errors.New("workload measured nothing")
	}
	setup := median(oc.Setups)
	errRate := float64(oc.Failed) / float64(oc.Attempted)
	fmt.Fprintf(out, "workload %s: unit of work = %s\n", w.Name, w.Unit)
	printNamed(out, append([]named{
		{Name: "setup_s", Value: setup, Unit: "s", Note: fmt.Sprintf("median of %d set-ups", len(oc.Setups))},
		{Name: "error_rate", Value: errRate, Unit: "ratio", Note: fmt.Sprintf("%d of %d failed or wrong", oc.Failed, oc.Attempted)},
		{Name: "heap_peak_mb", Value: oc.HeapMB, Unit: "MiB", Note: "peak live heap over set-up and timed phase"},
	}, oc.Named...))
	for _, l := range oc.Lines {
		fmt.Fprintln(out, l)
	}
	for _, p := range oc.Problems {
		fmt.Fprintf(out, "WRONG %s\n", p)
	}
	return result{
		Correct:   oc.Failed == 0 && len(oc.Problems) == 0,
		Attempted: oc.Attempted,
		Failed:    oc.Failed,
		Metrics: map[string]metric{
			"setup_s":      {setup, "s"},
			"cpu_ms":       {oc.CPUMS, "ms"},
			"heap_peak_mb": {oc.HeapMB, "MiB"},
		},
	}, nil
}

// runTraced runs the per-layer probes and a traced pass of every
// workload, writes the spans, and returns the per-layer metrics.
func runTraced(o options, w workloadDef, host hostInfo, out io.Writer) (result, error) {
	tr := newTracer()
	lr, err := runLayers(o, w, tr)
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(o.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.Name, o.seed))
	if err := tr.write(path, host, w.Name, o.seed); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	names := make([]string, 0, len(lr.Metrics))
	for n := range lr.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "layer %-40s %14.6g %s\n", n, lr.Metrics[n].Value, lr.Metrics[n].Unit)
	}
	for _, p := range lr.Problems {
		fmt.Fprintf(out, "WRONG %s\n", p)
	}
	return result{
		Correct:   lr.Failed == 0 && len(lr.Problems) == 0,
		Attempted: lr.Attempted,
		Failed:    lr.Failed,
		Metrics:   lr.Metrics,
	}, nil
}

// checkDeclared fails when the metrics a run reports differ from the
// names BENCHMARK.json declares for its mode (end_to_end untraced,
// per_layer traced). A checkout without BENCHMARK.json skips the check.
func checkDeclared(root string, traced bool, got map[string]metric) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("read BENCHMARK.json: %w", err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	var problems []string
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+d.Name)
		case m.Unit != d.Unit:
			problems = append(problems, fmt.Sprintf("%s in %s, declared %s", d.Name, m.Unit, d.Unit))
		}
	}
	if len(got) != len(want) {
		problems = append(problems, fmt.Sprintf("%d metrics reported, %d declared", len(got), len(want)))
	}
	if len(problems) > 0 {
		return fmt.Errorf("metrics disagree with BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

func printNamed(out io.Writer, ns []named) {
	for _, n := range ns {
		note := ""
		if n.Note != "" {
			note = "  (" + n.Note + ")"
		}
		fmt.Fprintf(out, "metric %-14s %14.6g %s%s\n", n.Name, n.Value, n.Unit, note)
	}
}

// timeIt runs fn and returns its wall time.
func timeIt(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// cpuTime returns the CPU time the process has used, user and system,
// across all its threads. Time the host steals from the machine is not
// in it, which makes it steadier than wall time on a shared host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with a valid who and pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
