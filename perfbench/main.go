// Command perfbench is shogun's layered benchmark. One command runs one
// workload and prints, as the last line of standard output, a JSON
// object with the correctness verdict, attempted and failed operation
// counts, and every end-to-end metric (--trace 0) or every per-layer
// metric (--trace 1) by name with its unit. A human summary goes to
// standard error.
//
// Workloads:
//
//	sim-batch       fixed job list through accel/cluster in-process
//	serve-count     open-loop count/mine requests against shogund
//	serve-simulate  open-loop simulate requests on uploaded graphs
//
// Build and run it through run.sh from the repository root; see
// README.md for what each workload and metric is for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"shogun/internal/graph"
	"shogun/internal/mine"
	"shogun/internal/pattern"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	shogund  string // daemon binary for the serving workloads
	workdir  string // daemon logs and span dumps
}

// duration is the measured interval.
func (o options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

// spanPath is where a traced run writes its spans.
func (o options) spanPath() string {
	return filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
}

var workloads = map[string]func(context.Context, options) (*outcome, error){
	"sim-batch":      runSimBatch,
	"serve-count":    runServeCount,
	"serve-simulate": runServeSimulate,
}

// outcome is what a workload measured.
type outcome struct {
	values            map[string]float64
	attempted, failed int64
	wrongOutputs      int64 // results that disagree with the software miner or repeat inexactly
	notes             []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail counts a failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		o.note("failed: "+format, args...)
	}
}

// wrong counts a failed operation whose output was incorrect.
func (o *outcome) wrong(format string, args ...any) {
	o.wrongOutputs++
	o.fail("wrong output: "+format, args...)
}

// addMine folds a golden computation's exact work into the mine.*
// counts: the miner's share of the workload's distinct inputs.
func (o *outcome) addMine(g golden) {
	o.values["mine.tasks"] += float64(g.tasks)
	o.values["mine.setop_elements"] += float64(g.setops)
}

// setPeakRSS sets peak_rss_mb from a process's VmHWM ("self" = this
// process).
func (o *outcome) setPeakRSS(pid string) error {
	mib, err := peakRSSMiB(pid)
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	o.set("peak_rss_mb", mib)
	return nil
}

// replayCount times one single-worker count, the call shogund makes
// for a count or mine request at its default -miner-workers 1.
func replayCount(ctx context.Context, g *graph.Graph, s *pattern.Schedule) (time.Duration, error) {
	t0 := time.Now()
	if _, err := mine.ParallelCountContext(ctx, g, s, 1); err != nil {
		return 0, fmt.Errorf("replay count: %w", err)
	}
	return time.Since(t0), nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render selects the metrics of the run's mode. Every end-to-end metric
// must have been measured; a per-layer one a workload does not exercise
// reads 0.
func (o *outcome) render(trace bool) (result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := result{
		Correct:   o.wrongOutputs == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && !trace {
			return r, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{v, d.unit}
	}
	if r.Attempted < 1 {
		return r, fmt.Errorf("no operations attempted")
	}
	return r, nil
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "sim-batch | serve-count | serve-simulate")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: fixes every generated input")
	flag.IntVar(&o.seconds, "seconds", 30, "measured interval in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.shogund, "shogund", "", "shogund binary (serving workloads)")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/run", "directory for daemon logs and span dumps")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options, trace int) error {
	fn, ok := workloads[o.workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q (want sim-batch, serve-count or serve-simulate)", o.workload)
	case o.seconds < 1:
		return fmt.Errorf("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	// The host has two CPUs: the generator and the program share them.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := fn(ctx, o)
	if err != nil {
		return err
	}
	res, err := out.render(o.trace)
	if err != nil {
		return err
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(os.Stderr, "%-32s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
