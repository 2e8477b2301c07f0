package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"shogun/internal/accel"
	"shogun/internal/cluster"
	"shogun/internal/datasets"
	"shogun/internal/graph"
	"shogun/internal/pattern"
	"shogun/internal/sim"
)

// simJob is one simulation the benchmark runs in-process through the
// public accel/cluster API.
type simJob struct {
	name       string
	graph      string // dataset name, or "rmat" for the seeded graph
	pattern    string
	scheme     accel.Scheme
	pes        int // 0 keeps the Table 3 default
	splitMerge bool
	chips      int      // > 1 runs a cluster with hash partitioning
	sample     sim.Time // epoch-sampler period, 0 = off
}

// simBatchJobs is the fixed sim-batch job list: cacheable (wi),
// DRAM-bound (or), skewed with split and merge (yo), the baseline
// policy (fingers), the multi-chip cluster, and a small seeded machine.
var simBatchJobs = []simJob{
	{name: "wi/4cl", graph: "wi", pattern: "4cl", scheme: accel.SchemeShogun},
	{name: "or/tc", graph: "or", pattern: "tc", scheme: accel.SchemeShogun},
	{name: "yo/4cl+split+merge", graph: "yo", pattern: "4cl", scheme: accel.SchemeShogun, splitMerge: true},
	{name: "lj/tc/fingers", graph: "lj", pattern: "tc", scheme: accel.SchemeFingers},
	{name: "yo/tc/4-chip", graph: "yo", pattern: "tc", scheme: accel.SchemeShogun, chips: 4},
	{name: "rmat/4cl/4-pe", graph: "rmat", pattern: "4cl", scheme: accel.SchemeShogun, pes: 4},
}

// accelConfig is the job's chip: the Table 3 default for its scheme
// with the job's machine-shape overrides.
func (j simJob) accelConfig() accel.Config {
	cfg := accel.DefaultConfig(j.scheme)
	if j.pes > 0 {
		cfg.NumPEs = j.pes
	}
	cfg.EnableSplitting = j.splitMerge
	cfg.EnableMerging = j.splitMerge
	cfg.SampleEvery = j.sample
	return cfg
}

// callMetric names and scales a traced call's time as its per-layer
// metric, "<span>_<unit>".
func callMetric(call string, d time.Duration) (string, float64) {
	if callUnits[call] == "us" {
		return call + "_us", us(d)
	}
	return call + "_ms", ms(d)
}

// callUnits maps each traced public call (the span name) to the unit
// of its per-layer metric.
var callUnits = map[string]string{
	"accel.new":      "ms",
	"accel.start":    "us",
	"sim.run":        "ms",
	"accel.drained":  "us",
	"metrics.verify": "ms",
	"accel.collect":  "ms",
	"cluster.new":    "ms",
	"cluster.run":    "ms",
}

// jobResult is what one simulation produced. snapshot is called after
// timing stops: building the metrics registry is not part of a run.
type jobResult struct {
	embeddings, tasks, cycles, events int64
	snapshot                          func() map[string]int64
}

// runJob runs j on (g, s). With rec nil it calls New and RunContext,
// as a user would; with a recorder it calls the public steps that make
// up RunContext one by one, in the same order, each inside a span.
func runJob(ctx context.Context, j simJob, g *graph.Graph, s *pattern.Schedule, rec *recorder, parent int) (jobResult, error) {
	step := func(name string, fn func() error) error {
		if rec == nil {
			return fn()
		}
		return rec.timed(name, j.name, parent, fn)
	}
	if j.chips > 1 {
		ccfg := cluster.DefaultConfig(j.scheme, j.chips)
		ccfg.Chip = j.accelConfig()
		ccfg.Partition = cluster.ModeHash
		var cl *cluster.Cluster
		var res *cluster.Result
		err := step("cluster.new", func() (err error) { cl, err = cluster.New(g, s, ccfg); return err })
		if err == nil {
			err = step("cluster.run", func() (err error) { res, err = cl.RunContext(ctx); return err })
		}
		if err != nil {
			return jobResult{}, fmt.Errorf("%s: %w", j.name, err)
		}
		return jobResult{res.Embeddings, res.Tasks + res.LeafTasks, int64(res.Cycles), res.Events,
			func() map[string]int64 { return cl.Metrics().Snapshot() }}, nil
	}
	var a *accel.Accelerator
	var res *accel.Result
	var err error
	if rec == nil {
		if a, err = accel.New(g, s, j.accelConfig()); err == nil {
			res, err = a.RunContext(ctx)
		}
	} else {
		err = step("accel.new", func() (err error) { a, err = accel.New(g, s, j.accelConfig()); return err })
		if err == nil {
			err = step("accel.start", func() error { a.Start(); return nil })
		}
		if err == nil {
			err = step("sim.run", func() error { return a.Engine().RunGoverned(ctx, a.Budget()) })
		}
		if err == nil {
			err = step("accel.drained", a.Drained)
		}
		if err == nil {
			err = step("metrics.verify", a.VerifyMetrics)
		}
		if err == nil {
			err = step("accel.collect", func() error { res = a.Collect(); return nil })
		}
	}
	if err != nil {
		return jobResult{}, fmt.Errorf("%s: %w", j.name, err)
	}
	return jobResult{res.Embeddings, res.Tasks + res.LeafTasks, int64(res.Cycles), res.Events,
		func() map[string]int64 { return a.Metrics().Snapshot() }}, nil
}

// simInputs are sim-batch's graphs and schedules.
type simInputs struct {
	graphs map[string]*graph.Graph
	scheds map[string]*pattern.Schedule
}

// buildSimInputs builds every graph and schedule the job list needs,
// timing the two halves. It bypasses the datasets package's memo so
// each call pays the full build.
func buildSimInputs(seed int64) (in simInputs, graphs, scheds time.Duration, err error) {
	in = simInputs{map[string]*graph.Graph{}, map[string]*pattern.Schedule{}}
	t0 := time.Now()
	for _, j := range simBatchJobs {
		if _, ok := in.graphs[j.graph]; ok {
			continue
		}
		if j.graph == "rmat" {
			in.graphs[j.graph] = rmatGraph(subSeed(seed, streamRMATJob))
			continue
		}
		spec, err := datasets.Lookup(j.graph)
		if err != nil {
			return in, 0, 0, err
		}
		in.graphs[j.graph] = spec.Make()
	}
	t1 := time.Now()
	for _, j := range simBatchJobs {
		if _, ok := in.scheds[j.pattern]; ok {
			continue
		}
		s, err := buildSchedule(j.pattern)
		if err != nil {
			return in, 0, 0, err
		}
		in.scheds[j.pattern] = s
	}
	return in, t1.Sub(t0), time.Since(t1), nil
}

// setupRepeats is how many times sim-batch repeats its set-up; setup_s
// is the median.
const setupRepeats = 7

// pass is one run through the whole job list.
type pass struct {
	traced  bool
	dur     time.Duration
	jobDurs []time.Duration // by job index; 0 for a failed job
	tasks   int64
	counts  counts
	calls   map[string]time.Duration // traced: Σ span time per public call
	harness time.Duration            // traced: self time of pass and job spans
	// runEvents counts the events of the single-chip jobs, the ones
	// whose event loop sim.run times.
	runEvents int64
}

// runSimBatch is the sim-batch workload: one closed-loop caller runs the
// job list pass after pass for the measured interval. In traced mode
// untraced and traced passes alternate, so their difference is the
// tracing overhead under the same conditions.
func runSimBatch(ctx context.Context, o options) (*outcome, error) {
	out := newOutcome()
	var in simInputs
	var setups, dsTimes, patTimes []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		var gd, sd time.Duration
		var err error
		if in, gd, sd, err = buildSimInputs(o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		dsTimes = append(dsTimes, ms(gd))
		patTimes = append(patTimes, us(sd))
	}
	out.set("setup_s", median(setups))
	out.set("datasets.build_ms", median(dsTimes))
	out.set("pattern.build_us", median(patTimes))

	want := map[string]golden{}
	var mineMS []float64
	for _, j := range simBatchJobs {
		key := j.graph + "/" + j.pattern
		if _, ok := want[key]; ok {
			continue
		}
		gl, err := mineGolden(ctx, in.graphs[j.graph], in.scheds[j.pattern])
		if err != nil {
			return nil, err
		}
		want[key] = gl
		out.addMine(gl)
		if o.trace {
			d, err := replayCount(ctx, in.graphs[j.graph], in.scheds[j.pattern])
			if err != nil {
				return nil, err
			}
			mineMS = append(mineMS, ms(d))
		}
	}
	out.set("mine.count_ms", mean(mineMS))

	rec := newRecorder()
	var passes []pass
	deadline := time.Now().Add(o.duration())
	for n := 0; len(passes) < 2 || time.Now().Before(deadline); n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		traced := o.trace && n%2 == 1
		p := pass{traced: traced, jobDurs: make([]time.Duration, len(simBatchJobs))}
		var r *recorder
		root := -1
		first := len(rec.spans)
		if traced {
			r = rec
			root = r.begin("pass", fmt.Sprintf("pass%d", n), -1)
		}
		for ji, j := range simBatchJobs {
			t0 := time.Now()
			jroot := -1
			if traced {
				jroot = r.begin("job", j.name, root)
			}
			res, err := runJob(ctx, j, in.graphs[j.graph], in.scheds[j.pattern], r, jroot)
			if traced {
				r.finish(jroot)
			}
			d := time.Since(t0)
			out.attempted++
			if err != nil {
				out.fail("%v", err)
				continue
			}
			if gl := want[j.graph+"/"+j.pattern]; res.embeddings != gl.embeddings {
				out.wrong("%s: %d embeddings, software miner says %d", j.name, res.embeddings, gl.embeddings)
			}
			p.dur += d
			p.jobDurs[ji] = d
			p.tasks += res.tasks
			p.counts.cycles += res.cycles
			p.counts.events += res.events
			if j.chips <= 1 {
				p.runEvents += res.events
			}
			p.counts.addSnapshot(res.snapshot())
		}
		if traced {
			r.finish(root)
			p.calls, p.harness = callTimes(rec.spans, first)
		}
		if len(passes) > 0 && p.counts != passes[0].counts {
			out.wrong("pass %d: modelled counts differ from pass 0: %+v vs %+v", n, p.counts, passes[0].counts)
		}
		passes = append(passes, p)
	}
	if o.trace {
		if err := rec.writeChrome(o.spanPath()); err != nil {
			return nil, err
		}
	}
	if err := out.setPeakRSS("self"); err != nil {
		return nil, err
	}
	out.setSimBatch(passes)
	return out, nil
}

// callTimes sums the spans recorded from index first on by public call,
// and returns the harness's own share: the self time of pass and job
// spans, which no public call covers.
func callTimes(spans []span, first int) (map[string]time.Duration, time.Duration) {
	self := selfTimes(spans)
	calls := map[string]time.Duration{}
	var harness time.Duration
	for i := first; i < len(spans); i++ {
		if _, ok := callUnits[spans[i].name]; ok {
			calls[spans[i].name] += spans[i].dur()
		} else {
			harness += self[i]
		}
	}
	return calls, harness
}

// setSimBatch derives sim-batch's metrics from its passes: end-to-end
// figures from untraced passes only, per-layer call times from traced
// ones.
func (out *outcome) setSimBatch(passes []pass) {
	var plain, traced []pass
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	var passS []float64
	for _, p := range plain {
		passS = append(passS, p.dur.Seconds())
	}
	mid := median(passS)
	out.set("sim_tasks_per_s", ratio(float64(passes[0].tasks), mid))
	out.set("capacity_qps", ratio(float64(len(simBatchJobs)), mid))
	// A job's latency is its median over the passes; p50_ms is the
	// median job of the fixed list, so the job it lands on does not
	// change with how many passes the host managed.
	var jobMS []float64
	for i := range simBatchJobs {
		var ds []float64
		for _, p := range plain {
			if d := p.jobDurs[i]; d > 0 {
				ds = append(ds, ms(d))
			}
		}
		jobMS = append(jobMS, median(ds))
	}
	out.set("p50_ms", median(jobMS))
	out.note("sim-batch: %d untraced passes, median %.3f s; median job latencies %.0f ms",
		len(plain), mid, jobMS)
	for k, v := range passes[0].counts.values() {
		out.set(k, v)
	}
	if len(traced) == 0 {
		return
	}
	var tracedS, harnessPct []float64
	perCall := map[string][]float64{}
	for _, p := range traced {
		tracedS = append(tracedS, p.dur.Seconds())
		harnessPct = append(harnessPct, 100*ratio(float64(p.harness), float64(p.dur)))
		for call := range callUnits {
			name, v := callMetric(call, p.calls[call])
			perCall[name] = append(perCall[name], v)
		}
	}
	for name, vs := range perCall {
		out.set(name, median(vs))
	}
	out.set("sim.ns_per_event", ratio(median(perCall["sim.run_ms"])*1e6, float64(passes[0].runEvents)))
	out.set("perfbench.unattributed_pct", median(harnessPct))
	out.set("perfbench.trace_overhead_pct", 100*ratio(median(tracedS)-mid, mid))
	out.note("sim-batch: %d traced passes, median %.3f s", len(traced), median(tracedS))
}
