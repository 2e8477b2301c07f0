package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// serving describes one serving workload: how to boot and warm the
// daemon, the seeded open-loop sequence, and how to check replies.
type serving struct {
	name  string
	flags []string // shogund flags beyond -workers 2
	rate  float64  // open-loop requests per second
	// warm is sent once, sequentially, before timing: it fills the
	// daemon's caches so the measured interval sees steady state.
	warm []*request
	// order returns the first n requests of a seeded sequence. A
	// sequence is made of shuffled rounds of round requests, each round
	// with the same mix, so every seed offers the same share of each
	// request shape.
	order   func(stream uint64, n int) []*request
	round   int
	goldens map[string]golden
	// replay, when set, runs a traced run's in-process replays
	// (per-layer timings of the work the daemon does), given the served
	// samples.
	replay func(ctx context.Context, out *outcome, served []sample) error
}

// checker validates replies against the software miner and requires
// identical requests to repeat their modelled results exactly.
type checker struct {
	w      *serving
	out    *outcome
	repeat map[string][2]int64 // kind → (cycles, events)
}

func newChecker(w *serving, out *outcome) *checker {
	return &checker{w: w, out: out, repeat: map[string][2]int64{}}
}

// check counts one sample and reports whether it succeeded with a
// correct result, plus the search-tree tasks its run phase did.
func (c *checker) check(s *sample) (tasks int64, ok bool) {
	c.out.attempted++
	if !s.ok() {
		c.out.fail("%s %s: %v", s.req.op, s.req.kind, s.err)
		return 0, false
	}
	g := c.w.goldens[s.req.golden]
	r := s.reply
	if r.Embeddings != g.embeddings {
		c.out.wrong("%s %s: %d embeddings, software miner says %d", s.req.op, s.req.kind, r.Embeddings, g.embeddings)
		return 0, false
	}
	switch s.req.op {
	case "count":
		return g.tasks, true
	case "mine":
		if r.Tasks != g.tasks {
			c.out.wrong("mine %s: %d tasks, software miner says %d", s.req.kind, r.Tasks, g.tasks)
			return 0, false
		}
		return r.Tasks, true
	}
	got := [2]int64{r.Cycles, r.Events}
	if want, seen := c.repeat[s.req.kind]; seen && want != got {
		c.out.wrong("simulate %s: cycles/events %v, earlier identical request gave %v", s.req.kind, got, want)
		return 0, false
	}
	c.repeat[s.req.kind] = got
	return r.SimTasks, true
}

// warmUp sends the warm-up list sequentially.
func (c *checker) warmUp(ctx context.Context, l *loadgen) {
	for _, r := range c.w.warm {
		s := sample{req: r}
		l.send(ctx, &s)
		c.check(&s)
	}
}

// boot starts a daemon and warms it; the elapsed time is one set-up.
func (w *serving) boot(ctx context.Context, o options, c *checker, name string, extra ...string) (*daemon, *loadgen, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(ctx, o, name, append(append([]string(nil), w.flags...), extra...)...)
	if err != nil {
		return nil, nil, 0, err
	}
	l := &loadgen{client: newClient(), base: d.base}
	c.warmUp(ctx, l)
	return d, l, time.Since(t0), nil
}

// serveSetupRepeats is how many daemons an untraced serving run boots
// and warms; setup_s is the median, and the last daemon is measured.
const serveSetupRepeats = 5

// capacityPhase bounds the closed-loop capacity phase. The shared
// host's speed drifts over seconds, so a shorter phase reads noisier.
const capacityPhase = 10 * time.Second

// runServing runs a serving workload. Untraced: set up five times
// (boot to /readyz plus warm-up; setup_s is the median), then the open
// loop for --seconds, then the closed-loop capacity phase. Traced: a
// short untraced reference phase, then a daemon with its access log on
// and every request labelled with a trace ID, joined afterwards.
func runServing(ctx context.Context, o options, w *serving, out *outcome) error {
	c := newChecker(w, out)
	if o.trace {
		return runServingTraced(ctx, o, w, out, c)
	}
	var setups []float64
	var d *daemon
	var l *loadgen
	for i := 0; i < serveSetupRepeats; i++ {
		var took time.Duration
		var err error
		if d, l, took, err = w.boot(ctx, o, c, fmt.Sprintf("%s-%d", w.name, i)); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if i < serveSetupRepeats-1 {
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	out.set("setup_s", median(setups))
	defer d.stop() //nolint:errcheck // error path; the success path stops it below
	served := l.openLoop(ctx, w.order(streamOrder, int(w.rate*float64(o.seconds))), w.rate)
	// Enough rounds for the phase at six times the open-loop rate
	// (about 1.5 times the seed's capacity).
	rounds := int(math.Ceil(capacityPhase.Seconds() * 6 * w.rate / float64(w.round)))
	caps, capacity := l.closedLoop(ctx, w.order(streamCapacity, rounds*w.round), w.round, capacityPhase)
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := out.setPeakRSS(fmt.Sprint(d.cmd.Process.Pid)); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	lat := out.setLoad(c, served)
	for i := range caps {
		c.check(&caps[i])
	}
	out.set("capacity_qps", capacity)
	out.note("%s: open loop %.0f/s, %d completions (tail = p%d), capacity phase %d requests",
		w.name, w.rate, len(lat), tailPercentile(len(lat)), len(caps))
	return nil
}

// setLoad checks an open-loop phase and sets its end-to-end metrics,
// returning the successful requests' latencies in ms.
func (o *outcome) setLoad(c *checker, served []sample) []float64 {
	var lat, lag []float64
	tasks := map[string]int64{}         // shape → Σ tasks
	usPerTask := map[string][]float64{} // shape → per-request run µs per task
	for i := range served {
		s := &served[i]
		t, ok := c.check(s)
		if !s.sent.IsZero() {
			lag = append(lag, ms(s.lag()))
		}
		if !ok {
			continue
		}
		lat = append(lat, ms(s.latency()))
		if t > 0 {
			tasks[s.req.shape] += t
			usPerTask[s.req.shape] = append(usPerTask[s.req.shape], float64(s.reply.PhasesUS.Run)/float64(t))
		}
	}
	o.set("p50_ms", median(lat))
	o.set("loadgen.latency_tail_ms", tail(lat))
	// All tasks over their run-phase time, with each shape's time taken
	// as its tasks times its median µs per task: a host stall that slows
	// a few requests would move a plain sum of run times.
	var total, runUS float64
	for shape, n := range tasks {
		total += float64(n)
		runUS += float64(n) * median(usPerTask[shape])
	}
	o.set("sim_tasks_per_s", ratio(total, runUS/1e6))
	o.set("loadgen.lag_p99_ms", tail(lag))
	return lat
}

// runServingTraced measures the per-layer metrics of a serving workload.
func runServingTraced(ctx context.Context, o options, w *serving, out *outcome, c *checker) error {
	refSeconds := max(1, o.seconds/3)
	d, l, _, err := w.boot(ctx, o, c, w.name+"-reference")
	if err != nil {
		return err
	}
	ref := l.openLoop(ctx, w.order(streamOrder, int(w.rate*float64(refSeconds))), w.rate)
	if err := d.stop(); err != nil {
		return err
	}
	refP50 := median(out.setLoad(c, ref))

	logPath := filepath.Join(o.workdir, w.name+"-access.log")
	if err := os.Remove(logPath); err != nil && !os.IsNotExist(err) {
		return err // the daemon appends: a stale log would join old lines
	}
	d, l, _, err = w.boot(ctx, o, c, w.name+"-traced", "-access-log", logPath)
	if err != nil {
		return err
	}
	before, err := d.statz(l.client)
	if err != nil {
		d.stop() //nolint:errcheck // already failing
		return err
	}
	l.traceTag = fmt.Sprintf("pb%d", o.seed)
	served := l.openLoop(ctx, w.order(streamOrder, int(w.rate*float64(o.seconds))), w.rate)
	after, err := d.statz(l.client)
	if err != nil {
		d.stop() //nolint:errcheck // already failing
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	lat := out.setLoad(c, served)
	out.set("perfbench.trace_overhead_pct", 100*ratio(median(lat)-refP50, refP50))
	hits, misses := after.Graphs.Hits-before.Graphs.Hits, after.Graphs.Misses-before.Graphs.Misses
	out.set("serve.graph_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	out.set("serve.graph_cache_evictions", float64(after.Graphs.Evictions-before.Graphs.Evictions))
	hits, misses = after.Schedules.Hits-before.Schedules.Hits, after.Schedules.Misses-before.Schedules.Misses
	out.set("serve.schedule_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))

	log, err := readAccessLog(logPath)
	if err != nil {
		return err
	}
	rec := newRecorder()
	if err := out.joinAccessLog(rec, served, log); err != nil {
		return err
	}
	if w.replay != nil {
		if err := w.replay(ctx, out, served); err != nil {
			return err
		}
	}
	return rec.writeChrome(o.spanPath())
}

// joinAccessLog joins each successful client request to its access-log
// line by trace ID and records the spans: the request from its due time
// to completion, the generator's lag, and the server's wall time split
// into its phases. The client's clock does not see where the server
// span sits inside the request, so it is centred on the send-to-done
// interval. Server phases plus serve.net_us equal the client latency.
func (o *outcome) joinAccessLog(rec *recorder, served []sample, log map[string]accessEntry) error {
	byPhase := map[string][]float64{}
	var unattributed []float64
	missing := 0
	for i := range served {
		s := &served[i]
		if !s.ok() {
			continue
		}
		e, ok := log[s.trace]
		if !ok {
			missing++
			continue
		}
		var sum int64
		for _, p := range e.phases() {
			sum += p.us
		}
		// Each phase is truncated to whole µs on its own.
		if d := e.WallUS - sum; d < 0 || d > int64(len(e.phases())) {
			return fmt.Errorf("access log %s: phases sum to %dµs, wall is %dµs", s.trace, sum, e.WallUS)
		}
		wall := time.Duration(e.WallUS) * time.Microsecond
		root := rec.add("request", s.trace, -1, rec.at(s.due), rec.at(s.done))
		rec.add("loadgen.lag", s.trace, root, rec.at(s.due), rec.at(s.sent))
		start := rec.at(s.sent) + (s.done.Sub(s.sent)-wall)/2
		srv := rec.add("serve.request", s.trace, root, start, start+wall)
		at := start
		for _, p := range e.phases() {
			d := time.Duration(p.us) * time.Microsecond
			rec.add("serve."+p.name, s.trace, srv, at, at+d)
			byPhase[p.name] = append(byPhase[p.name], float64(p.us))
			at += d
		}
		byPhase["net"] = append(byPhase["net"], us(s.latency()-wall))
	}
	self := selfTimes(rec.spans)
	for i, sp := range rec.spans {
		if sp.name == "request" {
			unattributed = append(unattributed, 100*ratio(float64(self[i]), float64(sp.dur())))
		}
	}
	for name, vs := range byPhase {
		o.set("serve."+name+"_us.p50", median(vs))
		o.set("serve."+name+"_us.p99", tail(vs))
	}
	o.set("perfbench.unattributed_pct", median(unattributed))
	if missing > 0 {
		o.fail("%d successful requests have no access-log line", missing)
	}
	o.note("traced: %d requests joined to the access log", len(byPhase["net"]))
	return nil
}
