package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"shogun/internal/accel"
	"shogun/internal/datasets"
	"shogun/internal/graph"
	"shogun/internal/pattern"
)

// Open-loop rates, fixed at about a quarter of each workload's
// capacity_qps measured at the commit that introduced the benchmark
// (2-CPU host). They are constants so that a faster daemon shows lower
// latency at the same offered load, not more load. Near half of
// capacity, queueing turned a slowdown of the shared host into twice
// that slowdown in latency.
const (
	serveCountQPS    = 20
	serveSimulateQPS = 20
)

// countMix is serve-count's request mix over named analogues, ordered
// by warm run-phase time (≈11, 13, 26, 30 and 52 ms at the seed). Each
// request is a count or a mine with equal odds.
var countMix = []struct{ dataset, pattern string }{
	{"yo", "tc"}, {"wi", "tc"}, {"as", "tc"}, {"yo", "dia"}, {"wi", "dia"},
}

// runServeCount is the serve-count workload: cached graphs and
// schedules, so the measured time is the miner plus serve's own
// parse/admission/encode/observability overhead. No simulator code
// runs.
func runServeCount(ctx context.Context, o options) (*outcome, error) {
	out := newOutcome()
	graphs := map[string]*graph.Graph{}
	scheds := map[string]*pattern.Schedule{}
	t0 := time.Now()
	for _, m := range countMix {
		if graphs[m.dataset] == nil {
			spec, err := datasets.Lookup(m.dataset)
			if err != nil {
				return nil, err
			}
			graphs[m.dataset] = spec.Make()
		}
	}
	t1 := time.Now()
	for _, m := range countMix {
		if scheds[m.pattern] == nil {
			s, err := buildSchedule(m.pattern)
			if err != nil {
				return nil, err
			}
			scheds[m.pattern] = s
		}
	}
	out.set("datasets.build_ms", ms(t1.Sub(t0)))
	out.set("pattern.build_us", us(time.Since(t1)))

	w := &serving{name: "serve-count", rate: serveCountQPS, round: 4 * 2 * len(countMix), goldens: map[string]golden{}}
	var variants []*request // mix entry i: count at 2i, mine at 2i+1
	var countMS []float64
	for _, m := range countMix {
		key := m.dataset + "/" + m.pattern
		g, s := graphs[m.dataset], scheds[m.pattern]
		gl, err := mineGolden(ctx, g, s)
		if err != nil {
			return nil, err
		}
		w.goldens[key] = gl
		out.addMine(gl)
		if o.trace {
			d, err := replayCount(ctx, g, s)
			if err != nil {
				return nil, err
			}
			countMS = append(countMS, ms(d))
		}
		body, err := json.Marshal(map[string]string{"dataset": m.dataset, "pattern": m.pattern})
		if err != nil {
			return nil, err
		}
		for _, op := range []string{"count", "mine"} {
			variants = append(variants, &request{op: op, body: body, golden: key, kind: key, shape: key})
		}
		w.warm = append(w.warm, variants[len(variants)-2])
	}
	out.set("mine.count_ms", mean(countMS))
	w.order = func(stream uint64, n int) []*request {
		rng := rand.New(rand.NewSource(subSeed(o.seed, stream)))
		var reqs []*request
		for len(reqs) < n {
			for _, i := range rng.Perm(w.round) {
				reqs = append(reqs, variants[i%len(variants)])
			}
		}
		return reqs[:n]
	}
	if err := runServing(ctx, o, w, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Upload pool of serve-simulate: poolSize distinct R-MAT graphs, about
// four times what the 1 MiB cache holds (≈50 KB charged each), so
// uploads keep parsing, inserting and evicting.
const (
	poolSize = 80
	// warmGraphs is how many distinct uploads fill the cache.
	warmGraphs = 24
	// replayKinds is how many distinct simulate requests a traced run
	// replays in-process for the accel/metrics per-call timings.
	replayKinds = 16
)

// simShapes is one round of serve-simulate's request mix: 1 in 4 is
// 4cl (else tc), half run fingers (else shogun), and 1 in 8 also sets
// chips: 2. Each request draws its graph from the pool.
var simShapes = func() []simKind {
	var out []simKind
	for _, p := range []string{"4cl", "tc", "tc", "tc"} {
		for _, s := range []accel.Scheme{accel.SchemeShogun, accel.SchemeFingers} {
			for c := 0; c < 8; c++ {
				k := simKind{pattern: p, scheme: s, chips: 1}
				if c == 0 {
					k.chips = 2
				}
				out = append(out, k)
			}
		}
	}
	return out
}()

// simKind is one distinct simulate request shape.
type simKind struct {
	graph   int
	pattern string
	scheme  accel.Scheme
	chips   int
}

func (k simKind) String() string {
	return fmt.Sprintf("g%d/%s/%s/chips=%d", k.graph, k.pattern, k.scheme, k.chips)
}

// job mirrors the machine shogund builds for the request: the scheme's
// Table 3 chip with 4 PEs, the daemon's default 4096-cycle sampler,
// hash partitioning for two chips.
func (k simKind) job() simJob {
	return simJob{name: k.String(), scheme: k.scheme, pes: 4, chips: k.chips, sample: 4096}
}

// runServeSimulate is the serve-simulate workload: many small
// simulations on uploaded graphs against a 1 MiB cache, exercising the
// cache's write path, graph.ReadEdgeList and per-request accelerator
// construction.
func runServeSimulate(ctx context.Context, o options) (*outcome, error) {
	out := newOutcome()
	t0 := time.Now()
	pool := make([]*graph.Graph, poolSize)
	for i := range pool {
		pool[i] = rmatGraph(subSeed(o.seed, streamPool+uint64(i)))
	}
	t1 := time.Now()
	scheds := map[string]*pattern.Schedule{}
	for _, p := range []string{"tc", "4cl"} {
		s, err := buildSchedule(p)
		if err != nil {
			return nil, err
		}
		scheds[p] = s
	}
	out.set("datasets.build_ms", ms(t1.Sub(t0)))
	out.set("pattern.build_us", us(time.Since(t1)))

	// Each upload is the graph's edge list, JSON-quoted once. The golden
	// count runs on the graph parsed back from that text, as the daemon
	// sees it; the parse is graph.parse_ms's in-process replay.
	w := &serving{name: "serve-simulate", rate: serveSimulateQPS, round: len(simShapes), flags: []string{"-cache-mb", "1"}, goldens: map[string]golden{}}
	quoted := make([][]byte, poolSize)
	parsed := make([]*graph.Graph, poolSize)
	var parseMS []float64
	for i, g := range pool {
		var b strings.Builder
		if err := g.WriteEdgeList(&b); err != nil {
			return nil, err
		}
		t := time.Now()
		pg, err := graph.ReadEdgeList(strings.NewReader(b.String()))
		if err != nil {
			return nil, err
		}
		parseMS = append(parseMS, ms(time.Since(t)))
		parsed[i] = pg
		if quoted[i], err = json.Marshal(b.String()); err != nil {
			return nil, err
		}
		for p, s := range scheds {
			gl, err := mineGolden(ctx, pg, s)
			if err != nil {
				return nil, err
			}
			w.goldens[fmt.Sprintf("g%d/%s", i, p)] = gl
			out.addMine(gl)
		}
	}
	out.set("graph.parse_ms", median(parseMS))

	reqOf := func(k simKind) *request {
		body := fmt.Sprintf(`{"graph":%s,"pattern":%q,"scheme":%q,"pes":4`, quoted[k.graph], k.pattern, k.scheme)
		if k.chips > 1 {
			body += fmt.Sprintf(`,"chips":%d,"partition":"hash"`, k.chips)
		}
		return &request{op: "simulate", body: []byte(body + "}"),
			golden: fmt.Sprintf("g%d/%s", k.graph, k.pattern), kind: k.String(),
			shape: fmt.Sprintf("%s/%s/chips=%d", k.pattern, k.scheme, k.chips)}
	}
	kinds := func(stream uint64, n int) []simKind {
		rng := rand.New(rand.NewSource(subSeed(o.seed, stream)))
		var ks []simKind
		for len(ks) < n {
			for _, i := range rng.Perm(len(simShapes)) {
				k := simShapes[i]
				k.graph = rng.Intn(poolSize)
				ks = append(ks, k)
			}
		}
		return ks[:n]
	}
	reqs := func(ks []simKind) []*request {
		out := make([]*request, len(ks))
		for i, k := range ks {
			out[i] = reqOf(k)
		}
		return out
	}
	for i := 0; i < warmGraphs; i++ {
		w.warm = append(w.warm, reqOf(simKind{graph: i, pattern: "tc", scheme: accel.SchemeShogun, chips: 1}))
	}
	w.warm = append(w.warm, reqOf(simKind{graph: 0, pattern: "4cl", scheme: accel.SchemeShogun, chips: 1}))
	w.order = func(stream uint64, n int) []*request { return reqs(kinds(stream, n)) }
	w.replay = func(ctx context.Context, out *outcome, served []sample) error {
		return replaySimulate(ctx, out, kinds(streamOrder, len(served)), served, parsed, scheds, w.goldens)
	}
	if err := runServing(ctx, o, w, out); err != nil {
		return nil, err
	}
	return out, nil
}

// replaySimulate replays the first replayKinds distinct simulate
// requests of the served sequence in-process through the public
// accel/cluster calls, timing each call, and checks that each replay
// reproduces the daemon's cycles and events exactly.
func replaySimulate(ctx context.Context, out *outcome, ks []simKind, served []sample,
	graphs []*graph.Graph, scheds map[string]*pattern.Schedule, goldens map[string]golden) error {
	rec := newRecorder()
	var c counts
	var runEvents int64
	perCall := map[string][]float64{}
	var countMS []float64
	seen := map[simKind]bool{}
	for i, k := range ks {
		if len(seen) == replayKinds {
			break
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		first := len(rec.spans)
		root := rec.begin("replay", k.String(), -1)
		res, err := runJob(ctx, k.job(), graphs[k.graph], scheds[k.pattern], rec, root)
		rec.finish(root)
		out.attempted++
		if err != nil {
			out.fail("replay %v: %v", k, err)
			continue
		}
		if want := goldens[fmt.Sprintf("g%d/%s", k.graph, k.pattern)].embeddings; res.embeddings != want {
			out.wrong("replay %v: %d embeddings, software miner says %d", k, res.embeddings, want)
		}
		if s := served[i]; s.ok() && (s.reply.Cycles != res.cycles || s.reply.Events != res.events) {
			out.wrong("replay %v: cycles/events (%d, %d) in-process, (%d, %d) served",
				k, res.cycles, res.events, s.reply.Cycles, s.reply.Events)
		}
		c.cycles += res.cycles
		c.events += res.events
		c.addSnapshot(res.snapshot())
		calls, _ := callTimes(rec.spans, first)
		for call, d := range calls {
			name, v := callMetric(call, d)
			perCall[name] = append(perCall[name], v)
		}
		if k.chips <= 1 {
			runEvents += res.events
		}
		d, err := replayCount(ctx, graphs[k.graph], scheds[k.pattern])
		if err != nil {
			return err
		}
		countMS = append(countMS, ms(d))
	}
	for name, vs := range perCall {
		out.set(name, median(vs))
	}
	var runMS float64
	for _, v := range perCall["sim.run_ms"] {
		runMS += v
	}
	out.set("sim.ns_per_event", ratio(runMS*1e6, float64(runEvents)))
	for name, v := range c.values() {
		out.set(name, v)
	}
	out.set("mine.count_ms", mean(countMS))
	out.note("traced: replayed %d distinct simulate requests in-process", len(seen))
	return nil
}
