package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1000, 99}, {5000, 99}, {999, 98}, {500, 98}, {100, 90}, {48, 79}, {21, 52}, {20, 50}, {3, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	for n := 20; n <= 3000; n++ {
		p := tailPercentile(n)
		if beyond := n - nearestRank(n, p); beyond < minBeyond {
			t.Fatalf("n=%d: p%d leaves %d samples beyond it", n, p, beyond)
		}
		if p < 99 && n-nearestRank(n, p+1) >= minBeyond {
			t.Fatalf("n=%d: p%d is not the highest percentile with %d beyond", n, p, minBeyond)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := tail(xs); got != 90 {
		t.Errorf("tail of 100 samples = %v, want p90 = 90", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	const ms = time.Millisecond
	spans := []span{
		{name: "parent", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 30 * ms},
		{name: "b", parent: 0, start: 20 * ms, end: 50 * ms},  // overlaps a: counted once
		{name: "c", parent: 0, start: 90 * ms, end: 120 * ms}, // only 10ms inside the parent
		{name: "grandchild", parent: 2, start: 25 * ms, end: 35 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 30 * ms, 10 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, self[i], want[i])
		}
	}
}

func TestCallTimesSumBackToPass(t *testing.T) {
	const us = time.Microsecond
	spans := []span{
		{name: "pass", parent: -1, start: 0, end: 1000 * us},
		{name: "job", parent: 0, start: 5 * us, end: 995 * us},
		{name: "accel.new", parent: 1, start: 10 * us, end: 110 * us},
		{name: "sim.run", parent: 1, start: 110 * us, end: 900 * us},
		{name: "metrics.verify", parent: 1, start: 900 * us, end: 990 * us},
	}
	calls, harness := callTimes(spans, 0)
	var sum time.Duration
	for _, d := range calls {
		sum += d
	}
	if sum+harness != spans[0].dur() {
		t.Fatalf("calls %v + harness %v != pass %v", sum, harness, spans[0].dur())
	}
	if calls["sim.run"] != 790*us || harness != 20*us {
		t.Fatalf("calls=%v harness=%v", calls, harness)
	}
}

func TestLatencyIsTimedFromDueTime(t *testing.T) {
	t0 := time.Now()
	s := sample{due: t0, sent: t0.Add(5 * time.Millisecond), done: t0.Add(20 * time.Millisecond)}
	if s.latency() != 20*time.Millisecond || s.lag() != 5*time.Millisecond {
		t.Fatalf("latency %v lag %v", s.latency(), s.lag())
	}

	// A server slower than the offered rate: later requests are sent
	// late, and their latency includes that wait.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond)
		w.Write([]byte(`{"embeddings":1}`)) //nolint:errcheck // test server
	}))
	defer srv.Close()
	l := &loadgen{client: newClient(), base: srv.URL}
	req := &request{op: "count", body: []byte(`{}`)}
	reqs := []*request{req, req, req, req, req, req}
	out := l.openLoop(context.Background(), reqs, 200) // 5ms apart, 2 connections, 30ms each
	if len(out) != len(reqs) {
		t.Fatalf("%d samples, want %d", len(out), len(reqs))
	}
	for i, s := range out {
		if !s.ok() {
			t.Fatalf("request %d: %v", i, s.err)
		}
		if s.latency() != s.done.Sub(s.due) || s.latency() < s.done.Sub(s.sent)+s.lag() {
			t.Fatalf("request %d: latency %v not from due time", i, s.latency())
		}
	}
	if last := out[len(out)-1]; last.lag() < 30*time.Millisecond {
		t.Fatalf("last request lag %v: the generator should have run late", last.lag())
	}
}

func TestCountsFromSnapshot(t *testing.T) {
	var c counts
	c.addSnapshot(map[string]int64{
		"pe0/cycles/attr-compute":             3,
		"chip1/pe2/cycles/attr-idle":          4,
		"chip1/pe2/l1/accesses":               10,
		"pe0/l1/misses":                       1,
		"tasks/executed":                      99, // global family: the per-PE one counts
		"pe0/tasks/executed":                  7,
		"chip0/dram/row-hits":                 3,
		"dram/row-misses":                     1,
		"cluster/migrations-delivered":        2,
		"chip0/splitmerge/conservative-trans": 5, // not a counter the benchmark reads
	})
	v := c.values()
	for name, want := range map[string]float64{
		"pe.compute_cycles": 3, "pe.idle_cycles": 4, "task.executed": 7,
		"mem.l1_miss_ratio": 0.1, "mem.dram_row_hit_ratio": 0.75, "cluster.migrations": 2,
	} {
		if v[name] != want {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
}

// The grammar BENCHMARK.json's names and units follow, and the repo's layering:
// a per-layer metric is <module>.<metric> after a package of the repo or
// the benchmark's own generator (loadgen) and harness (perfbench).
var (
	nameRE  = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE  = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	layerRE = regexp.MustCompile(`^([a-z]+)\.[a-z0-9_.]+$`)
)

func TestMetricNameGrammar(t *testing.T) {
	modules := map[string]bool{"loadgen": true, "perfbench": true}
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		modules[e.Name()] = true
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("bad or duplicate metric name %q", d.name)
		}
		seen[d.name] = true
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: bad unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
	}
	for _, d := range perLayer {
		m := layerRE.FindStringSubmatch(d.name)
		if m == nil || !modules[m[1]] {
			t.Errorf("per-layer metric %q is not <module>.<metric> after a repo package", d.name)
		}
	}
	for _, d := range endToEnd {
		if layerRE.MatchString(d.name) {
			t.Errorf("end-to-end metric %q looks like a layer metric", d.name)
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d implemented", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil || len(w.Why) > 200 {
			t.Errorf("workload %q: unknown or why too long", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d reported", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, reported %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d reported", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, reported %+v", i, m, d)
		}
	}
}
