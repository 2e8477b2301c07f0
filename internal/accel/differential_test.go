package accel

import (
	"encoding/json"
	"fmt"
	"testing"

	"shogun/internal/datasets"
	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/metrics"
	"shogun/internal/sim"
)

// TestQueueDifferential is the event-engine equivalence gate: every cell
// of the conformance matrix must produce a bit-identical run under the
// binary-heap and calendar-queue engines — the full Result (cycle
// counts, per-PE breakdowns, telemetry time series) and every hardware
// counter in the metrics registry, not just the embedding totals. The
// calendar queue is a pure data-structure substitution; any divergence
// is an ordering bug, so the comparison has no tolerance.
func TestQueueDifferential(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 42)},
		{"plc", gen.PowerLawCluster(300, 6, 0.6, 43)},
	}
	for _, gr := range graphs {
		for _, wl := range datasets.Workloads() {
			for _, v := range conformanceVariants() {
				name := fmt.Sprintf("%s/%s/%s", gr.name, wl.Name, v.name)
				t.Run(name, func(t *testing.T) {
					var snaps []map[string]int64
					var blobs [][]byte
					for _, queue := range []string{"heap", "calendar"} {
						cfg := DefaultConfig(v.scheme)
						cfg.NumPEs = 4
						cfg.SampleEvery = 512 // telemetry series must match too
						if v.mutate != nil {
							v.mutate(&cfg)
						}
						var eng *sim.Engine // nil: New's own calendar engine
						if queue == "heap" {
							eng = sim.NewHeapEngine()
						}
						a, err := NewShared(gr.g, wl.Schedule, cfg, eng, nil)
						if err != nil {
							t.Fatalf("%s: new: %v", queue, err)
						}
						res, err := a.Run()
						if err != nil {
							t.Fatalf("%s: run: %v", queue, err)
						}
						blob, err := json.Marshal(res)
						if err != nil {
							t.Fatalf("%s: marshal: %v", queue, err)
						}
						blobs = append(blobs, blob)
						snaps = append(snaps, a.Metrics().Snapshot())
					}
					if string(blobs[0]) != string(blobs[1]) {
						t.Errorf("result diverged between heap and calendar engines:\nheap:     %s\ncalendar: %s", blobs[0], blobs[1])
					}
					if diff := metrics.Diff(snaps[0], snaps[1]); len(diff) > 0 {
						t.Errorf("hardware counters diverged between heap and calendar engines: %v", diff)
					}
				})
			}
		}
	}
}
