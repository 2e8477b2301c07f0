package chaos

import (
	"encoding/json"
	"testing"

	"shogun/internal/accel"
	"shogun/internal/metrics"
	"shogun/internal/sim"
)

// TestQueueDifferentialUnderChaos extends the event-engine equivalence
// gate (accel's TestQueueDifferential) to perturbed runs: across 12
// chaos seeds of latency jitter, forced conservative flips, and forced
// task-tree splits, the binary-heap and calendar-queue engines must
// produce bit-identical runs — the chaos injector consumes its RNG
// stream in event order, so this catches any reordering the clean
// matrix is too regular to expose.
func TestQueueDifferentialUnderChaos(t *testing.T) {
	g := testGraph()
	s := schedule(t)
	base := accel.DefaultConfig(accel.SchemeShogun)
	base.EnableSplitting = true
	base.EnableMerging = true
	base.SampleEvery = 512
	for seed := int64(0); seed < 12; seed++ {
		var blobs []string
		var snaps []map[string]int64
		var faults [][3]int64
		for _, queue := range []string{"heap", "calendar"} {
			in := New(Config{
				Seed:        seed,
				JitterPct:   25,
				FlipPeriod:  1500 + 100*cadence(seed),
				SplitPeriod: 2500 + 150*cadence(seed),
			})
			cfg := base
			cfg.Perturb = in
			var eng *sim.Engine // nil: New's own calendar engine
			if queue == "heap" {
				eng = sim.NewHeapEngine()
			}
			a, err := accel.NewShared(g, s, cfg, eng, nil)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, queue, err)
			}
			in.Attach(a)
			res, err := a.Run()
			if err != nil {
				t.Fatalf("seed %d %s: run failed: %v", seed, queue, err)
			}
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("seed %d %s: marshal: %v", seed, queue, err)
			}
			blobs = append(blobs, string(blob))
			snaps = append(snaps, a.Metrics().Snapshot())
			faults = append(faults, [3]int64{in.Jitters, in.Flips, in.Splits})
		}
		if blobs[0] != blobs[1] {
			t.Errorf("seed %d: result diverged between heap and calendar engines:\nheap:     %s\ncalendar: %s", seed, blobs[0], blobs[1])
		}
		if diff := metrics.Diff(snaps[0], snaps[1]); len(diff) > 0 {
			t.Errorf("seed %d: hardware counters diverged: %v", seed, diff)
		}
		if faults[0] != faults[1] {
			t.Errorf("seed %d: fault injection diverged (jitters,flips,splits): heap %v, calendar %v", seed, faults[0], faults[1])
		}
		if faults[0][0] == 0 {
			t.Errorf("seed %d: no jitter fired — the differential proves nothing", seed)
		}
	}
}
