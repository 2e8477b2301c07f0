package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/mine"
	"shogun/internal/pattern"
)

// Every generated input derives from the workload seed through subSeed,
// so one --seed fixes the R-MAT job, the upload pool and the request
// order, and nothing else varies between runs of a seed.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// Seed streams.
const (
	streamRMATJob  = 1
	streamOrder    = 2
	streamCapacity = 3
	streamPool     = 1000 // + pool index
)

// rmatGraph is the small skewed graph of the sim-batch R-MAT job and of
// every serve-simulate upload: 1024 vertices, 6000 generated edges
// (fewer after de-duplication), wi-like skew.
func rmatGraph(seed int64) *graph.Graph { return gen.RMAT(1024, 6000, 0.55, 0.17, 0.17, seed) }

// buildSchedule builds a named pattern's schedule the way shogund does:
// a "_v" suffix selects vertex-induced matching.
func buildSchedule(name string) (*pattern.Schedule, error) {
	p, err := pattern.ByName(name)
	if err != nil {
		return nil, err
	}
	return pattern.BuildWith(p, pattern.BuildOptions{Induced: strings.HasSuffix(name, "_v")})
}

// golden is the software miner's answer for one (graph, pattern): the
// embedding count every simulated or served result must match, plus
// the miner's exact work counts.
type golden struct {
	embeddings, tasks, setops int64
}

func mineGolden(ctx context.Context, g *graph.Graph, s *pattern.Schedule) (golden, error) {
	r, err := mine.ParallelCountContext(ctx, g, s, 2)
	if err != nil {
		return golden{}, fmt.Errorf("golden count: %w", err)
	}
	return golden{r.Embeddings, r.Tasks(), r.SetOpElements}, nil
}

// peakRSSMiB reads a process's resident-set high-water mark (VmHWM) from
// /proc; pid "self" is this process.
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
