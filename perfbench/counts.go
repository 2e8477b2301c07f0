package main

import (
	"strings"
)

// counts accumulates the modelled per-layer counts of simulated runs,
// summed over every chip and PE. They come from the public
// metrics-registry snapshot, are exact, and must not move under a
// change that only makes the simulator faster on the host.
type counts struct {
	cycles, events                         int64
	compute, memstall, sched, idle         int64
	executed, leaf, pruned                 int64
	carved, merges, transitions            int64
	l1Acc, l1Miss, l2Acc, l2Miss           int64
	dramReads, rowHits, rowMisses, nocMsgs int64
	migrations, interLines                 int64
}

// addSnapshot folds one accel.Accelerator or cluster.Cluster metrics
// snapshot ("family/name" → value; cluster chips nest under chip{i}/)
// into c. Cycles and events come from the run's Result instead: chips
// of a cluster share one engine, so its per-chip event counters repeat.
func (c *counts) addSnapshot(snap map[string]int64) {
	for key, v := range snap {
		parts := strings.Split(key, "/")
		if strings.HasPrefix(parts[0], "chip") {
			parts = parts[1:]
		}
		if len(parts) == 3 && strings.HasPrefix(parts[0], "pe") {
			c.addPE(parts[1]+"/"+parts[2], v)
			continue
		}
		if len(parts) != 2 {
			continue
		}
		switch parts[0] + "/" + parts[1] {
		case "l2/accesses":
			c.l2Acc += v
		case "l2/misses":
			c.l2Miss += v
		case "dram/reads":
			c.dramReads += v
		case "dram/row-hits":
			c.rowHits += v
		case "dram/row-misses":
			c.rowMisses += v
		case "noc/messages":
			c.nocMsgs += v
		case "splitmerge/splits-carved":
			c.carved += v
		case "splitmerge/merge-feeds":
			c.merges += v
		case "splitmerge/conservative-transitions":
			c.transitions += v
		case "cluster/migrations-delivered":
			c.migrations += v
		case "cluster/inter-lines-sent":
			c.interLines += v
		}
	}
}

// addPE folds one per-PE counter ("family/name" below pe{i}/).
func (c *counts) addPE(name string, v int64) {
	switch name {
	case "cycles/attr-compute":
		c.compute += v
	case "cycles/attr-memstall":
		c.memstall += v
	case "cycles/attr-scheduling":
		c.sched += v
	case "cycles/attr-idle":
		c.idle += v
	case "tasks/executed":
		c.executed += v
	case "tasks/leaf-tasks":
		c.leaf += v
	case "tasks/pruned-fetches":
		c.pruned += v
	case "l1/accesses":
		c.l1Acc += v
	case "l1/misses":
		c.l1Miss += v
	}
}

// values renders c under its per-layer metric names.
func (c counts) values() map[string]float64 {
	f := func(v int64) float64 { return float64(v) }
	return map[string]float64{
		"sim.cycles":                    f(c.cycles),
		"sim.events":                    f(c.events),
		"pe.compute_cycles":             f(c.compute),
		"pe.memstall_cycles":            f(c.memstall),
		"pe.sched_cycles":               f(c.sched),
		"pe.idle_cycles":                f(c.idle),
		"task.executed":                 f(c.executed),
		"task.leaf":                     f(c.leaf),
		"task.pruned_fetches":           f(c.pruned),
		"core.splits_carved":            f(c.carved),
		"core.merge_feeds":              f(c.merges),
		"core.conservative_transitions": f(c.transitions),
		"mem.l1_miss_ratio":             ratio(f(c.l1Miss), f(c.l1Acc)),
		"mem.l2_miss_ratio":             ratio(f(c.l2Miss), f(c.l2Acc)),
		"mem.dram_reads":                f(c.dramReads),
		"mem.dram_row_hit_ratio":        ratio(f(c.rowHits), f(c.rowHits+c.rowMisses)),
		"mem.noc_messages":              f(c.nocMsgs),
		"cluster.migrations":            f(c.migrations),
		"cluster.inter_lines":           f(c.interLines),
	}
}
