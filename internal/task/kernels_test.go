package task

import (
	"fmt"
	"slices"
	"testing"

	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/pattern"
)

// kernelTally counts bitmap kernel selections by the kind of plan that
// made them, so the test can show both dispatcher paths ran.
type kernelTally struct {
	intersectBitmap int64 // plans whose steps are all intersections
	subtractBitmap  int64 // plans whose steps are all subtractions
	nodes           int64
}

// TestHybridKernelsMatchListKernelsExactly is the simulator's
// counterpart of the miner's TestHybridMatchesBaselineExactly: routing
// set operations through the dispatcher and the hub index must not
// change any candidate set, spawn limit or timing profile. Every node of
// the full search trees is executed twice, once by a workload with the
// hub index and once by one whose hub is nil (list kernels only).
func TestHybridKernelsMatchListKernelsExactly(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat-skewed": gen.RMAT(1<<10, 9000, 0.45, 0.22, 0.22, 106),
		"rmat-hubby":  gen.RMAT(1<<9, 5000, 0.62, 0.14, 0.14, 42),
	}
	specs := []struct {
		p       pattern.Pattern
		induced bool
	}{
		{pattern.Triangle(), false},
		{pattern.FourClique(), false},
		{pattern.Diamond(), true},
		{pattern.FourCycle(), true},
	}
	var total kernelTally
	for gname, g := range graphs {
		if g.HubIndex().NumHubs() == 0 {
			t.Fatalf("%s: no hubs indexed", gname)
		}
		for _, sp := range specs {
			hyb := buildWorkload(t, g, sp.p, sp.induced)
			list := buildWorkload(t, g, sp.p, sp.induced)
			list.hub = nil
			var tally kernelTally
			for v := 0; v < g.NumVertices(); v++ {
				r1 := hyb.NewNode(0, graph.VertexID(v), nil, v)
				r0 := list.NewNode(0, graph.VertexID(v), nil, v)
				walkTwin(t, hyb, list, r1, r0, &tally)
				hyb.Release(r1)
				list.Release(r0)
			}
			if st := list.disp.Stats; st.BitmapOps != 0 {
				t.Fatalf("%s/%s: hub-less workload used bitmap kernels: %+v", gname, hyb.S.Name, st)
			}
			total.intersectBitmap += tally.intersectBitmap
			total.subtractBitmap += tally.subtractBitmap
			total.nodes += tally.nodes
		}
	}
	if total.intersectBitmap == 0 || total.subtractBitmap == 0 {
		t.Fatalf("bitmap kernels not exercised on both paths: %+v", total)
	}
	t.Logf("%d nodes; bitmap ops: %d intersect, %d subtract", total.nodes, total.intersectBitmap, total.subtractBitmap)
}

// walkTwin executes n1 (in hyb) and n0 (in list), checks they agree, and
// recurses over their children in lockstep. The leaf-parent level is
// counted, not enumerated, as the accelerator does.
func walkTwin(t *testing.T, hyb, list *Workload, n1, n0 *Node, tally *kernelTally) {
	t.Helper()
	slot := n1.Depth
	before := hyb.disp.Stats.BitmapOps
	p1 := hyb.Execute(n1, slot)
	p0 := list.Execute(n0, slot)
	tally.nodes++
	if d := hyb.disp.Stats.BitmapOps - before; d > 0 && n1.Depth < hyb.LeafDepth() {
		switch steps := hyb.S.Plans[n1.Depth+1].Steps; {
		case !slices.ContainsFunc(steps, func(op pattern.Op) bool { return op.Sub }):
			tally.intersectBitmap += d
		case !slices.ContainsFunc(steps, func(op pattern.Op) bool { return !op.Sub }):
			tally.subtractBitmap += d
		}
	}
	where := func() string {
		return fmt.Sprintf("%s path %v", hyb.S.Name, n1.Path(make([]graph.VertexID, hyb.S.Depth())))
	}
	if !slices.Equal(n1.Cand, n0.Cand) {
		t.Fatalf("%s: Cand %v != list-kernel %v", where(), n1.Cand, n0.Cand)
	}
	if n1.SpawnLimit != n0.SpawnLimit {
		t.Fatalf("%s: SpawnLimit %d != %d", where(), n1.SpawnLimit, n0.SpawnLimit)
	}
	if !slices.Equal(p1.Reads, p0.Reads) {
		t.Fatalf("%s: Reads %+v != %+v", where(), p1.Reads, p0.Reads)
	}
	if p1.OutBytes != p0.OutBytes || p1.OutAddr != p0.OutAddr {
		t.Fatalf("%s: out %d@%d != %d@%d", where(), p1.OutBytes, p1.OutAddr, p0.OutBytes, p0.OutAddr)
	}
	if p1.SegPairs != p0.SegPairs {
		t.Fatalf("%s: SegPairs %d != %d", where(), p1.SegPairs, p0.SegPairs)
	}
	if p1.InputLines != p0.InputLines || p1.OutputLines != p0.OutputLines {
		t.Fatalf("%s: lines in/out %d/%d != %d/%d", where(), p1.InputLines, p1.OutputLines, p0.InputLines, p0.OutputLines)
	}
	if p1.IntermediateLines != p0.IntermediateLines {
		t.Fatalf("%s: IntermediateLines %d != %d", where(), p1.IntermediateLines, p0.IntermediateLines)
	}
	if p1.Leaf != p0.Leaf {
		t.Fatalf("%s: Leaf %v != %v", where(), p1.Leaf, p0.Leaf)
	}
	if n1.Depth == hyb.LeafDepth()-1 {
		if c1, c0 := hyb.CountLeafMatches(n1), list.CountLeafMatches(n0); c1 != c0 {
			t.Fatalf("%s: leaf matches %d != %d", where(), c1, c0)
		}
		return
	}
	if n1.Depth == hyb.LeafDepth() {
		return
	}
	for {
		v1, pr1, ok1 := hyb.NextChild(n1)
		v0, pr0, ok0 := list.NextChild(n0)
		if v1 != v0 || pr1 != pr0 || ok1 != ok0 {
			t.Fatalf("%s: child (%d, %d, %v) != (%d, %d, %v)", where(), v1, pr1, ok1, v0, pr0, ok0)
		}
		if !ok1 {
			return
		}
		c1 := hyb.NewNode(n1.Depth+1, v1, n1, n1.TreeID)
		c0 := list.NewNode(n0.Depth+1, v0, n0, n0.TreeID)
		walkTwin(t, hyb, list, c1, c0, tally)
		hyb.Release(c1)
		list.Release(c0)
	}
}
