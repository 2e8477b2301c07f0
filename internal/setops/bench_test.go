package setops

import (
	"math"
	"math/rand"
	"testing"
)

func benchSets(n, m, universe int, seed int64) (a, b []VertexID) {
	rng := rand.New(rand.NewSource(seed))
	return randSet(rng, n, universe), randSet(rng, m, universe)
}

func BenchmarkIntersectMerge(b *testing.B) {
	x, y := benchSets(1000, 1200, 8000, 1)
	dst := make([]VertexID, 0, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst[:0], x, y)
	}
}

func BenchmarkIntersectGallop(b *testing.B) {
	x, y := benchSets(20, 40000, 200000, 2)
	dst := make([]VertexID, 0, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst[:0], x, y)
	}
}

func BenchmarkIntersectCount(b *testing.B) {
	x, y := benchSets(1000, 1200, 8000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectCount(x, y)
	}
}

func BenchmarkSubtract(b *testing.B) {
	x, y := benchSets(1000, 1200, 8000, 4)
	dst := make([]VertexID, 0, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Subtract(dst[:0], x, y)
	}
}

// Hub-shaped benchmarks: operand shapes mimicking a skewed R-MAT
// adjacency — a moderate candidate list intersected against a hub
// vertex's long, low-id-clustered neighbor list. These pin the bitmap
// kernels' advantage at the densities where the miner dispatches to
// them; regressions show up against the baselines/quick.json trajectory.

// rmatLikeSet draws n distinct ids skewed toward low ids (quadratic
// bias), the shape R-MAT initiator matrices produce.
func rmatLikeSet(rng *rand.Rand, n, universe int) []VertexID {
	m := map[VertexID]bool{}
	for len(m) < n {
		f := rng.Float64()
		m[VertexID(f*f*float64(universe))] = true
	}
	out := make([]VertexID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sortIDs(out)
	return out
}

func sortIDs(v []VertexID) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// hubShape returns a candidate list, a hub adjacency list, and the hub's
// prebuilt bitset over a 16K-vertex universe.
func hubShape(listLen, hubDeg int, seed int64) (list, hub []VertexID, bits []uint64) {
	const universe = 1 << 14
	rng := rand.New(rand.NewSource(seed))
	list = rmatLikeSet(rng, listLen, universe)
	hub = rmatLikeSet(rng, hubDeg, universe)
	bits = make([]uint64, BitsetWords(universe))
	BitsetFill(bits, hub)
	return list, hub, bits
}

func BenchmarkIntersectHubMerge(b *testing.B) {
	list, hub, _ := hubShape(400, 6000, 21)
	dst := make([]VertexID, 0, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst[:0], list, hub)
	}
}

func BenchmarkIntersectHubBitmap(b *testing.B) {
	list, _, bits := hubShape(400, 6000, 21)
	dst := make([]VertexID, 0, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = IntersectBitmap(dst[:0], list, bits)
	}
}

func BenchmarkIntersectCountHubBitmapBound(b *testing.B) {
	list, _, bits := hubShape(400, 6000, 22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectCountBitmapBound(list, bits, 1<<13)
	}
}

func BenchmarkSubtractHubMerge(b *testing.B) {
	list, hub, _ := hubShape(400, 6000, 23)
	dst := make([]VertexID, 0, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Subtract(dst[:0], list, hub)
	}
}

func BenchmarkSubtractHubBitmap(b *testing.B) {
	list, _, bits := hubShape(400, 6000, 23)
	dst := make([]VertexID, 0, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = SubtractBitmap(dst[:0], list, bits)
	}
}

// BenchmarkDispatcherHubIntersect measures the adaptive path end to end
// (cost estimate + bitmap kernel) against a hub operand.
func BenchmarkDispatcherHubIntersect(b *testing.B) {
	list, hub, bits := hubShape(400, 6000, 24)
	a := Operand{List: list}
	h := Operand{List: hub, Bits: bits}
	var d Dispatcher
	dst := make([]VertexID, 0, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = d.Intersect(dst[:0], a, h)
	}
}

// BenchmarkDispatcherBalancedFallback pins the dispatch overhead when no
// bitset view exists and the merge walk is chosen (the seed hot path).
func BenchmarkDispatcherBalancedFallback(b *testing.B) {
	x, y := benchSets(1000, 1200, 8000, 25)
	a, c := Operand{List: x}, Operand{List: y}
	var d Dispatcher
	dst := make([]VertexID, 0, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = d.Intersect(dst[:0], a, c)
	}
}

// simTrafficBuckets is the size-ratio mix of the simulator's functional
// intersections, measured on one pass of the sim-batch workload (~677k
// calls; smaller operand 40 elements on average, larger 231, output
// 7.7): the share of calls whose larger/smaller ratio falls in
// [lo, hi). smallMean is the smaller side's mean size per bucket,
// chosen so the overall means match. The list kernels merge every
// bucket but the last, which they gallop.
var simTrafficBuckets = []struct {
	share     float64
	lo, hi    float64
	smallMean float64
}{
	{0.19, 1, 2, 64},
	{0.40, 2, 8, 54},
	{0.26, 8, 32, 22},
	{0.15, 32, 64, 5},
}

// simTrafficPairs draws n operand pairs (smaller, larger) with the
// simTrafficBuckets mix over an R-MAT-skewed universe, plus a bitset of
// each larger side (the hub-index view of a hub's neighbor list). The
// universe size sets the overlap: 20k draws average 40/233 elements in
// and 8.0 out, in ratio buckets of 19/40/26/15%.
func simTrafficPairs(n int, seed int64) (small, large [][]VertexID, bits [][]uint64) {
	const universe = 3000
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		u, k := rng.Float64(), 0
		for ; k < len(simTrafficBuckets)-1 && u >= simTrafficBuckets[k].share; k++ {
			u -= simTrafficBuckets[k].share
		}
		bk := simTrafficBuckets[k]
		s := 1 + int(rng.ExpFloat64()*(bk.smallMean-1))
		ratio := bk.lo * math.Pow(bk.hi/bk.lo, rng.Float64()) // log-uniform
		l := int(float64(s) * ratio)
		if l > universe/2 {
			l = universe / 2
		}
		a, b := rmatLikeSet(rng, s, universe), rmatLikeSet(rng, l, universe)
		bs := make([]uint64, BitsetWords(universe))
		BitsetFill(bs, b)
		small, large, bits = append(small, a), append(large, b), append(bits, bs)
	}
	return small, large, bits
}

// BenchmarkDispatchSimTraffic replays simulator-shaped intersections
// through the Dispatcher, with the larger side as a plain list (the
// merge/gallop kernels) and with a bitset view of it (the bitmap
// kernel a hub operand gets). ns/op is per set operation.
func BenchmarkDispatchSimTraffic(b *testing.B) {
	small, large, bits := simTrafficPairs(1024, 31)
	for _, withBits := range []bool{false, true} {
		name := "lists"
		if withBits {
			name = "bitset"
		}
		b.Run(name, func(b *testing.B) {
			ops := make([][2]Operand, len(small))
			for i := range ops {
				ops[i][0] = Operand{List: small[i]}
				ops[i][1] = Operand{List: large[i]}
				if withBits {
					ops[i][1].Bits = bits[i]
				}
			}
			var d Dispatcher
			dst := make([]VertexID, 0, 1<<12)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := &ops[i%len(ops)]
				dst = d.Intersect(dst[:0], op[0], op[1])
			}
		})
	}
}
