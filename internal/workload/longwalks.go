package workload

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
)

// Long-search-path workloads for the Theorem 5/7 experiments (E3-E5).
//
// For directed α-partitionable graphs, search paths longer than log n live
// inside subgraphs: once a query crosses the splitter into a T_j it can
// never leave (all splitter arcs run H→T), so unbounded r requires cyclic
// components. CycleGraph builds the canonical instance: a disjoint union of
// directed cycles, which is α-partitionable with the empty splitter (every
// component already has size O(n^α)).
//
// For undirected α-β-partitionable graphs, long paths bounce: BounceQueries
// walk a balanced tree root→leaf→root k times, rehashing the search key at
// every turn, crossing both splitters Θ(k) times.

// CycleGraph returns numCycles directed cycles of the given length, with
// Part = cycle index (the trivial normalized α-splitting, S = ∅).
func CycleGraph(numCycles, length int) *graph.Graph {
	g := graph.New(numCycles*length, true)
	for c := 0; c < numCycles; c++ {
		base := c * length
		for i := 0; i < length; i++ {
			id := graph.VertexID(base + i)
			g.Verts[id].Part = int32(c)
			g.AddArc(id, graph.VertexID(base+(i+1)%length))
		}
	}
	g.RefreshAdjParts()
	return g
}

// WalkSuccessor advances a query along adjacency slot 0 until it has made
// State[StateKey] visits.
func WalkSuccessor(v *graph.Vertex, q *core.Query) (int, bool) {
	q.State[StateAcc] = digest(q.State[StateAcc], v.ID)
	if int64(q.Steps) >= q.State[StateKey] {
		return 0, true
	}
	return 0, false
}

// WalkQueries starts m fixed-length walks of r steps at random vertices.
func WalkQueries(m, r, n int, rng *rand.Rand) []core.Query {
	qs := make([]core.Query, m)
	for i := range qs {
		qs[i].Cur = graph.VertexID(rng.Intn(n))
		qs[i].State[StateKey] = int64(r)
	}
	return qs
}

// BounceSuccessor walks an undirected balanced k-ary tree root→leaf→root,
// `bounces` times, rehashing the key at every leaf so each descent takes a
// fresh path. Path length r = bounces·2h + 1.
func BounceSuccessor(k int) core.Successor {
	downUp := DownUpSuccessor(k)
	return func(v *graph.Vertex, q *core.Query) (int, bool) {
		edge, done := downUp(v, q)
		if !done {
			return edge, false
		}
		// Back at the root: start the next bounce or finish.
		if q.State[StateCount] == 0 {
			return 0, true
		}
		q.State[StateCount]--
		q.State[StatePhase] = 0 // descend again
		h := uint64(q.State[StateKey])*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
		h ^= h >> 29
		q.State[StateKey] = int64(h % uint64(v.Data[graph.HDagSpanWidth]))
		key := q.State[StateKey]
		childCount := int(v.Deg)
		width := v.Data[graph.HDagSpanWidth] / int64(childCount)
		idx := int(key / width)
		if idx >= childCount {
			idx = childCount - 1
		}
		return idx, false
	}
}

// BounceQueries starts m bouncing traversals with the given bounce count.
func BounceQueries(m, bounces int, keySpace int64, root graph.VertexID, rng *rand.Rand) []core.Query {
	qs := make([]core.Query, m)
	for i := range qs {
		qs[i].Cur = root
		qs[i].State[StateKey] = rng.Int63n(keySpace)
		qs[i].State[StateCount] = int64(bounces - 1)
	}
	return qs
}
