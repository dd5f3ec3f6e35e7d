// Package workload generates the synthetic inputs of the experiment suite:
// search-tree queries, traversal queries, hierarchical-DAG descents, and
// the successor functions that drive them. Every generator is seeded and
// deterministic. The generators substitute for the paper's unspecified
// inputs (the paper is theoretical and reports no datasets); see DESIGN.md.
package workload

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
)

// State word layout for the query kinds below.
const (
	StateKey   = 0 // search key
	StatePhase = 1 // traversal phase (descend/ascend)
	StateAcc   = 2 // order-sensitive visit digest
	StateCount = 3 // application accumulator (e.g. intersection count)
)

// digest folds a visited vertex into the query's order-sensitive visit
// digest. Equal digests certify equal visit sequences — this is what makes
// oracle comparisons strong.
func digest(acc int64, id graph.VertexID) int64 {
	return acc*1000003 + int64(id) + 1
}

// KeySearchSuccessor drives a root-to-leaf key search on any span-annotated
// search structure (graph.CompleteTreeHDag, graph.NewBalancedTree directed,
// and the k-ary levels of interval trees): at an internal vertex descend
// into the child whose key span contains State[StateKey]; finish at a
// vertex with no children. Works on hierarchical DAGs and α-partitionable
// directed trees alike.
func KeySearchSuccessor(v *graph.Vertex, q *core.Query) (int, bool) {
	q.State[StateAcc] = digest(q.State[StateAcc], v.ID)
	if v.Deg == 0 {
		return 0, true
	}
	key := q.State[StateKey]
	return spanChild(key, v.Data[graph.HDagSpanStart], v.Data[graph.HDagSpanWidth], int(v.Deg)), false
}

// spanChild maps a key to the child whose equal share of [start, start+width)
// contains it, clamped to [0, deg). A vertex whose span is narrower than its
// degree has per-child spans of width zero; descend into child 0 rather than
// dividing by zero.
func spanChild(key, start, width int64, deg int) int {
	per := width / int64(deg)
	if per < 1 {
		return 0
	}
	idx := int((key - start) / per)
	if idx < 0 {
		idx = 0
	}
	if idx >= deg {
		idx = deg - 1
	}
	return idx
}

// DownUpSuccessor drives an undirected balanced tree traversal: descend by
// key to a leaf, then climb back to the root, then stop. The path has
// length 2h+1 and crosses every depth cut twice, exercising both splitters
// of an α-β-partitionable tree in both directions.
func DownUpSuccessor(k int) core.Successor {
	return func(v *graph.Vertex, q *core.Query) (int, bool) {
		q.State[StateAcc] = digest(q.State[StateAcc], v.ID)
		isRoot := v.Level == 0
		childCount := int(v.Deg)
		if !isRoot {
			childCount-- // slot 0 is the parent edge
		}
		if q.State[StatePhase] == 0 { // descending
			if childCount == 0 {
				q.State[StatePhase] = 1
				if isRoot {
					return 0, true // degenerate single-vertex tree
				}
				return 0, false // parent edge
			}
			key := q.State[StateKey]
			idx := spanChild(key, v.Data[graph.HDagSpanStart], v.Data[graph.HDagSpanWidth], childCount)
			if isRoot {
				return idx, false
			}
			return idx + 1, false
		}
		// Ascending.
		if isRoot {
			return 0, true
		}
		return 0, false
	}
}

// RandomWalkDownSuccessor descends a hierarchical DAG by a deterministic
// pseudo-random child choice (hash of key and vertex), finishing at a
// sink. Exercises arbitrary congestion: walks seeded with equal keys
// collide at every level.
func RandomWalkDownSuccessor(v *graph.Vertex, q *core.Query) (int, bool) {
	q.State[StateAcc] = digest(q.State[StateAcc], v.ID)
	if v.Deg == 0 {
		return 0, true
	}
	h := uint64(q.State[StateKey])*0x9E3779B97F4A7C15 ^ uint64(v.ID)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return int(h % uint64(v.Deg)), false
}

// KeySearchQueries draws m uniform keys in [0, keySpace) and returns
// queries starting at start. dup > 1 makes keys collide on purpose (each
// key repeated dup times), creating the congestion the multisearch copies
// resolve.
func KeySearchQueries(m int, keySpace int64, start graph.VertexID, dup int, rng *rand.Rand) []core.Query {
	if dup < 1 {
		dup = 1
	}
	qs := make([]core.Query, m)
	var key int64
	for i := range qs {
		if i%dup == 0 {
			key = rng.Int63n(keySpace)
		}
		qs[i].Cur = start
		qs[i].State[StateKey] = key
	}
	return qs
}

// SkewedQueries draws keys from a power-law-ish distribution (many
// duplicates of few hot keys), the adversarial congestion case.
func SkewedQueries(m int, keySpace int64, start graph.VertexID, rng *rand.Rand) []core.Query {
	qs := make([]core.Query, m)
	hot := make([]int64, 8)
	for i := range hot {
		hot[i] = rng.Int63n(keySpace)
	}
	for i := range qs {
		qs[i].Cur = start
		if rng.Intn(2) == 0 {
			qs[i].State[StateKey] = hot[rng.Intn(len(hot))]
		} else {
			qs[i].State[StateKey] = rng.Int63n(keySpace)
		}
	}
	return qs
}
