package interval

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// CountTree answers interval intersection *counting* queries with two
// root-to-leaf descents over directed balanced search trees — the
// α-partitionable application of Theorem 5:
//
//	|{I ∈ S : I ∩ [a,b] ≠ ∅}| = n − #{I : I.Hi < a} − #{I : I.Lo > b}.
//
// Both counts are rank queries over sorted endpoint arrays, each a complete
// binary search tree whose vertices carry (key, #leaves-in-left-subtree).
// One CountTree packs the Hi-rank tree and the Lo-rank tree into a single
// graph (two roots) so a single multisearch run answers both descents: each
// query is issued twice, once per tree.
type CountTree struct {
	G       *graph.Graph
	RootHi  graph.VertexID // search for rank of a among sorted Hi values
	RootLo  graph.VertexID // search for rank of b among sorted Lo values
	N       int
	Height  int
	HiVals  []int64 // sorted
	LoVals  []int64 // sorted
	NumVert int
}

// CountTree payload layout.
const (
	ctKey   = 0 // routing key
	ctLeft  = 1 // number of values in the left subtree
	ctValue = 2 // leaf value (leaves only)
	ctIsHi  = 3 // 1 if the vertex belongs to the Hi tree
)

// CountTree query state layout.
const (
	ctStateNeedle = 0 // the endpoint being ranked
	ctStateCount  = 2 // accumulated count of values < needle
	ctStateDigest = 3
)

// NewCountTree builds the two rank trees over the endpoint multisets.
func NewCountTree(set []Interval) *CountTree {
	n := len(set)
	his := make([]int64, n)
	los := make([]int64, n)
	for i, iv := range set {
		his[i] = iv.Hi
		los[i] = iv.Lo
	}
	sort.Slice(his, func(i, j int) bool { return his[i] < his[j] })
	sort.Slice(los, func(i, j int) bool { return los[i] < los[j] })

	height := 0
	for 1<<height < n {
		height++
	}
	leaves := 1 << height
	perTree := 2*leaves - 1
	g := graph.New(2*perTree, true)
	ct := &CountTree{
		G: g, N: n, Height: height,
		HiVals: his, LoVals: los, NumVert: 2 * perTree,
	}
	build := func(base int, vals []int64, isHi int64) graph.VertexID {
		// Level-major complete binary tree over `leaves` padded leaves.
		pad := make([]int64, leaves)
		copy(pad, vals)
		for i := len(vals); i < leaves; i++ {
			pad[i] = math.MaxInt64 // +∞ padding sorts last, never counted
		}
		id := base
		for lvl := 0; lvl <= height; lvl++ {
			width := leaves >> lvl
			for j := 0; j < (1 << lvl); j++ {
				v := &g.Verts[id]
				v.Level = int32(lvl)
				v.Data[ctIsHi] = isHi
				lo := j * width
				if lvl == height {
					v.Data[ctKey] = pad[lo]
					v.Data[ctValue] = pad[lo]
					if lo < len(vals) {
						v.Data[ctLeft] = 1 // real leaf counts itself
					}
				} else {
					mid := lo + width/2
					v.Data[ctKey] = pad[mid] // min of right subtree
					cnt := int64(0)
					for t := lo; t < mid && t < len(vals); t++ {
						cnt++
					}
					v.Data[ctLeft] = cnt
					childBase := base + (1 << (lvl + 1)) - 1
					g.AddArc(graph.VertexID(id), graph.VertexID(childBase+2*j))
					g.AddArc(graph.VertexID(id), graph.VertexID(childBase+2*j+1))
				}
				id++
			}
		}
		return graph.VertexID(base)
	}
	ct.RootHi = build(0, his, 1)
	ct.RootLo = build(perTree, los, 0)
	return ct
}

// InstallSplitter installs the α-splitter (cut at half height) on both
// trees and returns the combined splitting bound.
func (ct *CountTree) InstallSplitter() int {
	cut := (ct.Height + 1) / 2
	if cut < 1 {
		cut = 1
	}
	// Assign parts manually: part 0 and 1 are the two top trees; subtree
	// roots at depth `cut` of each tree get their own parts.
	next := int32(2)
	maxPart := 0
	sizes := map[int32]int{}
	var assign func(id graph.VertexID, part int32)
	assign = func(id graph.VertexID, part int32) {
		v := &ct.G.Verts[id]
		v.Part = part
		sizes[part]++
		for j := 0; j < int(v.Deg); j++ {
			child := v.Adj[j]
			cp := part
			if int(ct.G.Verts[child].Level) == cut {
				cp = next
				next++
			}
			assign(child, cp)
		}
	}
	assign(ct.RootHi, 0)
	assign(ct.RootLo, 1)
	ct.G.RefreshAdjParts()
	for _, s := range sizes {
		if s > maxPart {
			maxPart = s
		}
	}
	return maxPart
}

// CountSuccessor performs one rank-descent step: count the tree's values
// strictly below the needle, descending by the routing key (the minimum of
// the right subtree). Going right banks the left subtree's count; a real
// leaf banks itself.
func CountSuccessor(v *graph.Vertex, q *core.Query) (int, bool) {
	q.State[ctStateDigest] = q.State[ctStateDigest]*1000003 + int64(v.ID) + 1
	needle := q.State[ctStateNeedle]
	if v.Deg == 0 { // leaf
		if v.Data[ctLeft] > 0 && v.Data[ctValue] < needle {
			q.State[ctStateCount]++
		}
		return 0, true
	}
	if needle > v.Data[ctKey] {
		q.State[ctStateCount] += v.Data[ctLeft]
		return 1, false
	}
	return 0, false
}

// NewQueries creates the 2m rank queries for m intersection queries: query
// 2i ranks a_i among Hi values (#Hi < a), query 2i+1 ranks b_i+1 among Lo
// values (#Lo < b+1 = #Lo ≤ b; keys are integers). Both descents run the
// same strict-below successor.
func (ct *CountTree) NewQueries(ranges [][2]int64) []core.Query {
	qs := make([]core.Query, 0, 2*len(ranges))
	for _, r := range ranges {
		qs = ct.AppendQueries(qs, r[0], r[1])
	}
	return qs
}

// AppendQueries appends the two rank queries of the intersection query
// [a, b] to qs.
func (ct *CountTree) AppendQueries(qs []core.Query, a, b int64) []core.Query {
	var hi, lo core.Query
	hi.Cur = ct.RootHi
	hi.State[ctStateNeedle] = a // count Hi < a
	lo.Cur = ct.RootLo
	lo.State[ctStateNeedle] = b + 1 // count Lo < b+1 ⇒ Lo ≤ b
	return append(qs, hi, lo)
}

// Counts combines the finished rank queries into intersection counts.
func (ct *CountTree) Counts(results []core.Query, m int) []int64 {
	out := make([]int64, m)
	for i := range out {
		out[i] = ct.Count(results, i)
	}
	return out
}

// Count combines the two finished rank queries of intersection query i
// (results 2i and 2i+1) into its intersection count.
func (ct *CountTree) Count(results []core.Query, i int) int64 {
	hiBelowA := results[2*i].State[ctStateCount]
	loAtMostB := results[2*i+1].State[ctStateCount]
	// n − #{Hi < a} − #{Lo > b} = n − #{Hi < a} − (n − #{Lo ≤ b}).
	return loAtMostB - hiBelowA
}
