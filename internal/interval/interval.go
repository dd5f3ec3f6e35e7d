// Package interval implements §6 of the paper: interval trees as an
// application of multisearch, supporting the multiple interval intersection
// problem (m intersection queries against a set S of n intervals, answered
// in parallel on the mesh).
//
// Two data structures are provided, exercising both §4 graph classes:
//
//   - CountTree: a directed balanced binary search tree over sorted
//     endpoints, answering intersection *counting* queries with two
//     root-to-leaf rank descents (α-partitionable multisearch, Theorem 5).
//     |[a,b] ∩ S| = n − #{Hi < a} − #{Lo > b}.
//
//   - SearchTree: an undirected balanced tree over the intervals sorted by
//     left endpoint, augmented with subtree maximum right endpoints (the
//     CLRS-style interval tree). An intersection query walks the tree in
//     pruned DFS order — travelling tree edges in both directions, the
//     α-β-partitionable case (Theorem 7) — counting and sampling the
//     intersecting intervals. Walk length is O(log n + k) for output size k.
package interval

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// Interval is a closed interval [Lo, Hi].
type Interval struct {
	Lo, Hi int64
	ID     int32
}

// Intersects reports whether two closed intervals overlap.
func (iv Interval) Intersects(lo, hi int64) bool { return iv.Lo <= hi && iv.Hi >= lo }

// Payload word layout for SearchTree vertices.
const (
	dataLo      = 0 // interval left endpoint (math.MaxInt64 for padding)
	dataHi      = 1 // interval right endpoint (math.MinInt64 for padding)
	dataMaxEndL = 2 // max right endpoint in the left subtree
	dataMaxEndR = 3 // max right endpoint in the right subtree
	dataID      = 4 // interval ID (-1 for padding)
)

// Query state word layout.
const (
	stateLo    = 0 // query interval left endpoint
	stateHi    = 1 // query interval right endpoint
	statePrev  = 2 // vertex visited immediately before the current one
	stateCount = 3 // number of intersecting intervals found
	stateRep0  = 4 // first reported interval ID (-1 if none)
	stateRep1  = 5 // second reported interval ID (-1 if none)
)

// MaxReported is the per-query report capacity of the bounded-reporting
// walk: the first MaxReported intersecting interval IDs (in tree DFS
// order) ride in the query record, the rest are counted. This is the
// O(1)-state form of §6's "reporting the k intervals" — full reporting
// requires Θ(k) output words per query, which no O(1)-state query can
// carry; batched LIMIT-style retrieval is the standard workaround.
const MaxReported = 2

const negInf = math.MinInt64
const posInf = math.MaxInt64

// SearchTree is the undirected augmented interval tree.
type SearchTree struct {
	Tree      *graph.Tree
	Intervals []Interval // sorted by Lo; index = inorder rank
	N         int        // real (non-padding) intervals
}

// NewSearchTree builds the interval tree over the given set. The set is
// padded with +∞ sentinels to the next complete-tree size; height is
// ⌈log₂(n+1)⌉-1 at minimum.
func NewSearchTree(set []Interval) *SearchTree {
	n := len(set)
	if n == 0 {
		panic("interval: empty set")
	}
	ivs := append([]Interval(nil), set...)
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].Lo != ivs[j].Lo {
			return ivs[i].Lo < ivs[j].Lo
		}
		return ivs[i].Hi < ivs[j].Hi
	})
	height := 0
	for (1<<(height+1))-1 < n {
		height++
	}
	full := (1 << (height + 1)) - 1
	for len(ivs) < full {
		ivs = append(ivs, Interval{Lo: posInf, Hi: negInf, ID: -1})
	}
	tr := graph.NewBalancedTree(2, height, false)
	st := &SearchTree{Tree: tr, Intervals: ivs, N: n}
	// Vertex IDs are level-major; assign intervals by inorder rank and
	// compute subtree max-ends bottom-up (deepest level first).
	maxEnd := make([]int64, tr.N())
	for lvl := height; lvl >= 0; lvl-- {
		for j := 0; j < tr.LevelSizes[lvl]; j++ {
			id := graph.VertexID(tr.LevelStart[lvl] + j)
			v := &tr.Verts[id]
			iv := ivs[inorderRank(lvl, j, height)]
			v.Data[dataLo] = iv.Lo
			v.Data[dataHi] = iv.Hi
			v.Data[dataID] = int64(iv.ID)
			me := iv.Hi
			if lvl < height {
				l := graph.VertexID(tr.LevelStart[lvl+1] + 2*j)
				r := l + 1
				v.Data[dataMaxEndL] = maxEnd[l]
				v.Data[dataMaxEndR] = maxEnd[r]
				if maxEnd[l] > me {
					me = maxEnd[l]
				}
				if maxEnd[r] > me {
					me = maxEnd[r]
				}
			} else {
				v.Data[dataMaxEndL] = negInf
				v.Data[dataMaxEndR] = negInf
			}
			maxEnd[id] = me
		}
	}
	return st
}

// inorderRank maps the j-th vertex of depth lvl in a complete binary tree
// of the given height to its inorder index.
func inorderRank(lvl, j, height int) int {
	// In a complete tree, the vertex (lvl, j) has inorder index
	// j·2^(h-lvl+1) + 2^(h-lvl) - 1.
	shift := height - lvl
	return j*(1<<(shift+1)) + (1 << shift) - 1
}

// InstallSplitters installs the Figure-3 α- and β-splitters on the tree for
// Algorithm 3 and returns their part-size bounds. Each splitting is
// normalized (tiny subtree parts grouped to Θ(maxPart), §4.1) so that
// Constrained-Multisearch's copy accounting stays within Lemma 3's O(n).
func (st *SearchTree) InstallSplitters() (s1, s2 graph.Splitting) {
	h := st.Tree.Height
	cut1 := (h + 1) / 3
	cut2 := (2*h + 2) / 3
	if cut1 < 1 {
		cut1 = 1
	}
	if cut2 <= cut1 {
		cut2 = cut1 + 1
	}
	if cut2 > h {
		cut2 = h
	}
	topVsRest := func(p int32) int {
		if p == 0 {
			return 0
		}
		return 1
	}
	s1 = graph.InstallTreeSplitter(st.Tree, cut1, graph.Primary)
	if s1.K*s1.MaxPart > 2*st.Tree.N() {
		s1 = graph.NormalizeParts(st.Tree.Graph, s1, s1.MaxPart, topVsRest)
	}
	s2 = graph.InstallTreeSplitter(st.Tree, cut2, graph.Secondary)
	if s2.K*s2.MaxPart > 2*st.Tree.N() {
		s2 = graph.NormalizeParts(st.Tree.Graph, s2, s2.MaxPart, topVsRest)
	}
	return s1, s2
}

// Successor drives one intersection query as a pruned DFS walk. The query
// arrives at a vertex, decides locally (using the vertex payload and the
// remembered previous vertex) whether to descend left, descend right, or
// retreat to the parent, and counts the intersecting intervals it meets.
func Successor(v *graph.Vertex, q *core.Query) (int, bool) {
	lo, hi := q.State[stateLo], q.State[stateHi]
	prev := graph.VertexID(q.State[statePrev])
	q.State[statePrev] = int64(v.ID)

	isRoot := v.Level == 0
	isLeaf := (isRoot && v.Deg == 0) || (!isRoot && v.Deg == 1)
	var parentSlot, leftSlot, rightSlot int
	if isRoot {
		parentSlot = -1
		leftSlot, rightSlot = 0, 1
	} else {
		parentSlot = 0
		leftSlot, rightSlot = 1, 2
	}
	if isLeaf {
		leftSlot, rightSlot = -1, -1
	}

	fromParent := q.Steps == 1 || (!isRoot && prev == v.Adj[parentSlot])
	fromLeft := leftSlot >= 0 && prev == v.Adj[leftSlot] && !fromParent
	goLeft := leftSlot >= 0 && v.Data[dataMaxEndL] >= lo
	goRight := rightSlot >= 0 && v.Data[dataMaxEndR] >= lo && v.Data[dataLo] <= hi

	selfCheck := func() {
		if v.Data[dataID] >= 0 && v.Data[dataLo] <= hi && v.Data[dataHi] >= lo {
			switch q.State[stateCount] {
			case 0:
				q.State[stateRep0] = v.Data[dataID]
			case 1:
				q.State[stateRep1] = v.Data[dataID]
			}
			q.State[stateCount]++
		}
	}
	retreat := func() (int, bool) {
		if isRoot {
			return 0, true
		}
		return parentSlot, false
	}

	switch {
	case fromParent:
		if goLeft {
			return leftSlot, false
		}
		selfCheck()
		if goRight {
			return rightSlot, false
		}
		return retreat()
	case fromLeft:
		selfCheck()
		if goRight {
			return rightSlot, false
		}
		return retreat()
	default: // from the right child
		return retreat()
	}
}

// NewQueries builds intersection queries [lo_i, hi_i] starting at the root.
func (st *SearchTree) NewQueries(ranges [][2]int64) []core.Query {
	qs := make([]core.Query, len(ranges))
	for i, r := range ranges {
		if r[0] > r[1] {
			panic(fmt.Sprintf("interval: query %d has lo > hi", i))
		}
		qs[i].Cur = st.Tree.Root()
		qs[i].State[stateLo] = r[0]
		qs[i].State[stateHi] = r[1]
		qs[i].State[statePrev] = int64(graph.Nil)
		qs[i].State[stateRep0] = -1
		qs[i].State[stateRep1] = -1
	}
	return qs
}

// Count extracts the intersection count from a finished query.
func Count(q core.Query) int64 { return q.State[stateCount] }

// Reported extracts the up-to-MaxReported interval IDs found first (in DFS
// order of the tree) from a finished query.
func Reported(q core.Query) []int32 {
	var out []int32
	for _, w := range []int64{q.State[stateRep0], q.State[stateRep1]} {
		if w >= 0 {
			out = append(out, int32(w))
		}
	}
	return out
}

// ReportAll answers one intersection query sequentially with full output,
// in tree DFS order (reference for the bounded mesh reporting).
func (st *SearchTree) ReportAll(lo, hi int64) []int32 {
	var out []int32
	var walk func(id graph.VertexID)
	walk = func(id graph.VertexID) {
		v := &st.Tree.Verts[id]
		isRoot := v.Level == 0
		isLeaf := (isRoot && v.Deg == 0) || (!isRoot && v.Deg == 1)
		var left, right graph.VertexID = graph.Nil, graph.Nil
		if !isLeaf {
			if isRoot {
				left, right = v.Adj[0], v.Adj[1]
			} else {
				left, right = v.Adj[1], v.Adj[2]
			}
		}
		if left != graph.Nil && v.Data[dataMaxEndL] >= lo {
			walk(left)
		}
		if v.Data[dataID] >= 0 && v.Data[dataLo] <= hi && v.Data[dataHi] >= lo {
			out = append(out, int32(v.Data[dataID]))
		}
		if right != graph.Nil && v.Data[dataMaxEndR] >= lo && v.Data[dataLo] <= hi {
			walk(right)
		}
	}
	walk(st.Tree.Root())
	return out
}

// BruteCount counts intersections directly — the independent reference.
func BruteCount(set []Interval, lo, hi int64) int64 {
	var c int64
	for _, iv := range set {
		if iv.Intersects(lo, hi) {
			c++
		}
	}
	return c
}
