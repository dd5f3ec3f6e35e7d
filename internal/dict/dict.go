// Package dict implements a parallel dictionary on the mesh: an (a,b)-tree
// (2-3 tree by default — the structure of [PVS83], which §1 cites as the
// EREW-PRAM ancestor of multisearch) over a sorted key set, answering
// batched membership and predecessor queries through α-partitionable
// multisearch (Theorem 5). Unlike the complete k-ary trees of Figures 2–3,
// an (a,b)-tree has variable arity and ragged subtree sizes, exercising the
// general depth-cut splitter and part normalization.
package dict

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// Node payload layout: Data[0..maxSep-1] hold the separator keys (the
// minimum key of child j+1 sits in Data[j]), Data[sepCount] slot stores the
// number of children; leaves store their key in Data[0] and -1 children.
const (
	maxSep   = 6 // supports b ≤ 7 children
	dataNKid = 6 // number of children (0 for leaves)
	dataLeaf = 7 // 1 if leaf
)

// Query state layout.
const (
	stateNeedle = 0
	// StateFound is 1 if the needle is a member.
	StateFound = 1
	// StateLeafKey receives the key of the reached leaf (the member, or the
	// smallest key ≥ needle in its leaf neighbourhood).
	StateLeafKey = 2
	stateDigest  = 3
)

// BTree is an (a,b)-tree over distinct int64 keys, one key per leaf.
// Vertex IDs are assigned level by level from the root.
type BTree struct {
	G      *graph.Graph
	Root   graph.VertexID
	Height int
	Depth  []int32
	Keys   []int64 // sorted
	A, B   int
}

// New builds the (a,b)-tree bottom-up. Requires 2 ≤ a ≤ (b+1)/2 (so that
// merge-redistribution always lands in [a,b]) and b+1 ≤ graph.MaxDegree.
func New(keys []int64, a, b int) *BTree {
	if len(keys) == 0 {
		panic("dict: empty key set")
	}
	if a < 2 || a > (b+1)/2 || b > maxSep+1 {
		panic(fmt.Sprintf("dict: invalid (a,b) = (%d,%d)", a, b))
	}
	ks := append([]int64{}, keys...)
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	for i := 1; i < len(ks); i++ {
		if ks[i] == ks[i-1] {
			panic("dict: duplicate key")
		}
	}

	// Build levels bottom-up as (minKey, children...) groups.
	type node struct {
		min      int64
		key      int64 // leaves only
		children []int // indices into the previous level
		leaf     bool
	}
	var levels [][]node
	cur := make([]node, len(ks))
	for i, k := range ks {
		cur[i] = node{min: k, key: k, leaf: true}
	}
	levels = append(levels, cur)
	for len(cur) > 1 {
		var next []node
		i := 0
		n := len(cur)
		for i < n {
			take := b
			rem := n - i
			if rem < take {
				take = rem
			}
			// Keep the leftover group ≥ a by borrowing from this one.
			if rest := n - i - take; rest > 0 && rest < a {
				take -= a - rest
			}
			if take < a && len(next) == 0 && rem == n {
				// Entire level smaller than a: a single small root group.
				take = rem
			}
			kids := make([]int, take)
			for j := 0; j < take; j++ {
				kids[j] = i + j
			}
			next = append(next, node{min: cur[i].min, children: kids})
			i += take
		}
		levels = append(levels, next)
		cur = next
	}

	// Assemble the graph, root first (level-major IDs).
	height := len(levels) - 1
	total := 0
	for _, lv := range levels {
		total += len(lv)
	}
	g := graph.New(total, true)
	t := &BTree{G: g, Root: 0, Height: height, Depth: make([]int32, total), Keys: ks, A: a, B: b}
	// ID of node j at build-level l (build levels are bottom-up).
	idOf := make([][]graph.VertexID, len(levels))
	id := 0
	for l := height; l >= 0; l-- {
		idOf[l] = make([]graph.VertexID, len(levels[l]))
		for j := range levels[l] {
			idOf[l][j] = graph.VertexID(id)
			id++
		}
	}
	for l := height; l >= 0; l-- {
		depth := height - l
		for j, nd := range levels[l] {
			vid := idOf[l][j]
			v := &g.Verts[vid]
			v.Level = int32(depth)
			t.Depth[vid] = int32(depth)
			if nd.leaf {
				v.Data[0] = nd.key
				v.Data[dataNKid] = 0
				v.Data[dataLeaf] = 1
				continue
			}
			v.Data[dataNKid] = int64(len(nd.children))
			for c, ci := range nd.children {
				g.AddArc(vid, idOf[l-1][ci])
				if c > 0 {
					v.Data[c-1] = levels[l-1][ci].min
				}
			}
		}
	}
	return t
}

// Validate checks the (a,b)-tree invariants: arity bounds (except the
// root), separator ordering, and the search property (every key reachable
// by separator descent).
func (t *BTree) Validate() error {
	for i := range t.G.Verts {
		v := &t.G.Verts[i]
		if v.Data[dataLeaf] == 1 {
			continue
		}
		k := int(v.Data[dataNKid])
		if int(v.Deg) != k {
			return fmt.Errorf("dict: node %d arity %d ≠ recorded %d", i, v.Deg, k)
		}
		if graph.VertexID(i) != t.Root && (k < t.A || k > t.B) {
			return fmt.Errorf("dict: node %d arity %d outside [%d,%d]", i, k, t.A, t.B)
		}
		for c := 1; c < k-1; c++ {
			if v.Data[c-1] >= v.Data[c] {
				return fmt.Errorf("dict: node %d separators out of order", i)
			}
		}
	}
	for _, k := range t.Keys {
		if got := t.lookupHost(k); got != k {
			return fmt.Errorf("dict: key %d unreachable (descended to %d)", k, got)
		}
	}
	return nil
}

// lookupHost descends sequentially and returns the reached leaf's key.
func (t *BTree) lookupHost(needle int64) int64 {
	k, _, _ := t.HostLookup(needle)
	return k
}

// HostLookup descends the tree sequentially on the host and returns the
// reached leaf's key, whether the needle is a member, and the number of
// nodes visited on the way down. It is the degraded-mode analogue of one
// mesh query's answer (same leaf, same search-path length as a faithful
// round would report) — correct, but unaccounted in mesh steps — used by
// the serving layer when the mesh is unavailable (DESIGN.md §3.6).
func (t *BTree) HostLookup(needle int64) (leafKey int64, found bool, pathLen int32) {
	cur := t.Root
	for {
		v := &t.G.Verts[cur]
		pathLen++
		if v.Data[dataLeaf] == 1 {
			return v.Data[0], v.Data[0] == needle, pathLen
		}
		cur = v.Adj[childFor(v, needle)]
	}
}

// childFor picks the child slot by separator comparison.
func childFor(v *graph.Vertex, needle int64) int {
	k := int(v.Data[dataNKid])
	c := 0
	for c < k-1 && needle >= v.Data[c] {
		c++
	}
	return c
}

// Successor drives one batched lookup step.
func Successor(v *graph.Vertex, q *core.Query) (int, bool) {
	q.State[stateDigest] = q.State[stateDigest]*1000003 + int64(v.ID) + 1
	if v.Data[dataLeaf] == 1 {
		q.State[StateLeafKey] = v.Data[0]
		if v.Data[0] == q.State[stateNeedle] {
			q.State[StateFound] = 1
		}
		return 0, true
	}
	return childFor(v, q.State[stateNeedle]), false
}

// NewQueries builds membership queries for the needles.
func (t *BTree) NewQueries(needles []int64) []core.Query {
	qs := make([]core.Query, len(needles))
	for i, k := range needles {
		qs[i] = t.Query(k)
	}
	return qs
}

// Query builds one membership query for needle, starting at the root.
func (t *BTree) Query(needle int64) core.Query {
	var q core.Query
	q.Cur = t.Root
	q.State[stateNeedle] = needle
	return q
}

// InstallSplitter installs a normalized α-splitting (depth cut at half
// height) and returns the part-size bound for MultisearchAlpha.
func (t *BTree) InstallSplitter() int {
	cut := (t.Height + 1) / 2
	if cut < 1 {
		cut = 1
	}
	if cut > t.Height {
		cut = t.Height
	}
	s := graph.InstallDepthSplitter(t.G, t.Root, t.Depth, cut, graph.Primary)
	if s.K*s.MaxPart > 2*t.G.N() {
		s = graph.NormalizeParts(t.G, s, s.MaxPart, func(p int32) int {
			if p == 0 {
				return 0
			}
			return 1
		})
	}
	// Balance the other way: a huge top over tiny subtrees regroups the
	// subtrees toward the top's size (handled above); a tiny top is fine.
	return s.MaxPart
}

// Member reports whether a finished query found its needle.
func Member(q core.Query) bool { return q.State[StateFound] == 1 }

// Contains reports host-side whether key is in the dictionary, by binary
// search on the sorted key set — the O(log n) sequential oracle the serving
// layer and the load generator check mesh answers against.
func (t *BTree) Contains(key int64) bool {
	i := sort.Search(len(t.Keys), func(i int) bool { return t.Keys[i] >= key })
	return i < len(t.Keys) && t.Keys[i] == key
}
