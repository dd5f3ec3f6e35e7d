// Package polyhedron implements the hierarchical representation of convex
// polyhedra (Dobkin–Kirkpatrick) used by §5 and Theorem 8: a sequence of
// nested hulls P = S_0 ⊃ S_1 ⊃ … ⊃ S_m obtained by repeatedly removing an
// independent set of low-degree vertices, turned into a constant-degree
// search DAG over which extreme-vertex ("multiple tangent plane
// determination") queries descend with O(1) work per level.
//
// The DK refinement lemma drives the successor: if v is the extreme vertex
// of S_s in direction d, the extreme vertex of the finer S_{s-1} is either
// v or one of the removed vertices adjacent to v in S_{s-1}. Each DAG node
// therefore links to exactly those candidates, and carries their
// coordinates in its extended payload so the query picks the argmax
// locally.
//
// Separation of two polyhedra (Theorem 8.2) is reduced to batched extreme
// queries over candidate directions (face normals and edge-pair cross
// products — the exact polytope separating-axis set); see separation.go.
package polyhedron

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
)

// fanoutCap bounds how many removed vertices may name one survivor as
// neighbour, keeping DAG out-degree ≤ 1 (self) + fanoutCap ≤ MaxDegree.
const fanoutCap = graph.MaxDegree - 1

// topMax is the coarsening target: the coarsest hull has at most topMax
// vertices, all children of the artificial root (≤ MaxDegree).
const topMax = graph.MaxDegree

// Hierarchy is the DK search DAG of one convex polyhedron.
type Hierarchy struct {
	Dag    *graph.HDag
	Poly   *geom.Polyhedron
	Levels int // DAG levels including the artificial root
	Stages int // hull stages
}

// Payload layout.
const (
	dataX = iota
	dataY
	dataZ
	dataHullIdx // index of the vertex in Poly.Pts; -1 at the root
)

// Query state layout.
const (
	StateDX = 0
	StateDY = 1
	StateDZ = 2
	// StateAnswer receives the extreme vertex's hull index.
	StateAnswer = 3
)

type stage struct {
	verts []int32           // hull vertex indices present in this stage
	adj   map[int32][]int32 // 1-skeleton of this stage
	// cand[v] = removed vertices of the next finer stage adjacent to v
	// there (filled during coarsening).
	cand map[int32][]int32
}

// Build constructs the hierarchy of the polyhedron.
func Build(p *geom.Polyhedron) (*Hierarchy, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("polyhedron: invalid input hull: %w", err)
	}
	cur := &stage{verts: append([]int32{}, p.Verts...), adj: p.Neighbors()}
	stages := []*stage{cur}
	for len(cur.verts) > topMax {
		next, err := coarsenHull(p.Pts, cur)
		if err != nil {
			return nil, err
		}
		if len(next.verts) >= len(cur.verts) {
			return nil, fmt.Errorf("polyhedron: coarsening stalled at %d vertices", len(cur.verts))
		}
		stages = append(stages, next)
		cur = next
	}
	return assemble(p, stages)
}

// coarsenHull removes a fanout-capped independent set of low-degree
// vertices from the stage and rebuilds the hull of the survivors. The
// removed vertices are recorded as candidates on their neighbours.
func coarsenHull(pts []geom.Point3, cur *stage) (*stage, error) {
	order := append([]int32{}, cur.verts...)
	sort.Slice(order, func(i, j int) bool {
		if len(cur.adj[order[i]]) != len(cur.adj[order[j]]) {
			return len(cur.adj[order[i]]) < len(cur.adj[order[j]])
		}
		return order[i] < order[j]
	})
	blocked := map[int32]bool{}
	fanout := map[int32]int{}
	cur.cand = map[int32][]int32{}
	removed := map[int32]bool{}
	budget := len(cur.verts) - 4 // always keep a tetrahedron's worth
	for _, v := range order {
		if budget == 0 {
			break
		}
		ns := cur.adj[v]
		if len(ns) > graph.MaxDegree || blocked[v] {
			continue
		}
		ok := true
		for _, u := range ns {
			if fanout[u] >= fanoutCap {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		removed[v] = true
		budget--
		for _, u := range ns {
			blocked[u] = true
			fanout[u]++
			cur.cand[u] = append(cur.cand[u], v)
		}
		blocked[v] = true
	}
	if len(removed) == 0 {
		return nil, fmt.Errorf("polyhedron: no removable vertex among %d", len(cur.verts))
	}
	var keep []int32
	for _, v := range cur.verts {
		if !removed[v] {
			keep = append(keep, v)
		}
	}
	// Rebuild the hull of the survivors to get the coarser 1-skeleton.
	sub := make([]geom.Point3, len(keep))
	for i, v := range keep {
		sub[i] = pts[v]
	}
	hull, err := geom.ConvexHull3D(sub)
	if err != nil {
		return nil, fmt.Errorf("polyhedron: coarse hull: %w", err)
	}
	adj := map[int32][]int32{}
	for local, ns := range hull.Neighbors() {
		orig := keep[local]
		for _, u := range ns {
			adj[orig] = append(adj[orig], keep[u])
		}
	}
	// Every survivor stays a hull vertex: the input polyhedron's vertices
	// are in convex position, so each is extreme in any subset. A survivor
	// swallowed by the coarse hull would break the DK refinement lemma.
	if len(hull.Verts) != len(keep) {
		return nil, fmt.Errorf("polyhedron: %d survivors but %d coarse hull vertices (input vertices not in convex position?)",
			len(keep), len(hull.Verts))
	}
	verts := make([]int32, 0, len(keep))
	for _, local := range hull.Verts {
		verts = append(verts, keep[local])
	}
	sortInt32(verts)
	return &stage{verts: verts, adj: adj}, nil
}

func sortInt32(xs []int32) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// assemble builds the leveled DAG: level 0 = artificial root, level 1 =
// coarsest hull vertices, level Levels-1 = the input hull's vertices.
func assemble(p *geom.Polyhedron, stages []*stage) (*Hierarchy, error) {
	m := len(stages) - 1 // coarsest stage index
	levels := m + 2      // +1 root, stages m..0 at levels 1..m+1
	sizes := make([]int, levels)
	start := make([]int, levels)
	sizes[0] = 1
	n := 1
	start[0] = 0
	for i := 1; i < levels; i++ {
		sizes[i] = len(stages[m-(i-1)].verts)
		start[i] = n
		n += sizes[i]
	}
	g := graph.New(n, true)
	// nodeAt[level-1][hullVertex] = DAG id (levels ≥ 1).
	nodeAt := make([]map[int32]graph.VertexID, levels)
	for i := 1; i < levels; i++ {
		nodeAt[i] = map[int32]graph.VertexID{}
		st := stages[m-(i-1)]
		for j, hv := range st.verts {
			id := graph.VertexID(start[i] + j)
			nodeAt[i][hv] = id
			v := &g.Verts[id]
			v.Level = int32(i)
			v.Data[dataX] = p.Pts[hv].X
			v.Data[dataY] = p.Pts[hv].Y
			v.Data[dataZ] = p.Pts[hv].Z
			v.Data[dataHullIdx] = int64(hv)
		}
	}
	// Root.
	root := &g.Verts[0]
	root.Level = 0
	root.Data[dataHullIdx] = -1
	topStage := stages[m]
	ext := make([]int64, 0, 3*len(topStage.verts))
	for _, hv := range topStage.verts {
		g.AddArc(0, nodeAt[1][hv])
		ext = append(ext, p.Pts[hv].X, p.Pts[hv].Y, p.Pts[hv].Z)
	}
	root.ExtIdx = g.AddExt(ext)
	// Stage transitions: level i (stage s = m-i+1) → level i+1 (stage s-1).
	// The candidate lists live on the finer stage: coarsenHull(stages[j])
	// recorded them on stages[j] while producing stages[j+1].
	for i := 1; i < levels-1; i++ {
		st := stages[m-(i-1)]
		finer := stages[m-i]
		for _, hv := range st.verts {
			id := nodeAt[i][hv]
			v := &g.Verts[id]
			cands := append([]int32{hv}, finer.cand[hv]...)
			if len(cands) > graph.MaxDegree {
				return nil, fmt.Errorf("polyhedron: vertex %d has %d candidates", hv, len(cands))
			}
			ext := make([]int64, 0, 3*len(cands))
			for _, c := range cands {
				child, ok := nodeAt[i+1][c]
				if !ok {
					return nil, fmt.Errorf("polyhedron: candidate %d missing at level %d", c, i+1)
				}
				g.AddArc(id, child)
				ext = append(ext, p.Pts[c].X, p.Pts[c].Y, p.Pts[c].Z)
			}
			v.ExtIdx = g.AddExt(ext)
		}
	}
	mu := math.Exp(math.Log(math.Max(2, float64(sizes[levels-1]))) / math.Max(1, float64(levels-1)))
	if mu <= 1.01 {
		mu = 1.01
	}
	d := &graph.HDag{Graph: g, Mu: mu, LevelSizes: sizes, LevelStart: start}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Hierarchy{Dag: d, Poly: p, Levels: levels, Stages: len(stages)}, nil
}

// Successor drives one extreme-vertex query: descend into the candidate
// with the maximum dot product against the query direction (ties broken by
// lexicographically larger coordinates — any fixed rule works, it only has
// to be deterministic).
func (h *Hierarchy) Successor() core.Successor {
	g := h.Dag.Graph
	return func(v *graph.Vertex, q *core.Query) (int, bool) {
		if v.Deg == 0 {
			q.State[StateAnswer] = v.Data[dataHullIdx]
			return 0, true
		}
		d := geom.Point3{X: q.State[StateDX], Y: q.State[StateDY], Z: q.State[StateDZ]}
		ext := g.ExtOf(v)
		best := 0
		bestPt := geom.Point3{X: ext[0], Y: ext[1], Z: ext[2]}
		bestDot := geom.Dot3(d, bestPt)
		for j := 1; j < int(v.Deg); j++ {
			pt := geom.Point3{X: ext[3*j], Y: ext[3*j+1], Z: ext[3*j+2]}
			dot := geom.Dot3(d, pt)
			if dot > bestDot || (dot == bestDot && lexGreater(pt, bestPt)) {
				best, bestPt, bestDot = j, pt, dot
			}
		}
		return best, false
	}
}

func lexGreater(a, b geom.Point3) bool {
	if a.X != b.X {
		return a.X > b.X
	}
	if a.Y != b.Y {
		return a.Y > b.Y
	}
	return a.Z > b.Z
}

// NewQueries builds extreme-vertex queries for the given directions,
// starting at the DAG root. Direction coordinates must keep dot products in
// int64: |d| ≤ 2^32 is safe with MaxCoord points.
func (h *Hierarchy) NewQueries(dirs []geom.Point3) []core.Query {
	qs := make([]core.Query, len(dirs))
	for i, d := range dirs {
		qs[i] = h.Query(d)
	}
	return qs
}

// Query builds one tangent-plane query for direction d, starting at the
// DAG root.
func (h *Hierarchy) Query(d geom.Point3) core.Query {
	var q core.Query
	q.Cur = h.Dag.Root()
	q.State[StateDX] = d.X
	q.State[StateDY] = d.Y
	q.State[StateDZ] = d.Z
	q.State[StateAnswer] = -1
	return q
}

// Answer extracts the extreme vertex index from a finished query.
func Answer(q core.Query) int32 { return int32(q.State[StateAnswer]) }

// TangentPlane returns the supporting plane of the answer vertex for
// direction d: the plane {x : d·x = d·v} touches the polyhedron at v with
// the whole hull on the non-positive side.
func (h *Hierarchy) TangentPlane(d geom.Point3, q core.Query) (normal geom.Point3, offset int64) {
	v := h.Poly.Pts[Answer(q)]
	return d, geom.Dot3(d, v)
}
