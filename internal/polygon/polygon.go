// Package polygon implements the planar Dobkin–Kirkpatrick hierarchy: a
// convex polygon coarsened by repeatedly removing every other vertex, turned
// into a hierarchical search DAG (μ = 2 exactly) for batched tangent-point
// determination from external points — the two-dimensional analogue of the
// Theorem 8 tangent-plane application, included because its refinement
// structure is the cleanest illustration of the paper's hierarchical-DAG
// class (Figure 1 with μ = 2).
//
// Refinement lemma used by the successor: seen from an external point q,
// the polar angle of the vertices (measured against any fixed direction
// within the < π wedge the polygon subtends from q) is unimodal along the
// boundary. Refining by re-inserting alternate vertices, the angular
// extremum of P_{i+1} is therefore either the extremum v of P_i or one of
// the (at most two) re-inserted vertices adjacent to v — so each DAG node
// needs only three candidate children.
package polygon

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
)

// topMax is the size of the coarsest polygon (all children of the root).
const topMax = 4

// Hierarchy is the 2-D DK search DAG of one convex polygon.
type Hierarchy struct {
	Dag    *graph.HDag
	Pts    []geom.Point2 // polygon vertices, CCW
	Levels int
}

// Payload layout: vertex coordinates and polygon index.
const (
	dataX = iota
	dataY
	dataIdx // index into Pts; -1 at the root
)

// Query state layout.
const (
	StateQX = 0
	StateQY = 1
	stateBX = 2 // base direction (q → polygon interior), fixed per query
	stateBY = 3
	// StateSide selects the tangent: +1 = CCW-most, -1 = CW-most vertex.
	StateSide = 4
	// StateAnswer receives the tangent vertex index.
	StateAnswer = 5
)

// Build constructs the hierarchy of the convex polygon given by its CCW
// vertex cycle (≥ 3 vertices, strictly convex).
func Build(pts []geom.Point2) (*Hierarchy, error) {
	n := len(pts)
	if n < 3 {
		return nil, fmt.Errorf("polygon: need ≥ 3 vertices, got %d", n)
	}
	for i := 0; i < n; i++ {
		a, b, c := pts[i], pts[(i+1)%n], pts[(i+2)%n]
		if geom.Orient2D(a, b, c) <= 0 {
			return nil, fmt.Errorf("polygon: not strictly convex CCW at vertex %d", (i+1)%n)
		}
	}
	// Stages: stage 0 = all indices; stage k+1 = every other index of
	// stage k (keeping even positions), down to ≤ topMax.
	var stages [][]int32
	cur := make([]int32, n)
	for i := range cur {
		cur[i] = int32(i)
	}
	stages = append(stages, cur)
	for len(cur) > topMax {
		next := make([]int32, 0, (len(cur)+1)/2)
		for i := 0; i < len(cur); i += 2 {
			next = append(next, cur[i])
		}
		stages = append(stages, next)
		cur = next
	}

	m := len(stages) - 1 // coarsest
	levels := m + 2      // + root
	sizes := make([]int, levels)
	start := make([]int, levels)
	sizes[0] = 1
	total := 1
	for i := 1; i < levels; i++ {
		sizes[i] = len(stages[m-(i-1)])
		start[i] = total
		total += sizes[i]
	}
	g := graph.New(total, true)
	nodeAt := make([]map[int32]graph.VertexID, levels)
	for i := 1; i < levels; i++ {
		nodeAt[i] = map[int32]graph.VertexID{}
		for j, pv := range stages[m-(i-1)] {
			id := graph.VertexID(start[i] + j)
			nodeAt[i][pv] = id
			v := &g.Verts[id]
			v.Level = int32(i)
			v.Data[dataX] = pts[pv].X
			v.Data[dataY] = pts[pv].Y
			v.Data[dataIdx] = int64(pv)
		}
	}
	root := &g.Verts[0]
	root.Level = 0
	root.Data[dataIdx] = -1
	for _, pv := range stages[m] {
		g.AddArc(0, nodeAt[1][pv])
	}
	// Stage s (level i) → stage s-1 (level i+1): each survivor links to its
	// own copy plus the two re-inserted boundary neighbours.
	for i := 1; i < levels-1; i++ {
		st := stages[m-(i-1)]
		finer := stages[m-i]
		pos := map[int32]int{}
		for j, pv := range finer {
			pos[pv] = j
		}
		for _, pv := range st {
			id := nodeAt[i][pv]
			j := pos[pv]
			prev := finer[(j-1+len(finer))%len(finer)]
			next := finer[(j+1)%len(finer)]
			g.AddArc(id, nodeAt[i+1][pv])
			for _, w := range []int32{prev, next} {
				if _, survives := nodeAt[i][w]; !survives && w != pv {
					g.AddArc(id, nodeAt[i+1][w])
				}
			}
		}
	}
	mu := 2.0
	d := &graph.HDag{Graph: g, Mu: mu, LevelSizes: sizes, LevelStart: start}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Hierarchy{Dag: d, Pts: pts, Levels: levels}, nil
}

// angleLess reports whether direction u is angularly before w (CW of it),
// valid while both lie within one open half-plane (guaranteed: the polygon
// subtends < π from an external query point).
func angleLess(u, w geom.Point2) bool {
	cross := u.X*w.Y - u.Y*w.X
	if cross != 0 {
		return cross > 0
	}
	// Collinear: nearer point first (any fixed rule; must match BruteTangent).
	return u.X*u.X+u.Y*u.Y < w.X*w.X+w.Y*w.Y
}

// Successor drives one tangent query: among the node's candidate children
// pick the angular extremum in the query's direction of interest.
func (h *Hierarchy) Successor() core.Successor {
	g := h.Dag.Graph
	return func(v *graph.Vertex, q *core.Query) (int, bool) {
		if v.Deg == 0 {
			q.State[StateAnswer] = v.Data[dataIdx]
			return 0, true
		}
		qp := geom.Point2{X: q.State[StateQX], Y: q.State[StateQY]}
		ccw := q.State[StateSide] > 0
		best := 0
		bestDir := dirTo(g, v, 0, qp)
		for j := 1; j < int(v.Deg); j++ {
			d := dirTo(g, v, j, qp)
			better := angleLess(bestDir, d)
			if !ccw {
				better = angleLess(d, bestDir)
			}
			if better {
				best, bestDir = j, d
			}
		}
		return best, false
	}
}

func dirTo(g *graph.Graph, v *graph.Vertex, slot int, q geom.Point2) geom.Point2 {
	c := &g.Verts[v.Adj[slot]]
	return geom.Point2{X: c.Data[dataX] - q.X, Y: c.Data[dataY] - q.Y}
}

// NewQueries builds tangent queries: for each external point, side +1
// yields the CCW-most (left) tangent vertex, -1 the CW-most (right) one.
func (h *Hierarchy) NewQueries(points []geom.Point2, side int64) []core.Query {
	qs := make([]core.Query, len(points))
	for i, p := range points {
		qs[i].Cur = h.Dag.Root()
		qs[i].State[StateQX] = p.X
		qs[i].State[StateQY] = p.Y
		qs[i].State[StateSide] = side
		qs[i].State[StateAnswer] = -1
	}
	return qs
}

// Answer extracts the tangent vertex index from a finished query.
func Answer(q core.Query) int32 { return int32(q.State[StateAnswer]) }

// BruteTangent returns the angular extremum vertex seen from q (reference).
func (h *Hierarchy) BruteTangent(q geom.Point2, ccw bool) int32 {
	best := int32(0)
	bestDir := geom.Point2{X: h.Pts[0].X - q.X, Y: h.Pts[0].Y - q.Y}
	for i := 1; i < len(h.Pts); i++ {
		d := geom.Point2{X: h.Pts[i].X - q.X, Y: h.Pts[i].Y - q.Y}
		better := angleLess(bestDir, d)
		if !ccw {
			better = angleLess(d, bestDir)
		}
		if better {
			best, bestDir = int32(i), d
		}
	}
	return best
}

// IsTangent verifies exactly that vertex t is a tangent point from q: the
// whole polygon lies (weakly) on one side of the line q–t.
func (h *Hierarchy) IsTangent(q geom.Point2, t int32) bool {
	pos, neg := false, false
	for i := range h.Pts {
		switch geom.Orient2D(q, h.Pts[t], h.Pts[i]) {
		case 1:
			pos = true
		case -1:
			neg = true
		}
	}
	return !(pos && neg)
}
