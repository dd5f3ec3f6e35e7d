package polyhedron

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
)

// LineStab answers vertical-line / polyhedron intersection queries
// (Theorem 8.1's line–polyhedron family, specialized to a fixed line
// direction): the line {(x,y)}×R intersects the convex polyhedron P iff
// (x,y) lies in the xy-shadow of P, the 2-D convex hull of the projected
// hull vertices. The shadow is fan-decomposed from its first hull vertex
// and the wedges are arranged in a balanced directed binary tree routed by
// Orient2D against the fan rays — an α-partitionable search served by
// MultisearchAlpha (Theorem 5), exactly like the dictionary tree.
type LineStab struct {
	G      *graph.Graph
	Root   graph.VertexID
	Hull   []geom.Point2 // shadow hull, CCW
	Height int
	Depth  []int32
}

// LineStab payload layout: internal nodes carry the fan apex and the
// routing ray endpoint; leaves carry their whole wedge triangle plus the
// sector index.
const (
	lsAX     = 0 // apex h0 (internal and leaf)
	lsAY     = 1
	lsBX     = 2 // internal: routing vertex h[mid]; leaf: h[i]
	lsBY     = 3
	lsCX     = 4 // leaf: h[i+1]
	lsCY     = 5
	lsSector = 6 // leaf: sector index i
	lsLeaf   = 7 // 1 if leaf
)

// LineStab query state layout.
const (
	StabStateX = 0
	StabStateY = 1
	// StabStateHit is 1 if the vertical line intersects the polyhedron.
	StabStateHit = 2
	// StabStateSector receives the wedge index the descent ended in.
	StabStateSector = 3
	stabStateDigest = 4
)

// NewLineStab fan-decomposes the xy-shadow of p and builds the wedge tree.
// IDs are assigned level-major from the root so the depth-cut splitter
// applies unchanged.
func NewLineStab(p *geom.Polyhedron) (*LineStab, error) {
	pts2 := make([]geom.Point2, len(p.Verts))
	for i, v := range p.Verts {
		pts2[i] = geom.Point2{X: p.Pts[v].X, Y: p.Pts[v].Y}
	}
	hullIdx := geom.ConvexHull2D(pts2)
	if len(hullIdx) < 3 {
		return nil, fmt.Errorf("polyhedron: xy-shadow degenerates to %d points", len(hullIdx))
	}
	hull := make([]geom.Point2, len(hullIdx))
	for i, id := range hullIdx {
		hull[i] = pts2[id]
	}
	m := len(hull)
	// Sector i = triangle (h0, h[i], h[i+1]) for i ∈ [1, m-1).
	// BFS over sector ranges: popping in ID order with children appended in
	// order yields level-contiguous IDs (root = 0).
	type span struct{ lo, hi int }
	nodes := []span{{1, m - 1}}
	kids := [][2]int{{-1, -1}}
	depth := []int32{0}
	height := 0
	for i := 0; i < len(nodes); i++ {
		s := nodes[i]
		if s.hi-s.lo <= 1 {
			continue
		}
		mid := (s.lo + s.hi) / 2
		l, r := len(nodes), len(nodes)+1
		nodes = append(nodes, span{s.lo, mid}, span{mid, s.hi})
		kids[i] = [2]int{l, r}
		kids = append(kids, [2]int{-1, -1}, [2]int{-1, -1})
		d := depth[i] + 1
		depth = append(depth, d, d)
		if int(d) > height {
			height = int(d)
		}
	}

	g := graph.New(len(nodes), true)
	ls := &LineStab{G: g, Root: 0, Hull: hull, Height: height, Depth: depth}
	for i, s := range nodes {
		v := &g.Verts[i]
		v.Level = depth[i]
		v.Data[lsAX], v.Data[lsAY] = hull[0].X, hull[0].Y
		if kids[i][0] < 0 { // leaf wedge
			v.Data[lsBX], v.Data[lsBY] = hull[s.lo].X, hull[s.lo].Y
			v.Data[lsCX], v.Data[lsCY] = hull[s.lo+1].X, hull[s.lo+1].Y
			v.Data[lsSector] = int64(s.lo)
			v.Data[lsLeaf] = 1
			continue
		}
		mid := (s.lo + s.hi) / 2
		v.Data[lsBX], v.Data[lsBY] = hull[mid].X, hull[mid].Y
		g.AddArc(graph.VertexID(i), graph.VertexID(kids[i][0]))
		g.AddArc(graph.VertexID(i), graph.VertexID(kids[i][1]))
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return ls, nil
}

// InstallSplitter installs a normalized α-splitting (depth cut at half
// height) and returns the part-size bound for MultisearchAlpha.
func (ls *LineStab) InstallSplitter() int {
	cut := (ls.Height + 1) / 2
	if cut < 1 {
		cut = 1
	}
	if cut > ls.Height {
		cut = ls.Height
	}
	s := graph.InstallDepthSplitter(ls.G, ls.Root, ls.Depth, cut, graph.Primary)
	if s.K*s.MaxPart > 2*ls.G.N() {
		s = graph.NormalizeParts(ls.G, s, s.MaxPart, func(p int32) int {
			if p == 0 {
				return 0
			}
			return 1
		})
	}
	return s.MaxPart
}

// StabSuccessor drives one stabbing query step: internal nodes route by
// orientation against the fan ray apex→h[mid] (left of the ray means a
// higher wedge); leaf wedges decide with the inclusive triangle test, which
// agrees with geom.PointInConvexCCW on the shadow for every point — wedge
// triangles tile the hull and points behind the apex fail the leaf test.
func StabSuccessor(v *graph.Vertex, q *core.Query) (int, bool) {
	q.State[stabStateDigest] = q.State[stabStateDigest]*1000003 + int64(v.ID) + 1
	p := geom.Point2{X: q.State[StabStateX], Y: q.State[StabStateY]}
	a := geom.Point2{X: v.Data[lsAX], Y: v.Data[lsAY]}
	b := geom.Point2{X: v.Data[lsBX], Y: v.Data[lsBY]}
	if v.Data[lsLeaf] == 1 {
		c := geom.Point2{X: v.Data[lsCX], Y: v.Data[lsCY]}
		if geom.InTriangle(p, a, b, c) {
			q.State[StabStateHit] = 1
		}
		q.State[StabStateSector] = v.Data[lsSector]
		return 0, true
	}
	if geom.Orient2D(a, b, p) > 0 {
		return 1, false
	}
	return 0, false
}

// NewStabQueries builds stabbing queries for the vertical lines through the
// given xy-points, starting at the tree root.
func (ls *LineStab) NewStabQueries(points []geom.Point2) []core.Query {
	qs := make([]core.Query, len(points))
	for i, p := range points {
		qs[i] = ls.StabQuery(p)
	}
	return qs
}

// StabQuery builds one line-stabbing query for the vertical line through
// p, starting at the root.
func (ls *LineStab) StabQuery(p geom.Point2) core.Query {
	var q core.Query
	q.Cur = ls.Root
	q.State[StabStateX] = p.X
	q.State[StabStateY] = p.Y
	q.State[StabStateSector] = -1
	return q
}

// Stabbed reports whether a finished query's line intersects the polyhedron.
func Stabbed(q core.Query) bool { return q.State[StabStateHit] == 1 }

// StabSector extracts the wedge index the descent ended in.
func StabSector(q core.Query) int64 { return q.State[StabStateSector] }

// BruteStab is the independent sequential oracle: point-in-convex-polygon
// against the shadow hull, no tree involved.
func (ls *LineStab) BruteStab(p geom.Point2) bool {
	return geom.PointInConvexCCW(ls.Hull, p)
}
