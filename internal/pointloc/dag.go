package pointloc

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
)

// assemble turns the coarsening stages into the leveled search DAG:
// level 0 = the single super-triangle (last stage), deepest level = the
// input triangulation (stage 0).
func assemble(tr *geom.Triangulation, stages [][]stageTri) (*Hierarchy, error) {
	m := len(stages) - 1
	levels := m + 1
	sizes := make([]int, levels)
	start := make([]int, levels)
	n := 0
	for i := 0; i < levels; i++ {
		sizes[i] = len(stages[m-i])
		start[i] = n
		n += sizes[i]
	}
	g := graph.New(n, true)
	pts := tr.Points
	for lvl := 0; lvl < levels; lvl++ {
		stage := stages[m-lvl]
		for j, st := range stage {
			id := graph.VertexID(start[lvl] + j)
			v := &g.Verts[id]
			v.Level = int32(lvl)
			for c := 0; c < 3; c++ {
				v.Data[dataAX+2*c] = pts[st.t.v[c]].X
				v.Data[dataAY+2*c] = pts[st.t.v[c]].Y
			}
			if lvl == levels-1 {
				v.Data[dataAnswer] = int64(j) // stage 0 order == tr.Tris order
			} else {
				v.Data[dataAnswer] = -1
				ext := make([]int64, 0, 6*len(st.children))
				for _, ci := range st.children {
					child := stages[m-lvl-1][ci]
					g.AddArc(id, graph.VertexID(start[lvl+1]+ci))
					for c := 0; c < 3; c++ {
						ext = append(ext, pts[child.t.v[c]].X, pts[child.t.v[c]].Y)
					}
				}
				v.ExtIdx = g.AddExt(ext)
			}
		}
	}
	mu := math.Exp(math.Log(float64(sizes[levels-1])) / math.Max(1, float64(m)))
	if mu <= 1.01 {
		mu = 1.01
	}
	d := &graph.HDag{Graph: g, Mu: mu, LevelSizes: sizes, LevelStart: start}
	if err := d.Graph.Validate(); err != nil {
		return nil, err
	}
	return &Hierarchy{Dag: d, Tri: tr, Levels: levels}, nil
}

// Successor returns the point-location search function: at each DAG vertex
// the query descends into the child triangle containing its point, using
// the children's corner coordinates carried in the extended payload.
func (h *Hierarchy) Successor() core.Successor {
	g := h.Dag.Graph
	return func(v *graph.Vertex, q *core.Query) (int, bool) {
		q.State[stateDigest] = q.State[stateDigest]*1000003 + int64(v.ID) + 1
		if v.Deg == 0 {
			q.State[StateAnswer] = v.Data[dataAnswer]
			return 0, true
		}
		p := geom.Point2{X: q.State[StateX], Y: q.State[StateY]}
		ext := g.ExtOf(v)
		for j := 0; j < int(v.Deg); j++ {
			a := geom.Point2{X: ext[j*6+0], Y: ext[j*6+1]}
			b := geom.Point2{X: ext[j*6+2], Y: ext[j*6+3]}
			c := geom.Point2{X: ext[j*6+4], Y: ext[j*6+5]}
			if geom.InTriangle(p, a, b, c) {
				return j, false
			}
		}
		panic(fmt.Sprintf("pointloc: point %v not covered by the children of DAG vertex %d", p, v.ID))
	}
}

// NewQueries builds point-location queries starting at the DAG root. Every
// query point must lie inside the super-triangle (anywhere within the
// original point set's bounding box is safe).
func (h *Hierarchy) NewQueries(points []geom.Point2) []core.Query {
	qs := make([]core.Query, len(points))
	for i, p := range points {
		qs[i] = h.Query(p)
	}
	return qs
}

// Query builds one point-location query for p, starting at the DAG root.
func (h *Hierarchy) Query(p geom.Point2) core.Query {
	var q core.Query
	q.Cur = h.Dag.Root()
	q.State[StateX] = p.X
	q.State[StateY] = p.Y
	q.State[StateAnswer] = -1
	return q
}

// Answer extracts the located triangle index from a finished query.
func Answer(q core.Query) int { return int(q.State[StateAnswer]) }

// LocateBrute scans all triangles for one containing p (reference).
func (h *Hierarchy) LocateBrute(p geom.Point2) int {
	for i, t := range h.Tri.Tris {
		if geom.InTriangle(p, h.Tri.Points[t[0]], h.Tri.Points[t[1]], h.Tri.Points[t[2]]) {
			return i
		}
	}
	return -1
}

// Contains reports whether triangle idx of the base triangulation contains
// p (used to verify answers without requiring a unique triangle on edges).
func (h *Hierarchy) Contains(idx int, p geom.Point2) bool {
	if idx < 0 || idx >= len(h.Tri.Tris) {
		return false
	}
	t := h.Tri.Tris[idx]
	return geom.InTriangle(p, h.Tri.Points[t[0]], h.Tri.Points[t[1]], h.Tri.Points[t[2]])
}
