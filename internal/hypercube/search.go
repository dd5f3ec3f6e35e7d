package hypercube

import (
	"cmp"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// RAR is the hypercube random-access read with concurrent reads, identical
// in structure to the mesh version (sort the combined bank by key, copy-scan
// record values across their requests, sort the requests back). Cost:
// 1 double-sort + 1 double-scan + 1 single sort. deliver reads the value in
// the sorted bank through its pointer (nil when the key has no record) and
// must not write through it.
func RAR[K cmp.Ordered, V any](c *Cube,
	record func(i int) (key K, val V, ok bool),
	request func(i int) (key K, ok bool),
	deliver func(i int, val *V, found bool),
) {
	type item struct {
		key    K
		isReq  bool
		found  bool
		val    V
		origin int32
	}
	items := make([]item, 0, 2*c.n)
	for i := 0; i < c.n; i++ {
		if k, val, ok := record(i); ok {
			items = append(items, item{key: k, val: val, found: true, origin: int32(i)})
		}
		if k, ok := request(i); ok {
			items = append(items, item{key: k, isReq: true, origin: int32(i)})
		}
	}
	sortSlice(c, items, 2, func(a, b item) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return !a.isReq && b.isReq
	})
	scanSlice(c, items, 2,
		func(i int) bool { return i == 0 || items[i].key != items[i-1].key },
		func(a, b item) item {
			if b.isReq {
				b.val = a.val
				b.found = a.found
			}
			return b
		})
	reqs := items[:0]
	for _, it := range items {
		if it.isReq {
			reqs = append(reqs, it)
		}
	}
	sortSlice(c, reqs, 1, func(a, b item) bool { return a.origin < b.origin })
	for i := range reqs {
		it := &reqs[i]
		var val *V
		if it.found {
			val = &it.val
		}
		deliver(int(it.origin), val, it.found)
	}
	c.Charge(1)
}

// Instance is a multisearch problem loaded onto the hypercube: the same
// Query/Successor machinery as the mesh (internal/core), different
// substrate.
type Instance struct {
	C       *Cube
	G       *graph.Graph
	F       core.Successor
	Nodes   *Reg[graph.Vertex]
	Queries *Reg[core.Query]
	NumQ    int
}

var emptyVertex = func() graph.Vertex {
	var v graph.Vertex
	v.ID = graph.Nil
	v.Level = -1
	v.Part = graph.NoPart
	v.Part2 = graph.NoPart
	v.ExtIdx = -1
	return v
}()

var emptyQuery = core.Query{ID: core.NoQuery, Cur: graph.Nil, CurPart: graph.NoPart, CurPart2: graph.NoPart, CurLevel: -1}

// NewInstance loads g and the queries: vertex i at processor i, query j at
// processor j.
func NewInstance(c *Cube, g *graph.Graph, queries []core.Query, f core.Successor) *Instance {
	if g.N() > c.N() {
		panic(fmt.Sprintf("hypercube: graph with %d vertices exceeds cube size %d", g.N(), c.N()))
	}
	if len(queries) > c.N() {
		panic(fmt.Sprintf("hypercube: %d queries exceed cube size %d", len(queries), c.N()))
	}
	in := &Instance{
		C: c, G: g, F: f,
		Nodes:   NewReg[graph.Vertex](c),
		Queries: NewReg[core.Query](c),
		NumQ:    len(queries),
	}
	Fill(in.Nodes, emptyVertex)
	Fill(in.Queries, emptyQuery)
	Load(in.Nodes, g.Verts)
	qs := make([]core.Query, len(queries))
	for i, q := range queries {
		q.ID = int32(i)
		q.Done = false
		q.Mark = false
		q.Steps = 0
		q.CurPart = graph.NoPart
		q.CurPart2 = graph.NoPart
		q.CurLevel = -1
		qs[i] = q
	}
	Load(in.Queries, qs)
	return in
}

// GlobalStep advances every unfinished query one search step with one
// full-cube RAR — the [DR90] synchronous multistep on its home topology.
func (in *Instance) GlobalStep() int {
	advanced := 0
	RAR(in.C,
		func(i int) (graph.VertexID, graph.Vertex, bool) {
			nd := At(in.Nodes, i)
			return nd.ID, nd, nd.ID != graph.Nil
		},
		func(i int) (graph.VertexID, bool) {
			q := At(in.Queries, i)
			return q.Cur, q.ID != core.NoQuery && !q.Done
		},
		func(i int, nd *graph.Vertex, found bool) {
			if !found {
				panic(fmt.Sprintf("hypercube: query at %d visits unknown vertex", i))
			}
			q := At(in.Queries, i)
			core.Visit(in.F, nd, &q)
			Set(in.Queries, i, q)
			advanced++
		})
	return advanced
}

// Unfinished counts the queries still searching.
func (in *Instance) Unfinished() int {
	return Count(in.Queries, func(q core.Query) bool {
		return q.ID != core.NoQuery && !q.Done
	})
}

// SynchronousMultisearch runs the [DR90] strategy: GlobalStep until every
// search path ends. Returns the number of multisteps.
func SynchronousMultisearch(in *Instance, maxSteps int) int {
	steps := 0
	for in.Unfinished() > 0 {
		if maxSteps > 0 && steps >= maxSteps {
			panic(fmt.Sprintf("hypercube: synchronous multisearch exceeded %d multisteps", maxSteps))
		}
		in.GlobalStep()
		steps++
	}
	return steps
}

// ResultQueries snapshots final query records in ID order.
func (in *Instance) ResultQueries() []core.Query {
	all := Snapshot(in.Queries)
	out := make([]core.Query, in.NumQ)
	for _, q := range all {
		if q.ID != core.NoQuery {
			out[q.ID] = q
		}
	}
	return out
}
