package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/workload"
)

// randomAlphaGraph builds a random directed graph that is α-partitionable
// by construction: kH head parts and kT tail parts of ≤ maxPart vertices
// each, random intra-part arcs, and cross arcs only from H-parts to
// T-parts.
func randomAlphaGraph(kH, kT, maxPart int, rng *rand.Rand) (*graph.Graph, int) {
	type part struct {
		start, size int
		head        bool
	}
	var parts []part
	n := 0
	for i := 0; i < kH+kT; i++ {
		size := 1 + rng.Intn(maxPart)
		parts = append(parts, part{start: n, size: size, head: i < kH})
		n += size
	}
	g := graph.New(n, true)
	for pi, p := range parts {
		for v := p.start; v < p.start+p.size; v++ {
			g.Verts[v].Part = int32(pi)
			// Intra-part arcs (allow cycles: long search paths live here).
			for e := 0; e < 1+rng.Intn(3); e++ {
				g.AddArc(graph.VertexID(v), graph.VertexID(p.start+rng.Intn(p.size)))
			}
			// Cross arcs H→T only.
			if p.head && kT > 0 && rng.Intn(3) == 0 {
				t := parts[kH+rng.Intn(kT)]
				g.AddArc(graph.VertexID(v), graph.VertexID(t.start+rng.Intn(t.size)))
			}
		}
	}
	g.RefreshAdjParts()
	return g, maxPart
}

// boundedWalk walks pseudorandomly for State[StateKey] steps.
func boundedWalk(v *graph.Vertex, q *core.Query) (int, bool) {
	q.State[1] = q.State[1]*1000003 + int64(v.ID) + 1
	if int64(q.Steps) >= q.State[0] || v.Deg == 0 {
		return 0, true
	}
	h := uint64(q.State[1]) * 0x9E3779B97F4A7C15
	return int(h % uint64(v.Deg)), false
}

func TestQuickMultisearchAlphaOnRandomGraphs(t *testing.T) {
	side := 16
	f := func(seed int64, rawKH, rawKT, rawR uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		kH := 1 + int(rawKH)%6
		kT := 1 + int(rawKT)%6
		g, maxPart := randomAlphaGraph(kH, kT, 16, rng)
		if g.N() > side*side {
			return true
		}
		if err := graph.ValidateAlphaPartitionable(g); err != nil {
			t.Fatalf("generator broke the H/T property: %v", err)
		}
		r := 1 + int(rawR)%40
		qs := make([]core.Query, side*side/2)
		for i := range qs {
			qs[i].Cur = graph.VertexID(rng.Intn(g.N()))
			qs[i].State[0] = int64(r)
		}
		want := core.Oracle(g, qs, boundedWalk, 0)
		m := mesh.New(side)
		in := core.NewInstance(m, g, qs, boundedWalk)
		core.MultisearchAlpha(m.Root(), in, maxPart, 0)
		return core.SameOutcome(want, in.ResultQueries()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomAlphaBetaTree: random cut depths on an undirected tree.
func TestQuickMultisearchAlphaBetaRandomCuts(t *testing.T) {
	tr := graph.NewBalancedTree(2, 7, false)
	f := func(seed int64, rawC1, rawC2, rawBounce uint8) bool {
		c1 := 1 + int(rawC1)%(tr.Height-1)
		c2 := 1 + int(rawC2)%(tr.Height-1)
		if c1 == c2 {
			c2 = c1%(tr.Height-1) + 1
		}
		topVsRest := func(p int32) int {
			if p == 0 {
				return 0
			}
			return 1
		}
		s1 := graph.InstallTreeSplitter(tr, c1, graph.Primary)
		if s1.K*s1.MaxPart > 2*tr.N() {
			s1 = graph.NormalizeParts(tr.Graph, s1, s1.MaxPart, topVsRest)
		}
		s2 := graph.InstallTreeSplitter(tr, c2, graph.Secondary)
		if s2.K*s2.MaxPart > 2*tr.N() {
			s2 = graph.NormalizeParts(tr.Graph, s2, s2.MaxPart, topVsRest)
		}
		bounces := 1 + int(rawBounce)%4
		rng := rand.New(rand.NewSource(seed))
		qs := workload.BounceQueries(100, bounces, int64(tr.SubtreeSize(0)), tr.Root(), rng)
		want := core.Oracle(tr.Graph, qs, workload.BounceSuccessor(2), 0)
		m := mesh.New(16)
		in := core.NewInstance(m, tr.Graph, qs, workload.BounceSuccessor(2))
		core.MultisearchAlphaBeta(m.Root(), in, s1.MaxPart, s2.MaxPart, 0)
		return core.SameOutcome(want, in.ResultQueries()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Fuzz the hierarchical-DAG path with random DAG shapes, μ, heights and
// congestion levels.
func TestQuickMultisearchHDagRandomShapes(t *testing.T) {
	f := func(seed int64, rawMu, rawH, rawDup uint8) bool {
		mu := 2 + int(rawMu)%2
		h := 4 + int(rawH)%6
		if mu == 3 {
			h = 4 + int(rawH)%3 // keep 3^h meshes small
		}
		rng := rand.New(rand.NewSource(seed))
		d := graph.RandomHDag(mu, h, rng)
		side := 4
		for side*side < d.N() {
			side *= 2
		}
		plan, err := core.PlanHDag(d, side)
		if err != nil {
			t.Fatalf("plan: %v", err)
		}
		dup := 1 << (int(rawDup) % 8)
		qs := workload.KeySearchQueries(side*side/2, 1<<20, d.Root(), dup, rng)
		want := core.Oracle(d.Graph, qs, workload.RandomWalkDownSuccessor, 0)
		m := mesh.New(side)
		in := core.NewInstance(m, d.Graph, qs, workload.RandomWalkDownSuccessor)
		core.MultisearchHDag(m.Root(), in, plan)
		return core.SameOutcome(want, in.ResultQueries()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConstrainedMultisearchSecondarySlot(t *testing.T) {
	// Drive the Secondary splitting path directly.
	tr := graph.NewBalancedTree(2, 6, false)
	s2 := graph.InstallTreeSplitter(tr, 3, graph.Secondary)
	rng := rand.New(rand.NewSource(20))
	qs := workload.BounceQueries(60, 1, int64(tr.SubtreeSize(0)), tr.Root(), rng)
	m := mesh.New(16)
	in := core.NewInstance(m, tr.Graph, qs, workload.BounceSuccessor(2))
	in.Prime(m.Root())
	in.GlobalStep(m.Root())
	st := core.ConstrainedMultisearch(m.Root(), in, graph.Secondary, s2.MaxPart, core.Log2N(m.Root()))
	if st.Marked != 60 || st.Advanced == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestConstrainedMultisearchQueriesFinishInside(t *testing.T) {
	// Walks short enough to terminate inside their δ-submesh.
	g := workload.CycleGraph(8, 8)
	m := mesh.New(8)
	rng := rand.New(rand.NewSource(21))
	qs := workload.WalkQueries(40, 3, g.N(), rng)
	in := core.NewInstance(m, g, qs, workload.WalkSuccessor)
	in.Prime(m.Root())
	in.GlobalStep(m.Root())
	core.ConstrainedMultisearch(m.Root(), in, graph.Primary, 8, core.Log2N(m.Root()))
	for i, q := range in.ResultQueries() {
		if !q.Done || q.Steps != 3 {
			t.Fatalf("query %d: %+v", i, q)
		}
	}
}

func TestConstrainedMultisearchPanicsOnOversizedPart(t *testing.T) {
	g := workload.CycleGraph(1, 64) // one part of 64 vertices
	m := mesh.New(8)                // 64 processors: slot side would exceed mesh
	rng := rand.New(rand.NewSource(22))
	qs := workload.WalkQueries(10, 5, g.N(), rng)
	in := core.NewInstance(m, g, qs, workload.WalkSuccessor)
	in.Prime(m.Root())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: part larger than any δ-submesh")
		}
	}()
	core.ConstrainedMultisearch(m.Root(), in, graph.Primary, 65, core.Log2N(m.Root()))
}

func TestNewInstancePanicsOnOversizedInputs(t *testing.T) {
	m := mesh.New(4)
	tr := graph.NewBalancedTree(2, 6, true) // 127 > 16
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("graph overflow not detected")
			}
		}()
		core.NewInstance(m, tr.Graph, nil, workload.KeySearchSuccessor)
	}()
	small := graph.NewBalancedTree(2, 2, true)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("query overflow not detected")
			}
		}()
		core.NewInstance(m, small.Graph, make([]core.Query, 17), workload.KeySearchSuccessor)
	}()
}

func TestTheoreticalCostModelEndToEnd(t *testing.T) {
	tr, s := buildAlphaTree(16, 7)
	rng := rand.New(rand.NewSource(23))
	qs := workload.KeySearchQueries(100, 128, tr.Root(), 1, rng)
	want := core.Oracle(tr.Graph, qs, workload.KeySearchSuccessor, 0)

	mc := mesh.New(16)
	ic := core.NewInstance(mc, tr.Graph, qs, workload.KeySearchSuccessor)
	core.MultisearchAlpha(mc.Root(), ic, s.MaxPart, 0)

	mt := mesh.New(16, mesh.WithCostModel(mesh.CostTheoretical))
	it := core.NewInstance(mt, tr.Graph, qs, workload.KeySearchSuccessor)
	core.MultisearchAlpha(mt.Root(), it, s.MaxPart, 0)

	if err := core.SameOutcome(want, it.ResultQueries()); err != nil {
		t.Fatal(err)
	}
	if mt.Steps() >= mc.Steps() {
		t.Fatalf("theoretical model (%d) should be cheaper than counted (%d)", mt.Steps(), mc.Steps())
	}
}
