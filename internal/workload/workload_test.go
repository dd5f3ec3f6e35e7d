package workload_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/workload"
)

func TestKeySearchQueriesDuplication(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	qs := workload.KeySearchQueries(12, 100, 0, 4, rng)
	for i := 0; i < 12; i += 4 {
		for j := 1; j < 4; j++ {
			if qs[i].State[workload.StateKey] != qs[i+j].State[workload.StateKey] {
				t.Fatalf("group %d keys differ", i/4)
			}
		}
	}
}

func TestKeySearchSuccessorReachesCorrectLeaf(t *testing.T) {
	d := graph.CompleteTreeHDag(2, 8)
	qs := workload.KeySearchQueries(64, 256, d.Root(), 1, rand.New(rand.NewSource(2)))
	out := core.Oracle(d.Graph, qs, workload.KeySearchSuccessor, 0)
	for i, q := range out {
		// The query visits h+1 vertices and must end at the leaf whose span
		// contains the key.
		if q.Steps != 9 || !q.Done {
			t.Fatalf("query %d steps=%d done=%v", i, q.Steps, q.Done)
		}
	}
}

func TestRandomWalkDeterministic(t *testing.T) {
	d := graph.CompleteTreeHDag(2, 6)
	qs := workload.KeySearchQueries(10, 64, d.Root(), 1, rand.New(rand.NewSource(3)))
	a := core.Oracle(d.Graph, qs, workload.RandomWalkDownSuccessor, 0)
	b := core.Oracle(d.Graph, qs, workload.RandomWalkDownSuccessor, 0)
	if err := core.SameOutcome(a, b); err != nil {
		t.Fatal(err)
	}
}

func TestCycleGraphStructure(t *testing.T) {
	g := workload.CycleGraph(4, 8)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 32 {
		t.Fatalf("n=%d", g.N())
	}
	// Every vertex has out-degree 1 within its own cycle.
	for i := range g.Verts {
		v := &g.Verts[i]
		if v.Deg != 1 || v.AdjPart[0] != v.Part {
			t.Fatalf("vertex %d: deg=%d part=%d adjpart=%d", i, v.Deg, v.Part, v.AdjPart[0])
		}
	}
}

func TestWalkOnCyclesMatchesOracleOnMesh(t *testing.T) {
	g := workload.CycleGraph(16, 16) // n = 256
	m := mesh.New(16)
	rng := rand.New(rand.NewSource(4))
	r := 40 // multiple wraps around each cycle
	qs := workload.WalkQueries(200, r, g.N(), rng)
	want := core.Oracle(g, qs, workload.WalkSuccessor, 0)
	for _, q := range want {
		if int(q.Steps) != r {
			t.Fatalf("oracle walk length %d want %d", q.Steps, r)
		}
	}
	in := core.NewInstance(m, g, qs, workload.WalkSuccessor)
	st := core.MultisearchAlpha(m.Root(), in, 16, 1000)
	if err := core.SameOutcome(want, in.ResultQueries()); err != nil {
		t.Fatal(err)
	}
	// Theorem 5: ≈ r / (2·log₂ n) log-phases.
	if st.LogPhases > r/4+2 {
		t.Fatalf("%d log-phases for r=%d", st.LogPhases, r)
	}
}

func TestBounceSuccessorPathLength(t *testing.T) {
	h := 6
	tr := graph.NewBalancedTree(2, h, false)
	for _, bounces := range []int{1, 3, 7} {
		qs := workload.BounceQueries(20, bounces, int64(tr.SubtreeSize(0)), tr.Root(), rand.New(rand.NewSource(5)))
		out := core.Oracle(tr.Graph, qs, workload.BounceSuccessor(2), 0)
		want := int32(bounces*2*h + 1)
		for i, q := range out {
			if q.Steps != want || !q.Done {
				t.Fatalf("bounces=%d query %d: steps=%d want %d", bounces, i, q.Steps, want)
			}
		}
	}
}

func TestBounceOnMeshMatchesOracle(t *testing.T) {
	h := 7
	tr := graph.NewBalancedTree(2, h, false)
	s1 := graph.InstallTreeSplitter(tr, 3, graph.Primary)
	s2 := graph.InstallTreeSplitter(tr, 6, graph.Secondary)
	m := mesh.New(16)
	qs := workload.BounceQueries(100, 4, int64(tr.SubtreeSize(0)), tr.Root(), rand.New(rand.NewSource(6)))
	want := core.Oracle(tr.Graph, qs, workload.BounceSuccessor(2), 0)
	in := core.NewInstance(m, tr.Graph, qs, workload.BounceSuccessor(2))
	core.MultisearchAlphaBeta(m.Root(), in, s1.MaxPart, s2.MaxPart, 2000)
	if err := core.SameOutcome(want, in.ResultQueries()); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedQueriesStartAtRoot(t *testing.T) {
	qs := workload.SkewedQueries(50, 1000, 7, rand.New(rand.NewSource(7)))
	for i, q := range qs {
		if q.Cur != 7 {
			t.Fatalf("query %d starts at %d", i, q.Cur)
		}
	}
}

// A vertex whose key span is narrower than its degree has per-child spans of
// width zero; the seed divided by that zero width and panicked. The query
// must instead descend into child 0.
func TestNarrowSpanDescendsToChildZero(t *testing.T) {
	var v graph.Vertex
	v.ID = 7
	v.Deg = 4
	v.Data[graph.HDagSpanStart] = 10
	v.Data[graph.HDagSpanWidth] = 2 // narrower than Deg

	var q core.Query
	q.State[workload.StateKey] = 11
	edge, done := workload.KeySearchSuccessor(&v, &q)
	if done || edge != 0 {
		t.Errorf("KeySearchSuccessor on narrow span: edge=%d done=%v, want 0,false", edge, done)
	}

	// DownUpSuccessor, descending at a non-root vertex: slot 0 is the
	// parent edge, so child 0 is adjacency slot 1.
	v.Level = 3
	v.Deg = 5 // parent + 4 children, span still narrower than child count
	var q2 core.Query
	q2.State[workload.StateKey] = 11
	edge, done = workload.DownUpSuccessor(2)(&v, &q2)
	if done || edge != 1 {
		t.Errorf("DownUpSuccessor on narrow span: edge=%d done=%v, want 1,false", edge, done)
	}

	// The wide-span path still picks the spanning child.
	v2 := v
	v2.Level = 0
	v2.Deg = 4
	v2.Data[graph.HDagSpanWidth] = 40
	var q3 core.Query
	q3.State[workload.StateKey] = 10 + 25 // third child's decile
	edge, done = workload.KeySearchSuccessor(&v2, &q3)
	if done || edge != 2 {
		t.Errorf("KeySearchSuccessor wide span: edge=%d done=%v, want 2,false", edge, done)
	}
}
