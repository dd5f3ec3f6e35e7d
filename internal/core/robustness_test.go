package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/workload"
)

// The simulator must be deterministic regardless of how many goroutines
// execute the submesh bodies: same final registers, same step counts.
func TestParallelismDoesNotAffectResultsOrCost(t *testing.T) {
	tr, s := buildAlphaTree(32, 9)
	rng := rand.New(rand.NewSource(50))
	qs := workload.KeySearchQueries(1000, 512, tr.Root(), 4, rng)

	var ref []core.Query
	var refSteps int64
	for _, p := range []int{1, 2, 8, 64} {
		m := mesh.New(32, mesh.WithParallelism(p))
		in := core.NewInstance(m, tr.Graph, qs, workload.KeySearchSuccessor)
		core.MultisearchAlpha(m.Root(), in, s.MaxPart, 0)
		if ref == nil {
			ref = in.ResultQueries()
			refSteps = m.Steps()
			continue
		}
		if err := core.SameOutcome(ref, in.ResultQueries()); err != nil {
			t.Fatalf("parallelism %d changed results: %v", p, err)
		}
		if m.Steps() != refSteps {
			t.Fatalf("parallelism %d changed cost: %d vs %d", p, m.Steps(), refSteps)
		}
	}
}

func TestHDagParallelismDeterminism(t *testing.T) {
	d := graph.CompleteTreeHDag(2, 11)
	qs := workload.KeySearchQueries(2000, 1<<11, d.Root(), 8, rand.New(rand.NewSource(51)))
	var ref []core.Query
	var refSteps int64
	for _, p := range []int{1, 16} {
		m := mesh.New(64, mesh.WithParallelism(p))
		plan, err := core.PlanHDag(d, 64)
		if err != nil {
			t.Fatal(err)
		}
		in := core.NewInstance(m, d.Graph, qs, workload.KeySearchSuccessor)
		core.MultisearchHDag(m.Root(), in, plan)
		if ref == nil {
			ref, refSteps = in.ResultQueries(), m.Steps()
			continue
		}
		if err := core.SameOutcome(ref, in.ResultQueries()); err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if m.Steps() != refSteps {
			t.Fatalf("parallelism %d cost %d vs %d", p, m.Steps(), refSteps)
		}
	}
}

// Failure injection: contract violations must be loud panics, never silent
// wrong answers.

func TestSuccessorReturningInvalidEdgePanics(t *testing.T) {
	tr, _ := buildAlphaTree(8, 4)
	bad := func(v *graph.Vertex, q *core.Query) (int, bool) {
		return int(v.Deg) + 3, false // out of range
	}
	qs := workload.KeySearchQueries(5, 16, tr.Root(), 1, rand.New(rand.NewSource(52)))
	m := mesh.New(8)
	in := core.NewInstance(m, tr.Graph, qs, bad)
	in.Prime(m.Root())
	defer func() {
		if recover() == nil {
			t.Fatal("invalid edge accepted")
		}
	}()
	in.GlobalStep(m.Root())
}

func TestQueryAtUnknownVertexPanics(t *testing.T) {
	tr, _ := buildAlphaTree(8, 4)
	qs := []core.Query{{Cur: graph.VertexID(tr.N() + 5)}} // beyond the graph
	m := mesh.New(8)
	in := core.NewInstance(m, tr.Graph, qs, workload.KeySearchSuccessor)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown start vertex accepted")
		}
	}()
	in.Prime(m.Root())
}

func TestNonTerminatingSearchCaught(t *testing.T) {
	// A successor that never finishes on a cyclic graph: the log-phase
	// driver's maxPhases guard must fire.
	g := workload.CycleGraph(4, 16)
	forever := func(v *graph.Vertex, q *core.Query) (int, bool) { return 0, false }
	qs := workload.WalkQueries(10, 1<<30, g.N(), rand.New(rand.NewSource(53)))
	m := mesh.New(8)
	in := core.NewInstance(m, g, qs, forever)
	defer func() {
		if recover() == nil {
			t.Fatal("non-termination not caught")
		}
	}()
	core.MultisearchAlpha(m.Root(), in, 16, 5)
}

func TestSynchronousMaxStepsGuard(t *testing.T) {
	g := workload.CycleGraph(4, 16)
	forever := func(v *graph.Vertex, q *core.Query) (int, bool) { return 0, false }
	qs := workload.WalkQueries(10, 1<<30, g.N(), rand.New(rand.NewSource(54)))
	m := mesh.New(8)
	in := core.NewInstance(m, g, qs, forever)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway synchronous search not caught")
		}
	}()
	core.SynchronousMultisearch(m.Root(), in, 7)
}

func TestHDagRejectsLevelViolatingGraph(t *testing.T) {
	// A graph with a back arc (level 5 → root) violates the
	// hierarchical-DAG contract: queries caught in the loop cannot finish
	// within the level-paced schedule, and the post-run check must panic.
	d := graph.CompleteTreeHDag(2, 6)
	d.Verts[d.LevelStart[5]].Adj[0] = d.Root()
	m := mesh.New(16)
	plan, err := core.PlanHDag(d, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Key 0 descends the leftmost path straight into the back arc.
	qs := make([]core.Query, 4)
	for i := range qs {
		qs[i].Cur = d.Root()
	}
	in := core.NewInstance(m, d.Graph, qs, workload.KeySearchSuccessor)
	defer func() {
		if recover() == nil {
			t.Fatal("level-violating graph accepted")
		}
	}()
	core.MultisearchHDag(m.Root(), in, plan)
}

func TestVisitBookkeeping(t *testing.T) {
	tr, _ := buildAlphaTree(8, 4)
	var q core.Query
	q.Cur = tr.Root()
	core.Visit(workload.KeySearchSuccessor, &tr.Verts[tr.Root()], &q)
	if q.Steps != 1 || q.Done || q.CurLevel != 1 {
		t.Fatalf("after visit: %+v", q)
	}
	// Visit a leaf: Done with cleared position.
	leaf := &tr.Verts[tr.N()-1]
	core.Visit(workload.KeySearchSuccessor, leaf, &q)
	if !q.Done || q.Cur != graph.Nil || q.CurPart != graph.NoPart || q.CurLevel != -1 {
		t.Fatalf("after leaf visit: %+v", q)
	}
}
