package core

import (
	"fmt"

	"repro/internal/graph"
)

// Oracle runs the multisearch sequentially on the host representation —
// plain pointer chasing, one query at a time. It is the correctness
// reference for every mesh algorithm: identical final query records
// (Steps and State included) certify that the mesh execution visited
// exactly the same search paths.
//
// maxSteps caps each search to guard against non-terminating successor
// functions; 0 means no cap.
func Oracle(g *graph.Graph, queries []Query, f Successor, maxSteps int) []Query {
	out := make([]Query, len(queries))
	for i, q := range queries {
		q.ID = int32(i)
		q.Done = false
		q.Mark = false
		q.Steps = 0
		q.CurPart = graph.NoPart
		q.CurPart2 = graph.NoPart
		q.CurLevel = -1
		if q.Cur != graph.Nil {
			nd := g.Verts[q.Cur]
			q.CurPart = nd.Part
			q.CurPart2 = nd.Part2
			q.CurLevel = nd.Level
		}
		for !q.Done && q.Cur != graph.Nil {
			if maxSteps > 0 && int(q.Steps) >= maxSteps {
				break
			}
			if q.Cur < 0 || int(q.Cur) >= g.N() {
				panic(fmt.Sprintf("core: oracle query %d reached invalid vertex %d", i, q.Cur))
			}
			Visit(f, &g.Verts[q.Cur], &q)
		}
		out[i] = q
	}
	return out
}

// SameOutcome reports whether two query-result slices describe identical
// search processes: same Steps, same terminal vertex, same State words.
// Mark bits are ignored (scratch).
func SameOutcome(a, b []Query) error {
	if len(a) != len(b) {
		return fmt.Errorf("core: result lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Steps != y.Steps || x.Done != y.Done || x.Cur != y.Cur || x.State != y.State {
			return fmt.Errorf("core: query %d differs:\n  %+v\n  %+v", i, x, y)
		}
	}
	return nil
}
