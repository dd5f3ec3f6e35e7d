package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/trace"
)

// Algorithms 2 and 3: one log-phase advances every unfinished query Ω(log n)
// steps (given splitters with the §4 properties) in O(√n) time; the full
// multisearch iterates log-phases until all search paths end.

// PhaseStats aggregates one multisearch run for the Theorem 5/7 experiments.
type PhaseStats struct {
	LogPhases   int
	GlobalSteps int
	CMS         []CMSStats
}

// LogPhaseAlpha runs Algorithm 2, one log-phase of multisearch on an
// α-partitionable directed graph:
//
//  1. every query visits the next node in its search path
//  2. Constrained-Multisearch({H…,T…}, α)
//  3. every query visits the next node in its search path
//  4. Constrained-Multisearch({H…,T…}, α)
//
// maxPart bounds every part of the installed primary splitting.
func LogPhaseAlpha(v mesh.View, in *Instance, maxPart int) []CMSStats {
	st := logPhaseAlpha(v, in, maxPart)
	return st[:]
}

func logPhaseAlpha(v mesh.View, in *Instance, maxPart int) [2]CMSStats {
	defer trace.Span(v, "logphase-a")()
	steps := Log2N(v)
	globalStep(v, in)
	a := ConstrainedMultisearch(v, in, graph.Primary, maxPart, steps)
	globalStep(v, in)
	b := ConstrainedMultisearch(v, in, graph.Primary, maxPart, steps)
	return [2]CMSStats{a, b}
}

// LogPhaseAlphaBeta runs Algorithm 3, one log-phase of multisearch on an
// α-β-partitionable undirected graph: like Algorithm 2 but the second
// constrained multisearch switches to the subgraphs of the β-splitter.
func LogPhaseAlphaBeta(v mesh.View, in *Instance, maxPart1, maxPart2 int) []CMSStats {
	st := logPhaseAlphaBeta(v, in, maxPart1, maxPart2)
	return st[:]
}

func logPhaseAlphaBeta(v mesh.View, in *Instance, maxPart1, maxPart2 int) [2]CMSStats {
	defer trace.Span(v, "logphase-ab")()
	steps := Log2N(v)
	globalStep(v, in)
	a := ConstrainedMultisearch(v, in, graph.Primary, maxPart1, steps)
	globalStep(v, in)
	b := ConstrainedMultisearch(v, in, graph.Secondary, maxPart2, steps)
	return [2]CMSStats{a, b}
}

// globalStep wraps Instance.GlobalStep in its tracing span.
func globalStep(v mesh.View, in *Instance) {
	defer trace.Span(v, "globalstep")()
	in.GlobalStep(v)
}

// MultisearchAlpha solves the multisearch problem on an α-partitionable
// directed graph (Theorem 5): Prime once, then iterate Algorithm 2
// log-phases until every search path has ended. maxPhases guards against
// inputs violating the partitionability contract (0 = derive from the
// worst case of one step of progress per phase).
func MultisearchAlpha(v mesh.View, in *Instance, maxPart, maxPhases int) PhaseStats {
	var st PhaseStats
	st.LogPhases = runLogPhases(v, in, maxPhases, &st.CMS, func() [2]CMSStats {
		return logPhaseAlpha(v, in, maxPart)
	})
	st.GlobalSteps = 2 * st.LogPhases
	return st
}

// SearchAlpha is MultisearchAlpha without the per-call statistics: the
// same steps and answers, and it returns only the number of log-phases.
// It allocates nothing, which is why the serving rounds call it.
func SearchAlpha(v mesh.View, in *Instance, maxPart, maxPhases int) int {
	return runLogPhases(v, in, maxPhases, nil, func() [2]CMSStats {
		return logPhaseAlpha(v, in, maxPart)
	})
}

// MultisearchAlphaBeta solves the multisearch problem on an
// α-β-partitionable undirected graph (Theorem 7) by iterating Algorithm 3.
func MultisearchAlphaBeta(v mesh.View, in *Instance, maxPart1, maxPart2, maxPhases int) PhaseStats {
	var st PhaseStats
	st.LogPhases = runLogPhases(v, in, maxPhases, &st.CMS, func() [2]CMSStats {
		return logPhaseAlphaBeta(v, in, maxPart1, maxPart2)
	})
	st.GlobalSteps = 2 * st.LogPhases
	return st
}

// runLogPhases primes the queries and runs log-phases until none is
// unfinished, appending each phase's two CMSStats to cms unless it is nil.
// It returns the number of log-phases run.
func runLogPhases(v mesh.View, in *Instance, maxPhases int, cms *[]CMSStats, phase func() [2]CMSStats) int {
	defer trace.Span(v, "multisearch")()
	in.Prime(v)
	phases := 0
	for in.Unfinished(v) > 0 {
		if maxPhases > 0 && phases >= maxPhases {
			panic(fmt.Sprintf("core: multisearch did not finish within %d log-phases; "+
				"check the splitter properties of the input graph", maxPhases))
		}
		st := phase()
		if cms != nil {
			*cms = append(*cms, st[:]...)
		}
		phases++
	}
	return phases
}

// SynchronousMultisearch is the baseline the paper argues against for
// meshes (§1, the [DR90] hypercube strategy): advance all queries
// synchronously, one full-mesh random-access read per search step, Θ(r·√n)
// total. Returns the number of multisteps executed.
func SynchronousMultisearch(v mesh.View, in *Instance, maxSteps int) int {
	defer trace.Span(v, "synchronous")()
	in.Prime(v)
	steps := 0
	for in.Unfinished(v) > 0 {
		if maxSteps > 0 && steps >= maxSteps {
			panic(fmt.Sprintf("core: synchronous multisearch exceeded %d multisteps", maxSteps))
		}
		in.GlobalStep(v)
		steps++
	}
	return steps
}
