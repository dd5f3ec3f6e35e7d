package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/trace"
)

// Algorithm 1 (§3): multisearch on a hierarchical DAG in O(√n) mesh time.
//
// Register set (all fixed — the O(1) memory of Theorem 2). The instance
// allocates the scratch registers on its first run and every later run
// reuses them:
//
//	Nodes    initial configuration of G (never moved; serves B*)
//	Queries  one query per processor, processed in place
//	labels   step-1 labels
//	stage    the union-cascade of step 2(b)
//	store ×2 the distributed B_i storage on label-i processors (≤2 records)
//	work     the per-B_i-submesh copy of B_i during step 3
//	phase1   the per-B_i^1-submesh copy of B_i^1 during Lemma 1 phase 1
//
// Queries never move: every query is processed by the B_i-submesh that
// contains its processor, which holds a full copy of B_i when needed.

// HDagStats aggregates one Algorithm 1 run.
type HDagStats struct {
	Blocks     int
	StarLevels int
	Advanced   int64
}

type hdagRegs struct {
	labels *mesh.Reg[int8]
	stage  *mesh.Reg[graph.Vertex]
	store1 *mesh.Reg[graph.Vertex]
	store2 *mesh.Reg[graph.Vertex]
	work   *mesh.Reg[graph.Vertex]
	phase1 *mesh.Reg[graph.Vertex]
}

// algorithm1Regs returns (allocating on first use) the instance's Algorithm 1
// register set.
func (in *Instance) algorithm1Regs() *hdagRegs {
	if in.hdag == nil {
		m := in.M
		in.hdag = &hdagRegs{
			labels: mesh.NewReg[int8](m),
			stage:  mesh.NewReg[graph.Vertex](m),
			store1: mesh.NewReg[graph.Vertex](m),
			store2: mesh.NewReg[graph.Vertex](m),
			work:   mesh.NewReg[graph.Vertex](m),
			phase1: mesh.NewReg[graph.Vertex](m),
		}
	}
	return in.hdag
}

// MultisearchHDag runs Algorithm 1 on the instance (whose graph must be the
// hierarchical DAG the plan was computed for).
func MultisearchHDag(v mesh.View, in *Instance, plan *HDagPlan) HDagStats {
	defer trace.Span(v, "algorithm1")()
	var st HDagStats
	st.Blocks = plan.S
	st.StarLevels = plan.H - plan.StarLo + 1
	m := in.M
	regs := in.algorithm1Regs()
	scratch := []*mesh.Reg[graph.Vertex]{regs.stage, regs.store1, regs.store2, regs.work, regs.phase1}
	if plan.S > 0 || m.Audit() || m.Injector() != nil {
		for _, r := range scratch {
			mesh.Fill(v, r, emptyVertex)
		}
	} else {
		// With no blocks below B* nothing reads the scratch registers, and
		// with faults and audit off a Fill's sweep decides nothing: charge
		// each Fill's one local step without sweeping (DESIGN.md §3.1).
		for range scratch {
			v.Charge(1)
		}
	}
	in.Prime(v)

	if plan.S > 0 {
		// Step 1: labels. One O(1)-local pass per i (log* h passes total).
		endStep1 := trace.Span(v, "step1:labels")
		side := m.Side()
		mesh.Apply(v, regs.labels, func(local int, label *int8) {
			g := v.Global(local)
			*label = int8(plan.LabelAt(g/side, g%side))
		})
		v.Charge(int64(plan.S - 1)) // Apply charged 1; step 1 is S passes
		endStep1()

		// Step 2 prologue: stage ← U_{S-1} (everything below B*),
		// concentrated in row-major order. One copy + one concentrate.
		endStage := trace.Span(v, "step2:stage")
		mesh.Fill(v, regs.stage, emptyVertex)
		mesh.RouteTo(v, in.Nodes, regs.stage, func(i int, nd *graph.Vertex) (int, bool) {
			return i, nd.ID != graph.Nil && int(nd.Level) <= plan.Blocks[plan.S-1].Hi
		})
		mesh.Concentrate(v, regs.stage, emptyVertex, func(nd graph.Vertex) bool {
			return nd.ID != graph.Nil
		})
		endStage()

		// Step 2: for i = S-1 … 0, within each B_{i+1}-submesh: distribute
		// B_i onto the label-i processors, then push U_{i-1} down to the
		// B_i-submeshes.
		for i := plan.S - 1; i >= 0; i-- {
			blk := plan.Blocks[i]
			gOut := plan.GridOf(i + 1)
			subs := v.Partition(gOut, gOut)
			endBlock := trace.Span(v, "step2/B_%d", i)
			v.RunParallel(subs, func(_ int, delta mesh.View) {
				distributeToLabels(delta, regs, plan, i)
				if i > 0 {
					pushUnionDown(delta, regs, plan.Blocks[i-1].Hi, blk.Grid/gOut)
				}
			})
			endBlock()
		}

		// Step 3: for i = 0 … S-1: replicate B_i from its label storage to
		// every B_i-submesh of each B_{i+1}-submesh, then solve the
		// multisearch problem for B_i (Lemma 1) in every B_i-submesh.
		for i := 0; i < plan.S; i++ {
			blk := plan.Blocks[i]
			gOut := plan.GridOf(i + 1)
			subs := v.Partition(gOut, gOut)
			adv := mesh.Checkout[int64](m, len(subs))
			clear(adv)
			endBlock := trace.Span(v, "step3/B_%d", i)
			v.RunParallel(subs, func(si int, delta mesh.View) {
				endRep := trace.Span(delta, "replicate")
				replicateBi(delta, regs, plan, i)
				endRep()
				children := delta.Partition(blk.Grid/gOut, blk.Grid/gOut)
				childAdv := mesh.Checkout[int64](m, len(children))
				clear(childAdv)
				delta.RunParallel(children, func(ci int, sub mesh.View) {
					childAdv[ci] = solveLemma1(sub, in, regs, blk)
				})
				for _, a := range childAdv {
					adv[si] += a
				}
				mesh.Release(m, childAdv)
			})
			endBlock()
			for _, a := range adv {
				st.Advanced += a
			}
			mesh.Release(m, adv)
		}
	}

	// Step 4: B* level by level over the whole view, using the untouched
	// initial configuration (O(1) levels).
	endStar := trace.Span(v, "step4:Bstar")
	for t := 0; t < st.StarLevels; t++ {
		st.Advanced += advanceRange(v, in, in.Nodes, plan.StarLo, plan.H)
	}
	endStar()
	if left := in.Unfinished(v); left > 0 {
		panic(fmt.Sprintf("core: %d queries unfinished after Algorithm 1; graph violates the hierarchical-DAG contract", left))
	}
	return st
}

// byID is the sort word ordering vertex records by ID.
func byID(nd graph.Vertex) uint64 { return mesh.Key2(0, int32(nd.ID)) }

// distributeToLabels implements step 2(a) within one B_{i+1}-submesh: the
// B_i records (found in the local stage copy) are spread over the label-i
// processors, at most two per processor. Cost: one local sort.
func distributeToLabels(delta mesh.View, regs *hdagRegs, plan *HDagPlan, i int) {
	m := delta.Mesh()
	blk := plan.Blocks[i]
	size := delta.Size()
	recs := mesh.Checkout[graph.Vertex](m, size)[:0]
	for j := 0; j < size; j++ {
		nd := mesh.Ref(delta, regs.stage, j)
		if nd.ID != graph.Nil && int(nd.Level) >= blk.Lo && int(nd.Level) <= blk.Hi {
			recs = append(recs, *nd)
		}
	}
	if len(recs) != blk.Count {
		panic(fmt.Sprintf("core: B_%d has %d records in stage, plan says %d", i, len(recs), blk.Count))
	}
	slots := mesh.Checkout[int32](m, size)[:0]
	for j := 0; j < size; j++ {
		g := delta.Global(j)
		side := m.Side()
		if plan.LabelAt(g/side, g%side) == i {
			slots = append(slots, int32(j))
		}
	}
	if len(slots)*2 < len(recs) {
		panic(fmt.Sprintf("core: B_%d: %d records onto %d label-%d processors", i, len(recs), len(slots), i))
	}
	mesh.SortScratch(delta, recs, 1, byID)
	for r := range recs {
		if r < len(slots) {
			*mesh.Ref(delta, regs.store1, int(slots[r])) = recs[r]
		} else {
			*mesh.Ref(delta, regs.store2, int(slots[r-len(slots)])) = recs[r]
		}
	}
	mesh.Release(m, slots)
	mesh.Release(m, recs)
	delta.Charge(1)
}

// pushUnionDown implements step 2(b) within one B_{i+1}-submesh: shrink the
// stage to U_{i-1} and replicate it into every child B_i-submesh. Cost: one
// concentrate plus one block broadcast.
func pushUnionDown(delta mesh.View, regs *hdagRegs, unionHi int, childGrid int) {
	n := mesh.Concentrate(delta, regs.stage, emptyVertex, func(nd graph.Vertex) bool {
		return nd.ID != graph.Nil && int(nd.Level) <= unionHi
	})
	m := delta.Mesh()
	block := mesh.Checkout[graph.Vertex](m, n)
	for j := 0; j < n; j++ {
		block[j] = *mesh.Ref(delta, regs.stage, j)
	}
	children := delta.Partition(childGrid, childGrid)
	mesh.BroadcastBlock(delta, regs.stage, block, children)
	mesh.Release(m, block)
}

// replicateBi implements step 3(a) within one B_{i+1}-submesh: gather B_i
// from the label-i processors (they all lie in the top-left B_i-submesh)
// and broadcast the block into the work register of every B_i-submesh.
func replicateBi(delta mesh.View, regs *hdagRegs, plan *HDagPlan, i int) {
	m := delta.Mesh()
	blk := plan.Blocks[i]
	size := delta.Size()
	recs := mesh.Checkout[graph.Vertex](m, 2*size)[:0]
	for j := 0; j < size; j++ {
		if nd := mesh.Ref(delta, regs.store1, j); nd.ID != graph.Nil && int(nd.Level) >= blk.Lo && int(nd.Level) <= blk.Hi {
			recs = append(recs, *nd)
		}
	}
	for j := 0; j < size; j++ {
		if nd := mesh.Ref(delta, regs.store2, j); nd.ID != graph.Nil && int(nd.Level) >= blk.Lo && int(nd.Level) <= blk.Hi {
			recs = append(recs, *nd)
		}
	}
	if len(recs) != blk.Count {
		panic(fmt.Sprintf("core: replicate B_%d found %d records, plan says %d", i, len(recs), blk.Count))
	}
	mesh.SortScratch(delta, recs, 1, byID)
	gOut := plan.GridOf(i + 1)
	children := delta.Partition(blk.Grid/gOut, blk.Grid/gOut)
	mesh.Fill(delta, regs.work, emptyVertex)
	mesh.BroadcastBlock(delta, regs.work, recs, children)
	mesh.Release(m, recs)
}

// solveLemma1 solves the multisearch problem for B_i within one
// B_i-submesh holding a copy of B_i in its work register (Lemma 1):
// phase 1 replicates B_i^1 into Δh×Δh sub-submeshes and advances the
// resident queries through B_i^1's levels there; phase 2 advances level by
// level through B_i^2 at the submesh granularity.
func solveLemma1(sub mesh.View, in *Instance, regs *hdagRegs, blk HDagBlock) int64 {
	var advanced int64
	m := sub.Mesh()
	p2lo := blk.Lo
	if blk.P1Hi >= blk.Lo {
		// Phase 1.
		endPhase1 := trace.Span(sub, "lemma1/phase1")
		size := sub.Size()
		block1 := mesh.Checkout[graph.Vertex](m, size)[:0]
		for j := 0; j < size; j++ {
			if nd := mesh.Ref(sub, regs.work, j); nd.ID != graph.Nil && int(nd.Level) <= blk.P1Hi && int(nd.Level) >= blk.Lo {
				block1 = append(block1, *nd)
			}
		}
		mesh.SortScratch(sub, block1, 1, byID)
		grand := sub.Partition(blk.P1Grid, blk.P1Grid)
		mesh.Fill(sub, regs.phase1, emptyVertex)
		mesh.BroadcastBlock(sub, regs.phase1, block1, grand)
		mesh.Release(m, block1)
		iters := blk.P1Hi - blk.Lo + 1
		childAdv := mesh.Checkout[int64](m, len(grand))
		clear(childAdv)
		sub.RunParallel(grand, func(gi int, ss mesh.View) {
			for t := 0; t < iters; t++ {
				childAdv[gi] += advanceRange(ss, in, regs.phase1, blk.Lo, blk.P1Hi)
			}
		})
		for _, a := range childAdv {
			advanced += a
		}
		mesh.Release(m, childAdv)
		endPhase1()
		p2lo = blk.P1Hi + 1
	}
	// Phase 2: level by level through B_i^2 (≈ 2·log Δh levels).
	endPhase2 := trace.Span(sub, "lemma1/phase2")
	for lvl := p2lo; lvl <= blk.Hi; lvl++ {
		advanced += advanceRange(sub, in, regs.work, lvl, lvl)
	}
	endPhase2()
	return advanced
}

// advanceRange performs one local multistep: every unfinished query in the
// view whose current level lies in [lo, hi] visits its next vertex via a
// random-access read against the given node register. Returns the number of
// queries advanced.
func advanceRange(v mesh.View, in *Instance, nodes *mesh.Reg[graph.Vertex], lo, hi int) int64 {
	var advanced int64
	mesh.RAR(v,
		func(i int) (graph.VertexID, bool) {
			id := mesh.Ref(v, nodes, i).ID
			return id, id != graph.Nil
		},
		func(i int) *graph.Vertex { return mesh.Ref(v, nodes, i) },
		func(i int) (graph.VertexID, bool) {
			q := mesh.Ref(v, in.Queries, i)
			return q.Cur, q.ID != NoQuery && !q.Done && int(q.CurLevel) >= lo && int(q.CurLevel) <= hi
		},
		func(i int, nd *graph.Vertex, found bool) {
			q := mesh.Ref(v, in.Queries, i)
			if !found {
				panic(fmt.Sprintf("core: query %d: vertex %d (level %d) missing from its submesh copy", q.ID, q.Cur, q.CurLevel))
			}
			Visit(in.F, nd, q)
			advanced++
		})
	return advanced
}
