package mesh

// Fault-injection seam. The standard operations consult an Injector (when
// one is installed with WithInjector) at the points where a physical mesh
// could misbehave: comparator evaluation inside sorts, the register
// write-back sweep that ends every charged operation (sorts, scans,
// rotations, broadcasts, reduces, local applies, routings), and the
// reply-delivery sweep of a random-access read. The default is nil and costs
// exactly one pointer check per operation — no allocation, no indirect
// call — so the steady-state path is unchanged when injection is off.
//
// Every charged OpClass is reachable through the seam (invariant-tested by
// the coverage test in inject_coverage_test.go, which enumerates OpClass).
// The only charged calls with no consultation point are View.Charge (no data
// to fault) and a zero-distance rotation (no sweep executes); their classes
// are reachable through Apply/Fill and a non-trivial rotation respectively.
//
// Implementations decide *whether* and *where* to inject; the operations
// apply the fault mechanically. internal/faults provides the seeded,
// deterministic implementation used by the chaos tests and meshbench -chaos.

// Injector is consulted by the standard mesh operations at their
// fault-injection points. Implementations must be safe for concurrent use:
// operations on disjoint submeshes run on real goroutines under RunParallel.
type Injector interface {
	// SortLie is consulted once before each charged sort of items records
	// (op names the operation, e.g. "Sort", "RAR", "Route"). A return k ≥ 1
	// makes the sort's comparator lie — return the negated answer — from the
	// k-th comparison onward, modelling a faulty comparison unit; the sort
	// then runs as the reference comparison sort, whose comparisons k
	// counts. 0 leaves the sort honest.
	SortLie(op string, items int) int64

	// CorruptCell is consulted once after each charged operation has produced
	// its output bank of items records (op names the operation). Returning ok
	// directs the operation to overwrite record dst with a copy of record src
	// (src != dst), modelling a register cell latching a neighbour's word
	// during the write-back sweep. For value-returning operations (Reduce,
	// Count) the "bank" is the view's cells and the fault replaces the
	// returned accumulator with cell src's word; for Broadcast and Fill the
	// fault makes cell dst miss the sweep and latch cell src's pre-sweep
	// word instead of the broadcast value.
	CorruptCell(op string, items int) (src, dst int, ok bool)

	// DropReply is consulted once per RAR delivery sweep over replies
	// pending replies. Returning ok drops reply drop entirely: its
	// requesting processor never hears back, as if the reply packet was
	// lost in the routing phase.
	DropReply(replies int) (drop int, ok bool)

	// DuplicateReply is consulted once per RAR delivery sweep. Returning ok
	// delivers reply src a second time, to the processor that issued
	// request dst — a duplicated packet landing at the wrong origin.
	DuplicateReply(replies int) (src, dst int, ok bool)
}

// corruptSlice consults the injector's CorruptCell for an operation whose
// output bank is the scratch slice xs, applying the fault in place. The
// shared write-back seam of every slice-banked operation.
func corruptSlice[T any](v View, op string, xs []T) {
	inj := v.m.inj
	if inj == nil {
		return
	}
	if s, d, ok := inj.CorruptCell(op, len(xs)); ok &&
		s != d && s >= 0 && d >= 0 && s < len(xs) && d < len(xs) {
		xs[d] = xs[s]
	}
}

// corruptReg is corruptSlice for operations whose output bank is the view's
// cells of a register: view-local record dst latches record src's word.
func corruptReg[T any](v View, op string, r *Reg[T]) {
	inj := v.m.inj
	if inj == nil {
		return
	}
	n := v.Size()
	if s, d, ok := inj.CorruptCell(op, n); ok &&
		s != d && s >= 0 && d >= 0 && s < n && d < n {
		r.data[v.Global(d)] = r.data[v.Global(s)]
	}
}

// corruptStale consults CorruptCell for a constant-writing sweep (Broadcast,
// Fill): if the injector fires, it returns the pre-sweep word of cell src
// and the cell dst that will latch it instead of the swept value. The caller
// reads the stale word before overwriting anything and pokes it back after
// the sweep. staleAt is -1 when no fault fires.
func corruptStale[T any](v View, op string, r *Reg[T]) (stale T, staleAt int) {
	staleAt = -1
	inj := v.m.inj
	if inj == nil {
		return
	}
	n := v.Size()
	if s, d, ok := inj.CorruptCell(op, n); ok &&
		s != d && s >= 0 && d >= 0 && s < n && d < n {
		stale, staleAt = r.data[v.Global(s)], d
	}
	return
}
