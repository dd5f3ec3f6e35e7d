package mesh

import (
	"fmt"
	"reflect"
)

// Reg is one named machine register: every processor holds exactly one value
// of type T. Algorithms allocate a fixed, O(1) set of registers, matching
// the paper's "O(1) memory per processor" model; tests assert that no
// algorithm needs a per-processor register count that grows with n.
type Reg[T any] struct {
	m    *Mesh
	data []T
}

// NewReg allocates a register on m, zero-valued everywhere.
func NewReg[T any](m *Mesh) *Reg[T] {
	return &Reg[T]{m: m, data: make([]T, m.n)}
}

// At returns the value held by the view-local processor i.
func At[T any](v View, r *Reg[T], i int) T { return r.data[v.Global(i)] }

// Ref returns a pointer to the cell held by the view-local processor i, for
// in-place O(1) updates. Hot visit loops use it to mutate a record through a
// dynamic callback without the copy of the record escaping to the heap on
// every call.
func Ref[T any](v View, r *Reg[T], i int) *T { return &r.data[v.Global(i)] }

// Set stores val into the view-local processor i.
func Set[T any](v View, r *Reg[T], i int, val T) { r.data[v.Global(i)] = val }

// Fill stores val into every processor of the view. One parallel step.
//
// Fault model: like Broadcast, one cell misses the sweep and latches another
// cell's pre-fill word; audit mode verifies every cell equals val.
func Fill[T any](v View, r *Reg[T], val T) {
	v = v.begin(OpLocal)
	sweep(v, "Fill", r, val, "fill")
	v.charge(OpLocal, 1)
}

// sweep is the shared body of Fill and Broadcast: write val into every cell
// of the view, with the stale-word fault seam and the audit check. The
// first row is written by doubling copies and every later row is a copy of
// it, so val is stored once, not once per cell.
func sweep[T any](v View, op string, r *Reg[T], val T, what string) {
	stale, staleAt := corruptStale(v, op, r)
	rows, w := v.rowWalk()
	first := rowOf(v, r, 0, w)
	first[0] = val
	for k := 1; k < w; k *= 2 {
		copy(first[k:], first[:k])
	}
	for row := 1; row < rows; row++ {
		copy(rowOf(v, r, row, w), first)
	}
	if staleAt >= 0 {
		r.data[v.Global(staleAt)] = stale
	}
	if v.m.audit {
		for row := 0; row < rows; row++ {
			cells := rowOf(v, r, row, w)
			for c := range cells {
				if !reflect.DeepEqual(cells[c], val) {
					panic(&AuditError{
						Geom:   v.m.geometry(),
						Op:     op,
						Detail: fmt.Sprintf("cell %d of %d differs from the %s value", row*w+c, v.Size(), what),
					})
				}
			}
		}
	}
}

// Apply runs a locally-computed O(1) update on every processor of the view:
// f updates the cell in place through cur. One parallel step.
//
// Fault model: one cell latches a neighbour's updated word during the
// write-back sweep. Audit mode snapshots the honest output and compares
// cell-by-cell after the seam — it never re-runs f, so impure update
// functions stay single-shot.
func Apply[T any](v View, r *Reg[T], f func(local int, cur *T)) {
	v = v.begin(OpLocal)
	rows, w := v.rowWalk()
	for row := 0; row < rows; row++ {
		cells := rowOf(v, r, row, w)
		for c := range cells {
			f(row*w+c, &cells[c])
		}
	}
	auditWriteBack(v, "Apply", r)
}

// Apply2 runs a locally-computed O(1) update reading register a and updating
// register b in place on every processor of the view. One parallel step.
// Same fault model and audit as Apply, on register b. f must not write
// through av.
func Apply2[A, B any](v View, a *Reg[A], b *Reg[B], f func(local int, av *A, bv *B)) {
	v = v.begin(OpLocal)
	rows, w := v.rowWalk()
	for row := 0; row < rows; row++ {
		as, bs := rowOf(v, a, row, w), rowOf(v, b, row, w)
		for c := range bs {
			f(row*w+c, &as[c], &bs[c])
		}
	}
	auditWriteBack(v, "Apply2", b)
}

// auditWriteBack is the shared tail of Apply/Apply2: snapshot the honest
// output (audit mode only), run the write-back fault seam, verify nothing
// moved, and charge the one local step.
func auditWriteBack[T any](v View, op string, r *Reg[T]) {
	var want []T
	if v.m.audit {
		want = gather(v, r)
	}
	corruptReg(v, op, r)
	if want != nil {
		rows, w := v.rowWalk()
		for row := 0; row < rows; row++ {
			cells := rowOf(v, r, row, w)
			for c := range cells {
				if i := row*w + c; !reflect.DeepEqual(cells[c], want[i]) {
					panic(&AuditError{
						Geom:   v.m.geometry(),
						Op:     op,
						Detail: fmt.Sprintf("cell %d of %d latched a foreign word during write-back", i, len(want)),
					})
				}
			}
		}
	}
	v.charge(OpLocal, 1)
}

// rowWalk reports how a walk visits the view's cells in local row-major
// order: rows runs of w contiguous register cells, run row holding local
// indices row·w … row·w+w-1 (see rowOf). A view of whole rows (w == side,
// such as the root view) is one contiguous run; any other view has one run
// per view row. Primitives walk runs instead of converting every local
// index with Global, which divides.
func (v View) rowWalk() (rows, w int) {
	if v.w == v.m.side {
		return 1, v.h * v.w
	}
	return v.h, v.w
}

// rowOf returns run row of the view's cells of r, for the w that rowWalk
// reported.
func rowOf[T any](v View, r *Reg[T], row, w int) []T {
	return r.data[(v.r0+row)*v.m.side+v.c0:][:w]
}

// gatherInto copies the view's contents of r into out (which must have
// length Size()) in view-local row-major order.
func gatherInto[T any](v View, r *Reg[T], out []T) {
	rows, w := v.rowWalk()
	for row := 0; row < rows; row++ {
		copy(out[row*w:], rowOf(v, r, row, w))
	}
}

// gather copies the view's contents of r into a fresh slice in view-local
// row-major order. Simulation bookkeeping; carries no step charge itself.
func gather[T any](v View, r *Reg[T]) []T {
	out := make([]T, v.Size())
	gatherInto(v, r, out)
	return out
}

// gatherScratch is gather into a pooled arena buffer; the caller must hand
// the buffer back with Release when the operation is done.
func gatherScratch[T any](v View, r *Reg[T]) []T {
	out := Checkout[T](v.m, v.Size())
	gatherInto(v, r, out)
	return out
}

// scatter writes xs (view-local row-major) back into the view's cells of r.
func scatter[T any](v View, r *Reg[T], xs []T) {
	if len(xs) != v.Size() {
		panic("mesh: scatter length mismatch")
	}
	Load(v, r, xs)
}

// Snapshot returns a copy of the view's contents of r in view-local
// row-major order, for inspection by tests and harness code (no charge).
func Snapshot[T any](v View, r *Reg[T]) []T { return gather(v, r) }

// Load writes xs into the view starting at local index 0 in row-major
// order, for test and harness initialization (no charge). Cells past
// len(xs) are untouched.
func Load[T any](v View, r *Reg[T], xs []T) {
	if len(xs) > v.Size() {
		panic("mesh: Load overflow")
	}
	_, w := v.rowWalk()
	for row := 0; len(xs) > 0; row++ {
		xs = xs[copy(rowOf(v, r, row, w), xs):]
	}
}
