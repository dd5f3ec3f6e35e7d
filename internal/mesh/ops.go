package mesh

import (
	"fmt"
	"reflect"
)

// Standard mesh operations: broadcast, reduce, prefix scan, segmented scan,
// and row/column rotation. Each computes the same machine state the textbook
// mesh implementation produces and charges its step cost (see the cost
// formulas in mesh.go). Scans update the register file in place and reduces
// accumulate directly, so none of these allocate; rotations borrow one
// row/column buffer from the arena.
//
// Every operation here consults the fault-injection seam (inject.go) after
// producing its output and, in audit mode, verifies that output against the
// operation's defining identity — the same contract the sorts and the
// random-access operations honour. Audit checks only observe: they charge
// nothing and never alter machine state, so audited runs keep byte-identical
// step tables.

// Broadcast copies the value at view-local index src into every processor of
// the view. Cost: rows+cols (a row sweep then a column sweep).
//
// Fault model: one cell misses the sweep and latches another cell's
// pre-broadcast word. Audit mode verifies every cell equals the broadcast
// value.
func Broadcast[T any](v View, r *Reg[T], src int) {
	v = v.begin(OpBroadcast)
	sweep(v, "Broadcast", r, r.data[v.Global(src)], "broadcast")
	v.charge(OpBroadcast, v.broadcastCost())
}

// Reduce combines all values in the view with op (which must be associative
// and, for audit mode, deterministic) and returns the result, leaving
// registers untouched. Cost: rows+cols.
//
// Fault model: the accumulation register latches cell src's word in place of
// the running total. Audit mode recomputes the fold from the (untouched)
// register file and compares.
func Reduce[T any](v View, r *Reg[T], op func(a, b T) T) T {
	v = v.begin(OpReduce)
	acc := fold(v, r, op)
	if inj := v.m.inj; inj != nil {
		if s, _, ok := inj.CorruptCell("Reduce", v.Size()); ok && s >= 0 && s < v.Size() {
			acc = r.data[v.Global(s)]
		}
	}
	if v.m.audit && !reflect.DeepEqual(acc, fold(v, r, op)) {
		panic(&AuditError{
			Geom:   v.m.geometry(),
			Op:     "Reduce",
			Detail: "reduction result differs from the reference fold",
		})
	}
	v.charge(OpReduce, v.reduceCost())
	return acc
}

// fold combines the view's cells of r with op in local row-major order.
func fold[T any](v View, r *Reg[T], op func(a, b T) T) T {
	rows, w := v.rowWalk()
	acc := r.data[v.Global(0)]
	for row := 0; row < rows; row++ {
		cells := rowOf(v, r, row, w)
		if row == 0 {
			cells = cells[1:]
		}
		for c := range cells {
			acc = op(acc, cells[c])
		}
	}
	return acc
}

// Scan replaces each cell with the inclusive prefix combination of all cells
// at or before it in view-local row-major order. op must be associative.
// Cost: 2·(rows+cols).
func Scan[T any](v View, r *Reg[T], op func(a, b T) T) {
	v = v.begin(OpScan)
	var in []T
	if v.m.audit {
		in = gather(v, r)
	}
	rows, w := v.rowWalk()
	prev := r.data[v.Global(0)]
	for row := 0; row < rows; row++ {
		cells := rowOf(v, r, row, w)
		for c := range cells {
			if row > 0 || c > 0 {
				prev = op(prev, cells[c])
				cells[c] = prev
			}
		}
	}
	corruptReg(v, "Scan", r)
	if in != nil {
		auditScanIdentity(v, "Scan", in, gather(v, r), nil, op)
	}
	v.charge(OpScan, v.scanCost())
}

// auditScanIdentity verifies a (segmented) inclusive scan's output against
// the full prefix identity over the pristine input: out[i] = op(out[i-1],
// in[i]) at interior cells, out[i] = in[i] at cell 0 and at segment heads
// (which the scan leaves untouched — a fault landing there must not escape
// either). head nil means the only head is cell 0.
func auditScanIdentity[T any](v View, opName string, in, out []T, head []bool, op func(a, b T) T) {
	for i := range in {
		var want T
		if i == 0 || (head != nil && head[i]) {
			want = in[i]
		} else {
			want = op(out[i-1], in[i])
		}
		if !reflect.DeepEqual(out[i], want) {
			panic(&AuditError{
				Geom:   v.m.geometry(),
				Op:     opName,
				Detail: fmt.Sprintf("prefix identity broken at processor %d of %d", i, len(in)),
			})
		}
	}
}

// ExclusiveScan is Scan shifted by one: cell i receives the combination of
// cells 0..i-1, and cell 0 receives id. Cost: 2·(rows+cols).
func ExclusiveScan[T any](v View, r *Reg[T], id T, op func(a, b T) T) {
	v = v.begin(OpScan)
	var in []T
	if v.m.audit {
		in = gather(v, r)
	}
	rows, w := v.rowWalk()
	acc := id
	for row := 0; row < rows; row++ {
		cells := rowOf(v, r, row, w)
		for c := range cells {
			acc, cells[c] = op(acc, cells[c]), acc
		}
	}
	corruptReg(v, "ExclusiveScan", r)
	if in != nil {
		// Exclusive identity: out[0] = id, out[i] = op(out[i-1], in[i-1]).
		out := gather(v, r)
		for i := range out {
			want := id
			if i > 0 {
				want = op(out[i-1], in[i-1])
			}
			if !reflect.DeepEqual(out[i], want) {
				panic(&AuditError{
					Geom:   v.m.geometry(),
					Op:     "ExclusiveScan",
					Detail: fmt.Sprintf("exclusive prefix identity broken at processor %d of %d", i, len(out)),
				})
			}
		}
	}
	v.charge(OpScan, v.scanCost())
}

// SegScan performs a segmented inclusive scan in row-major order: the prefix
// combination restarts at every cell whose head flag is true. This is the
// mesh "copy-scan" primitive used to duplicate a record across the group of
// processors following it (Nassimi–Sahni generalize). Cost: 2·(rows+cols).
func SegScan[T any](v View, r *Reg[T], head *Reg[bool], op func(a, b T) T) {
	v = v.begin(OpScan)
	var in []T
	if v.m.audit {
		in = gather(v, r)
	}
	rows, w := v.rowWalk()
	prev := r.data[v.Global(0)]
	for row := 0; row < rows; row++ {
		cells, heads := rowOf(v, r, row, w), rowOf(v, head, row, w)
		for c := range cells {
			switch {
			case row == 0 && c == 0:
			case heads[c]:
				prev = cells[c]
			default:
				prev = op(prev, cells[c])
				cells[c] = prev
			}
		}
	}
	corruptReg(v, "SegScan", r)
	if in != nil {
		auditScanIdentity(v, "SegScan", in, gather(v, r), gather(v, head), op)
	}
	v.charge(OpScan, v.scanCost())
}

// auditRotation verifies a row/column rotation against the pristine input:
// every cell must hold the word that the cyclic shift moves there. at maps a
// (line, position) pair to the view-local index; lines is the number of
// rotated lines, length their cell count, d the normalized shift.
func auditRotation[T any](v View, opName string, r *Reg[T], in []T, lines, length, d int,
	at func(line, pos int) int) {
	for l := 0; l < lines; l++ {
		for p := 0; p < length; p++ {
			got := r.data[v.Global(at(l, (p+d)%length))]
			if want := in[at(l, p)]; !reflect.DeepEqual(got, want) {
				panic(&AuditError{
					Geom:   v.m.geometry(),
					Op:     opName,
					Detail: fmt.Sprintf("rotation identity broken on line %d at position %d", l, (p+d)%length),
				})
			}
		}
	}
}

// RotateRows cyclically shifts every row of the view right by d positions
// (left for negative d). Cost: min(d mod cols, cols − d mod cols) — the
// sweep takes whichever direction is shorter, so a shift by cols−1 costs one
// step, and a full rotation costs (and does) nothing.
func RotateRows[T any](v View, r *Reg[T], d int) {
	v = v.begin(OpRotate)
	d = ((d % v.w) + v.w) % v.w
	if d == 0 {
		v.charge(OpRotate, 0)
		return
	}
	var in []T
	if v.m.audit {
		in = gather(v, r)
	}
	row := Checkout[T](v.m, v.w)
	for rr := 0; rr < v.h; rr++ {
		cells := rowOf(v, r, rr, v.w)
		for c := range cells {
			row[(c+d)%v.w] = cells[c]
		}
		copy(cells, row)
	}
	Release(v.m, row)
	corruptReg(v, "RotateRows", r)
	if in != nil {
		auditRotation(v, "RotateRows", r, in, v.h, v.w, d,
			func(line, pos int) int { return line*v.w + pos })
	}
	cost := d
	if v.w-d < cost {
		cost = v.w - d
	}
	v.charge(OpRotate, int64(cost))
}

// RotateCols cyclically shifts every column of the view down by d positions
// (up for negative d). Cost: min(d mod rows, rows − d mod rows), the shorter
// sweep direction (see RotateRows).
func RotateCols[T any](v View, r *Reg[T], d int) {
	v = v.begin(OpRotate)
	d = ((d % v.h) + v.h) % v.h
	if d == 0 {
		v.charge(OpRotate, 0)
		return
	}
	var in []T
	if v.m.audit {
		in = gather(v, r)
	}
	col := Checkout[T](v.m, v.h)
	for c := 0; c < v.w; c++ {
		for rr := 0; rr < v.h; rr++ {
			col[(rr+d)%v.h] = r.data[v.Global(rr*v.w+c)]
		}
		for rr := 0; rr < v.h; rr++ {
			r.data[v.Global(rr*v.w+c)] = col[rr]
		}
	}
	Release(v.m, col)
	corruptReg(v, "RotateCols", r)
	if in != nil {
		auditRotation(v, "RotateCols", r, in, v.w, v.h, d,
			func(line, pos int) int { return pos*v.w + line })
	}
	cost := d
	if v.h-d < cost {
		cost = v.h - d
	}
	v.charge(OpRotate, int64(cost))
}

// Count returns the number of processors in the view whose value satisfies
// pred. Cost: one reduce (rows+cols).
//
// Fault model: the tally register latches cell src's index in place of the
// count. Audit mode recounts and compares.
func Count[T any](v View, r *Reg[T], pred func(*T) bool) int {
	v = v.begin(OpReduce)
	n := v.Size()
	c := count(v, r, pred)
	if inj := v.m.inj; inj != nil {
		if s, _, ok := inj.CorruptCell("Count", n); ok && s >= 0 && s < n {
			c = s
		}
	}
	if v.m.audit {
		if ref := count(v, r, pred); c != ref {
			panic(&AuditError{
				Geom:   v.m.geometry(),
				Op:     "Count",
				Detail: fmt.Sprintf("count %d differs from reference recount %d", c, ref),
			})
		}
	}
	v.charge(OpReduce, v.reduceCost())
	return c
}

// count tallies the view's cells of r that satisfy pred.
func count[T any](v View, r *Reg[T], pred func(*T) bool) int {
	rows, w := v.rowWalk()
	c := 0
	for row := 0; row < rows; row++ {
		cells := rowOf(v, r, row, w)
		for i := range cells {
			if pred(&cells[i]) {
				c++
			}
		}
	}
	return c
}
