package mesh

import (
	"fmt"
	"testing"
)

// rowWalkViews are sub-views on a side-8 mesh: a narrow view whose width is
// not a power of two, a whole-row view at a nonzero origin, a narrow
// power-of-two view, and a narrow view on the left edge.
var rowWalkViews = []struct{ r0, c0, h, w int }{
	{1, 2, 3, 5},
	{4, 0, 4, 8},
	{5, 6, 2, 2},
	{2, 0, 3, 4},
}

// cellOf is the global index of view-local cell i, computed independently
// of View.Global.
func cellOf(side, r0, c0, w, i int) int { return (r0+i/w)*side + c0 + i%w }

// TestRowWalksOnSubViews runs every row-walking primitive on sub-views at
// nonzero origins: each must visit exactly the view's cells, in local
// row-major order, handing callbacks the cell itself, and leave every other
// cell of the register unchanged.
func TestRowWalksOnSubViews(t *testing.T) {
	const side = 8
	for _, g := range rowWalkViews {
		t.Run(fmt.Sprintf("%dx%d at (%d,%d)", g.h, g.w, g.r0, g.c0), func(t *testing.T) {
			m := New(side)
			sub := m.Root().Sub(g.r0, g.c0, g.h, g.w)
			n := sub.Size()
			at := func(i int) int { return cellOf(side, g.r0, g.c0, g.w, i) }
			inView := map[int]int{} // global cell → local index
			for i := 0; i < n; i++ {
				inView[at(i)] = i
			}
			orig := make([]int, side*side)
			for c := range orig {
				orig[c] = 1000 + c
			}
			fresh := func() *Reg[int] {
				r := NewReg[int](m)
				copy(r.data, orig)
				return r
			}
			// check compares r against want for the view's cells and against
			// orig everywhere else.
			check := func(op string, r *Reg[int], want func(local int) int) {
				t.Helper()
				for c, got := range r.data {
					if i, ok := inView[c]; ok {
						if w := want(i); got != w {
							t.Errorf("%s: cell %d (local %d) = %d, want %d", op, c, i, got, w)
						}
					} else if got != orig[c] {
						t.Errorf("%s: cell %d outside the view changed to %d", op, c, got)
					}
				}
			}
			// checkOrder verifies that a callback saw every local index
			// once, in row-major order.
			checkOrder := func(op string, locals []int) {
				t.Helper()
				if len(locals) != n {
					t.Fatalf("%s: %d callbacks, want %d", op, len(locals), n)
				}
				for k, i := range locals {
					if i != k {
						t.Fatalf("%s: callback %d saw local %d, want row-major order", op, k, i)
					}
				}
			}

			r := fresh()
			Fill(sub, r, -7)
			check("Fill", r, func(int) int { return -7 })

			r = fresh()
			var seen []int
			Apply(sub, r, func(i int, cur *int) {
				if *cur != orig[at(i)] {
					t.Fatalf("Apply: local %d handed cell holding %d, want %d", i, *cur, orig[at(i)])
				}
				seen = append(seen, i)
				*cur = -i
			})
			checkOrder("Apply", seen)
			check("Apply", r, func(i int) int { return -i })

			a, b := fresh(), fresh()
			for c := range a.data {
				a.data[c] = 5000 + c
			}
			aOrig := append([]int(nil), a.data...)
			seen = nil
			Apply2(sub, a, b, func(i int, av, bv *int) {
				if *av != aOrig[at(i)] || *bv != orig[at(i)] {
					t.Fatalf("Apply2: local %d handed cells holding %d, %d", i, *av, *bv)
				}
				seen = append(seen, i)
				*bv = *av + i
			})
			checkOrder("Apply2", seen)
			check("Apply2", b, func(i int) int { return aOrig[at(i)] + i })
			for c := range a.data {
				if a.data[c] != aOrig[c] {
					t.Fatalf("Apply2 wrote its read-only register at cell %d", c)
				}
			}

			r = fresh()
			var vals []int
			got := Count(sub, r, func(x *int) bool {
				vals = append(vals, *x)
				return *x%2 == 0
			})
			want := 0
			for i := 0; i < n; i++ {
				if vals[i] != orig[at(i)] {
					t.Fatalf("Count: predicate %d read %d, want cell %d's %d", i, vals[i], at(i), orig[at(i)])
				}
				if orig[at(i)]%2 == 0 {
					want++
				}
			}
			if len(vals) != n || got != want {
				t.Errorf("Count = %d over %d cells, want %d over %d", got, len(vals), want, n)
			}
			check("Count", r, func(i int) int { return orig[at(i)] })

			r = fresh()
			Broadcast(sub, r, n-1)
			check("Broadcast", r, func(int) int { return orig[at(n-1)] })

			r = fresh()
			Scan(sub, r, func(x, y int) int { return x + y })
			check("Scan", r, func(i int) int {
				s := 0
				for j := 0; j <= i; j++ {
					s += orig[at(j)]
				}
				return s
			})

			// The other register walks, with order-sensitive operators.
			r = fresh()
			fold := func(x, y int) int { return (x*31 + y) % 1000003 }
			wantFold := orig[at(0)]
			for i := 1; i < n; i++ {
				wantFold = fold(wantFold, orig[at(i)])
			}
			if got := Reduce(sub, r, fold); got != wantFold {
				t.Errorf("Reduce = %d, want %d", got, wantFold)
			}
			ExclusiveScan(sub, r, 0, fold)
			check("ExclusiveScan", r, func(i int) int {
				acc := 0
				for j := 0; j < i; j++ {
					acc = fold(acc, orig[at(j)])
				}
				return acc
			})
			r, heads := fresh(), NewReg[bool](m)
			for i := 0; i < n; i += 3 {
				heads.data[at(i)] = true
			}
			SegScan(sub, r, heads, fold)
			check("SegScan", r, func(i int) int { return segPrefix(orig, at, heads.data, i, fold) })
			r = fresh()
			xs := Snapshot(sub, r)
			for i, x := range xs {
				if x != orig[at(i)] {
					t.Fatalf("Snapshot[%d] = %d, want cell %d's %d", i, x, at(i), orig[at(i)])
				}
				xs[i] = -x
			}
			Load(sub, r, xs[:n-1])
			check("Load", r, func(i int) int {
				if i < n-1 {
					return -orig[at(i)]
				}
				return orig[at(i)]
			})

			src, dst := fresh(), fresh()
			seen = nil
			RouteTo(sub, src, dst, func(i int, val *int) (int, bool) {
				if *val != orig[at(i)] {
					t.Fatalf("RouteTo: local %d handed cell holding %d, want %d", i, *val, orig[at(i)])
				}
				seen = append(seen, i)
				return n - 1 - i, i%2 == 0
			})
			checkOrder("RouteTo", seen)
			check("RouteTo", dst, func(i int) int {
				if j := n - 1 - i; j%2 == 0 {
					return orig[at(j)]
				}
				return orig[at(i)]
			})
			check("RouteTo source", src, func(i int) int { return orig[at(i)] })
		})
	}
}

// segPrefix is the segmented inclusive prefix of view-local cell i: the
// fold from the nearest segment head at or before i.
func segPrefix(orig []int, at func(int) int, head []bool, i int, op func(a, b int) int) int {
	h := i
	for h > 0 && !head[at(h)] {
		h--
	}
	acc := orig[at(h)]
	for j := h + 1; j <= i; j++ {
		acc = op(acc, orig[at(j)])
	}
	return acc
}
