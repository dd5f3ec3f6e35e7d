package mesh

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// intKey and int64Key are the order-preserving sort words of signed test
// values.
func intKey(x int) uint64     { return uint64(x) ^ 1<<63 }
func int64Key(x int64) uint64 { return uint64(x) ^ 1<<63 }

func TestSortRowMajor(t *testing.T) {
	m := New(8)
	r := NewReg[int](m)
	v := m.Root().Sub(0, 0, 4, 4)
	xs := intsOnView(v, r, 10)
	Sort(v, r, intKey)
	want := append([]int(nil), xs...)
	sort.Ints(want)
	got := Snapshot(v, r)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted[%d]=%d want %d", i, got[i], want[i])
		}
	}
}

func TestSortStability(t *testing.T) {
	m := New(4)
	type kv struct{ k, seq int }
	r := NewReg[kv](m)
	v := m.Root()
	for i := 0; i < v.Size(); i++ {
		Set(v, r, i, kv{k: i % 3, seq: i})
	}
	Sort(v, r, func(x kv) uint64 { return intKey(x.k) })
	prev := kv{-1, -1}
	for i := 0; i < v.Size(); i++ {
		cur := At(v, r, i)
		if cur.k < prev.k || (cur.k == prev.k && cur.seq < prev.seq) {
			t.Fatalf("instability at %d: %+v after %+v", i, cur, prev)
		}
		prev = cur
	}
}

func TestSortSnakeOrder(t *testing.T) {
	m := New(4)
	r := NewReg[int](m)
	v := m.Root()
	intsOnView(v, r, 11)
	SortSnake(v, r, intKey)
	// Read back in snake order; must be nondecreasing.
	prev := -1 << 30
	for row := 0; row < v.Rows(); row++ {
		for c := 0; c < v.Cols(); c++ {
			col := c
			if row%2 == 1 {
				col = v.Cols() - 1 - c
			}
			x := At(v, r, row*v.Cols()+col)
			if x < prev {
				t.Fatalf("snake order violated at row %d", row)
			}
			prev = x
		}
	}
}

func TestSortIsPermutation(t *testing.T) {
	m := New(8)
	r := NewReg[int](m)
	v := m.Root()
	xs := intsOnView(v, r, 12)
	Sort(v, r, intKey)
	got := Snapshot(v, r)
	count := map[int]int{}
	for _, x := range xs {
		count[x]++
	}
	for _, x := range got {
		count[x]--
	}
	for k, c := range count {
		if c != 0 {
			t.Fatalf("value %d count off by %d", k, c)
		}
	}
}

func TestSortCostFormulas(t *testing.T) {
	// Counted: (⌈log₂h⌉+1)(h+w) + w. Theoretical: 3·max(h,w) + w.
	m := New(16)
	r := NewReg[int](m)
	v := m.Root()
	intsOnView(v, r, 13)
	Sort(v, r, intKey)
	want := int64((log2Ceil(16)+1)*(16+16) + 16)
	if m.Steps() != want {
		t.Fatalf("counted sort cost %d want %d", m.Steps(), want)
	}

	mt := New(16, WithCostModel(CostTheoretical))
	rt := NewReg[int](mt)
	vt := mt.Root()
	intsOnView(vt, rt, 13)
	Sort(vt, rt, intKey)
	if mt.Steps() != int64(3*16+16) {
		t.Fatalf("theoretical sort cost %d", mt.Steps())
	}
}

// shearsortExact executes shearsort phase by phase with genuine odd-even
// transposition rounds, counting real steps. It validates that the analytic
// charge in sortCost is an upper bound on the machine's true behaviour and
// that the final state matches the functional Sort.
func shearsortExact(h, w int, xs []int) (out []int, steps int64) {
	grid := make([][]int, h)
	for r := range grid {
		grid[r] = append([]int(nil), xs[r*w:(r+1)*w]...)
	}
	oddEvenRow := func(row []int, rev bool) int64 {
		var s int64
		for round := 0; round < len(row); round++ {
			start := round % 2
			for i := start; i+1 < len(row); i += 2 {
				a, b := row[i], row[i+1]
				if (!rev && a > b) || (rev && a < b) {
					row[i], row[i+1] = b, a
				}
			}
			s++
		}
		return s
	}
	phases := log2Ceil(h) + 1
	for p := 0; p < phases; p++ {
		var rowSteps int64
		for r := 0; r < h; r++ {
			s := oddEvenRow(grid[r], r%2 == 1)
			if s > rowSteps {
				rowSteps = s
			}
		}
		steps += rowSteps
		if p == phases-1 {
			break
		}
		col := make([]int, h)
		var colSteps int64
		for c := 0; c < w; c++ {
			for r := 0; r < h; r++ {
				col[r] = grid[r][c]
			}
			s := oddEvenRow(col, false)
			if s > colSteps {
				colSteps = s
			}
			for r := 0; r < h; r++ {
				grid[r][c] = col[r]
			}
		}
		steps += colSteps
	}
	out = make([]int, 0, h*w)
	for r := 0; r < h; r++ {
		if r%2 == 0 {
			out = append(out, grid[r]...)
		} else {
			for c := w - 1; c >= 0; c-- {
				out = append(out, grid[r][c])
			}
		}
	}
	return out, steps
}

func TestShearsortReferenceSortsAndMatchesCharge(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, side := range []int{2, 4, 8, 16} {
		xs := make([]int, side*side)
		for i := range xs {
			xs[i] = rng.Intn(100)
		}
		out, steps := shearsortExact(side, side, xs)
		for i := 1; i < len(out); i++ {
			if out[i-1] > out[i] {
				t.Fatalf("side %d: reference shearsort failed at %d", side, i)
			}
		}
		m := New(side)
		charge := m.Root().sortCost()
		if steps > charge {
			t.Fatalf("side %d: real steps %d exceed charge %d", side, steps, charge)
		}
		// The charge should be tight within a small constant.
		if charge > 2*steps+int64(4*side) {
			t.Fatalf("side %d: charge %d loose vs real %d", side, charge, steps)
		}
	}
}

// Property: shearsort reference output equals a plain sort for arbitrary
// inputs — the functional Sort and the machine agree.
func TestQuickShearsortEqualsSort(t *testing.T) {
	f := func(raw [16]uint8) bool {
		xs := make([]int, 16)
		for i, x := range raw {
			xs[i] = int(x)
		}
		out, _ := shearsortExact(4, 4, xs)
		want := append([]int(nil), xs...)
		sort.Ints(want)
		for i := range want {
			if out[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortScratchPanicsOnOverflow(t *testing.T) {
	m := New(2)
	v := m.Root()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SortScratch(v, make([]int, 9), 2, intKey)
}
