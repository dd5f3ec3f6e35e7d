package mesh

import (
	"testing"
)

func TestNewValidatesSide(t *testing.T) {
	for _, side := range []int{1, 2, 4, 64} {
		m := New(side)
		if m.Side() != side || m.N() != side*side {
			t.Fatalf("New(%d): side=%d n=%d", side, m.Side(), m.N())
		}
	}
	for _, side := range []int{0, -4, 3, 6, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", side)
				}
			}()
			New(side)
		}()
	}
}

func TestViewIndexing(t *testing.T) {
	m := New(8)
	v := m.Root().Sub(2, 4, 4, 2) // rows 2..5, cols 4..5
	if v.Rows() != 4 || v.Cols() != 2 || v.Size() != 8 {
		t.Fatalf("geometry: %dx%d", v.Rows(), v.Cols())
	}
	// local 3 -> local (1,1) -> global (3,5) -> 3*8+5
	if g := v.Global(3); g != 3*8+5 {
		t.Fatalf("Global(3)=%d", g)
	}
	if l, ok := v.Local(3*8 + 5); !ok || l != 3 {
		t.Fatalf("Local=%d,%v", l, ok)
	}
	if _, ok := v.Local(0); ok {
		t.Fatal("Local(0) should be outside the view")
	}
	r0, c0 := v.Origin()
	if r0 != 2 || c0 != 4 {
		t.Fatalf("Origin=(%d,%d)", r0, c0)
	}
}

func TestPartitionCoversDisjointly(t *testing.T) {
	m := New(16)
	subs := m.Root().Partition(4, 4)
	if len(subs) != 16 {
		t.Fatalf("len=%d", len(subs))
	}
	seen := make(map[int]bool)
	for _, s := range subs {
		if s.Rows() != 4 || s.Cols() != 4 {
			t.Fatalf("sub geometry %dx%d", s.Rows(), s.Cols())
		}
		for i := 0; i < s.Size(); i++ {
			g := s.Global(i)
			if seen[g] {
				t.Fatalf("processor %d covered twice", g)
			}
			seen[g] = true
		}
	}
	if len(seen) != m.N() {
		t.Fatalf("coverage %d of %d", len(seen), m.N())
	}
}

func TestPartitionPanicsOnNonDivisor(t *testing.T) {
	m := New(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Root().Partition(3, 3)
}

func TestRegGatherScatterRoundTrip(t *testing.T) {
	m := New(8)
	r := NewReg[int](m)
	v := m.Root().Sub(1, 2, 3, 4)
	in := make([]int, v.Size())
	for i := range in {
		in[i] = 100 + i
	}
	Load(v, r, in)
	out := Snapshot(v, r)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("round trip at %d: %d != %d", i, out[i], in[i])
		}
	}
	// Cells outside the view untouched (zero).
	if got := At(m.Root(), r, 0); got != 0 {
		t.Fatalf("outside cell modified: %d", got)
	}
}

func TestFillAndApplyChargeOneStep(t *testing.T) {
	m := New(4)
	r := NewReg[int](m)
	v := m.Root()
	Fill(v, r, 7)
	if m.Steps() != 1 {
		t.Fatalf("Fill cost %d", m.Steps())
	}
	Apply(v, r, func(i int, cur *int) { *cur += i })
	if m.Steps() != 2 {
		t.Fatalf("Apply cost %d", m.Steps())
	}
	for i := 0; i < v.Size(); i++ {
		if At(v, r, i) != 7+i {
			t.Fatalf("cell %d = %d", i, At(v, r, i))
		}
	}
}

func TestRunParallelChargesMax(t *testing.T) {
	m := New(8)
	v := m.Root()
	subs := v.Partition(2, 2)
	v.RunParallel(subs, func(i int, sub View) {
		sub.Charge(int64(10 * (i + 1)))
	})
	if m.Steps() != 40 {
		t.Fatalf("parallel cost = %d, want max=40", m.Steps())
	}
}

func TestRunSequentialChargesSum(t *testing.T) {
	m := New(8)
	v := m.Root()
	subs := v.Partition(2, 2)
	v.RunSequential(subs, func(i int, sub View) {
		sub.Charge(int64(10 * (i + 1)))
	})
	if m.Steps() != 100 {
		t.Fatalf("sequential cost = %d, want sum=100", m.Steps())
	}
}

func TestRunParallelNestedDoesNotDeadlock(t *testing.T) {
	m := New(32, WithParallelism(2))
	v := m.Root()
	outer := v.Partition(4, 4)
	v.RunParallel(outer, func(_ int, sub View) {
		inner := sub.Partition(2, 2)
		sub.RunParallel(inner, func(_ int, s2 View) {
			s2.Charge(1)
		})
	})
	if m.Steps() != 1 {
		t.Fatalf("nested parallel cost = %d, want 1", m.Steps())
	}
}

func TestRunParallelBodiesSeeDisjointRegions(t *testing.T) {
	m := New(16)
	r := NewReg[int](m)
	v := m.Root()
	subs := v.Partition(4, 4)
	v.RunParallel(subs, func(idx int, sub View) {
		Fill(sub, r, idx)
	})
	for idx, sub := range v.Partition(4, 4) {
		for i := 0; i < sub.Size(); i++ {
			if At(sub, r, i) != idx {
				t.Fatalf("sub %d cell %d = %d", idx, i, At(sub, r, i))
			}
		}
	}
}

// A RunParallel call must allocate the same however many of its bodies
// find a free worker slot: otherwise allocations per round rise as rounds
// get faster and slots free up sooner. AllocsPerRun runs on one P, so no
// spawned worker runs before the caller has tried every slot: one worker
// spawns at parallelism 1, two at parallelism 2.
func TestRunParallelAllocsIndependentOfSpawns(t *testing.T) {
	allocs := func(parallelism int) float64 {
		m := New(16, WithParallelism(parallelism))
		v := m.Root()
		r := NewReg[int64](m)
		subs := v.Partition(2, 2)
		call := func() {
			v.RunParallel(subs, func(i int, sub View) {
				Apply(sub, r, func(j int, cur *int64) { *cur = int64((j*7919 + i) % 97) })
				Sort(sub, r, int64Key)
			})
		}
		call()
		return testing.AllocsPerRun(50, call)
	}
	if a1, a2 := allocs(1), allocs(2); a1 != a2 {
		t.Errorf("RunParallel allocates %.0f per call at parallelism 1, %.0f at parallelism 2; want equal", a1, a2)
	}
}

func TestCostModelString(t *testing.T) {
	if CostCounted.String() != "counted" || CostTheoretical.String() != "theoretical" {
		t.Fatal("CostModel strings")
	}
	if CostModel(9).String() == "" {
		t.Fatal("unknown model string empty")
	}
}

func TestTheoreticalSortCheaperThanCounted(t *testing.T) {
	for _, side := range []int{4, 16, 64, 256} {
		mc := New(side)
		mt := New(side, WithCostModel(CostTheoretical))
		if mt.Root().SortCost() > mc.Root().SortCost() {
			t.Fatalf("side %d: theoretical %d > counted %d",
				side, mt.Root().SortCost(), mc.Root().SortCost())
		}
	}
}

func TestResetSteps(t *testing.T) {
	m := New(4)
	m.Root().Charge(5)
	if m.Steps() != 5 {
		t.Fatal("charge")
	}
	m.ResetSteps()
	if m.Steps() != 0 {
		t.Fatal("reset")
	}
}

func TestChargePanicsOnNegative(t *testing.T) {
	m := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Root().Charge(-1)
}

func TestSubPanicsOutOfBounds(t *testing.T) {
	m := New(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Root().Sub(4, 4, 8, 8)
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for x, want := range cases {
		if got := log2Ceil(x); got != want {
			t.Errorf("log2Ceil(%d)=%d want %d", x, got, want)
		}
	}
}
