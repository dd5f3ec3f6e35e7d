package mesh

import "testing"

func TestApply2(t *testing.T) {
	m := New(4)
	a := NewReg[int](m)
	b := NewReg[int](m)
	v := m.Root()
	for i := 0; i < v.Size(); i++ {
		Set(v, a, i, i*10)
		Set(v, b, i, 1)
	}
	Apply2(v, a, b, func(local int, av, bv *int) { *bv += *av + local })
	for i := 0; i < v.Size(); i++ {
		if got := At(v, b, i); got != i*10+1+i {
			t.Fatalf("cell %d = %d", i, got)
		}
	}
	if m.Steps() != 1 {
		t.Fatalf("Apply2 cost %d", m.Steps())
	}
}

func TestMeshAccessors(t *testing.T) {
	m := New(8, WithCostModel(CostTheoretical), WithParallelism(0))
	if m.Model() != CostTheoretical {
		t.Fatal("Model")
	}
	v := m.Root()
	if v.Mesh() != m {
		t.Fatal("View.Mesh")
	}
	if cap(m.sem) != 1 {
		t.Fatal("WithParallelism clamps to 1")
	}
}

func TestScanScratchRev(t *testing.T) {
	m := New(2)
	v := m.Root()
	// Segments in reverse order: heads (in reverse scan) at indices 3 and 1.
	xs := []int{1, 2, 3, 4}
	ScanScratchRev(v, xs, 1,
		func(i int) bool { return i == 3 || i == 1 },
		func(a, b int) int { return a + b })
	// Reverse scan: x[3]=4 (head), x[2]=x[3]+3=7, x[1]=2 (head), x[0]=3.
	want := []int{3, 2, 7, 4}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("xs[%d]=%d want %d", i, xs[i], want[i])
		}
	}
}

func TestScanScratchRevOverflowPanics(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ScanScratchRev(m.Root(), make([]int, 5), 1, func(int) bool { return false },
		func(a, b int) int { return a })
}

func TestRouteTo(t *testing.T) {
	m := New(4)
	src := NewReg[int](m)
	dst := NewReg[int](m)
	v := m.Root()
	for i := 0; i < v.Size(); i++ {
		Set(v, src, i, 100+i)
		Set(v, dst, i, -1)
	}
	RouteTo(v, src, dst, func(i int, _ *int) (int, bool) {
		return v.Size() - 1 - i, i%2 == 0
	})
	for i := 0; i < v.Size(); i++ {
		j := v.Size() - 1 - i
		if i%2 == 0 {
			if At(v, dst, j) != 100+i {
				t.Fatalf("dst[%d]=%d", j, At(v, dst, j))
			}
		}
	}
	// Source untouched.
	if At(v, src, 0) != 100 {
		t.Fatal("source modified")
	}
	// Unrouted dst cells keep their value.
	if At(v, dst, v.Size()-2) != -1 && At(v, dst, 1) != -1 {
		t.Fatal("unrouted cells modified")
	}
}

func TestRouteToCollisionPanics(t *testing.T) {
	m := New(2)
	src := NewReg[int](m)
	dst := NewReg[int](m)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RouteTo(m.Root(), src, dst, func(int, *int) (int, bool) { return 0, true })
}

func TestRouteToOutOfRangePanics(t *testing.T) {
	m := New(2)
	src := NewReg[int](m)
	dst := NewReg[int](m)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RouteTo(m.Root(), src, dst, func(int, *int) (int, bool) { return -1, true })
}

func TestRouteScratch(t *testing.T) {
	m := New(2)
	v := m.Root()
	src := []int{10, 20, 30}
	dst, occ := RouteScratch(v, src, 6, 2, func(i int) int { return 2 * i })
	for i := range src {
		if dst[2*i] != src[i] || !occ[2*i] {
			t.Fatalf("dst[%d]=%d occ=%v", 2*i, dst[2*i], occ[2*i])
		}
	}
	if occ[1] || occ[3] || occ[5] {
		t.Fatal("gaps marked occupied")
	}
}

func TestRouteScratchPanics(t *testing.T) {
	m := New(2)
	v := m.Root()
	for name, f := range map[string]func(){
		"overflow": func() { RouteScratch(v, []int{1}, 9, 2, func(int) int { return 0 }) },
		"range":    func() { RouteScratch(v, []int{1}, 4, 2, func(int) int { return 9 }) },
		"collide":  func() { RouteScratch(v, []int{1, 2}, 4, 2, func(int) int { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLoadOverflowPanics(t *testing.T) {
	m := New(2)
	r := NewReg[int](m)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Load(m.Root(), r, make([]int, 5))
}

func TestScanScratchOverflowPanics(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ScanScratch(m.Root(), make([]int, 5), 1, func(int) bool { return false },
		func(a, b int) int { return a })
}
