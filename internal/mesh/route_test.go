package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// cellValues materializes f over n processors, so that a RAR's value
// callback can point at each record's value where it lies.
func cellValues[V any](n int, f func(i int) V) []V {
	vals := make([]V, n)
	for i := range vals {
		vals[i] = f(i)
	}
	return vals
}

func TestRARBasicGather(t *testing.T) {
	m := New(4)
	v := m.Root()
	// Processor i holds record (key=i*10, val=i*100); every processor
	// requests key ((i+3) mod 16)*10.
	got := make([]int, v.Size())
	vals := cellValues(v.Size(), func(i int) int { return i * 100 })
	RAR(v,
		func(i int) (int32, bool) { return int32(i * 10), true },
		func(i int) *int { return &vals[i] },
		func(i int) (int32, bool) { return int32(((i + 3) % 16) * 10), true },
		func(i int, val *int, found bool) {
			if !found {
				t.Fatalf("request %d not found", i)
			}
			got[i] = *val
		})
	for i := range got {
		if got[i] != ((i+3)%16)*100 {
			t.Fatalf("req %d got %d", i, got[i])
		}
	}
}

func TestRARConcurrentReads(t *testing.T) {
	m := New(8)
	v := m.Root()
	// One record (key 7) read by all 64 requests: the congestion case the
	// copy-scan resolves.
	hits := 0
	rec := 4242
	RAR(v,
		func(i int) (int32, bool) { return 7, i == 42 },
		func(i int) *int { return &rec },
		func(i int) (int32, bool) { return 7, true },
		func(i int, val *int, found bool) {
			if found && *val == 4242 {
				hits++
			}
		})
	if hits != v.Size() {
		t.Fatalf("hits=%d want %d", hits, v.Size())
	}
}

func TestRARMissingKey(t *testing.T) {
	m := New(2)
	v := m.Root()
	misses := 0
	vals := cellValues(v.Size(), func(i int) int { return i })
	RAR(v,
		func(i int) (int32, bool) { return int32(i), i < 2 },
		func(i int) *int { return &vals[i] },
		func(i int) (int32, bool) { return int32(i), true },
		func(i int, val *int, found bool) {
			if !found {
				if val != nil {
					t.Fatalf("req %d: missing key delivered a value", i)
				}
				misses++
			} else if *val != i {
				t.Fatalf("req %d got %d", i, *val)
			}
		})
	if misses != 2 {
		t.Fatalf("misses=%d want 2", misses)
	}
}

func TestRARNoRequests(t *testing.T) {
	m := New(2)
	v := m.Root()
	vals := cellValues(v.Size(), func(i int) int { return i })
	RAR(v,
		func(i int) (int32, bool) { return int32(i), true },
		func(i int) *int { return &vals[i] },
		func(i int) (int32, bool) { return 0, false },
		func(i int, val *int, found bool) { t.Fatal("no deliveries expected") })
}

// Property: RAR equals a reference map-based gather for arbitrary sparse
// records and requests with arbitrary duplication.
func TestQuickRARMatchesReferenceGather(t *testing.T) {
	m := New(4)
	v := m.Root()
	vals := cellValues(v.Size(), func(i int) int { return i * 1000 })
	f := func(recKeys [16]uint8, recMask uint16, reqKeys [16]uint8) bool {
		ref := map[int32]int{}
		for i := 0; i < 16; i++ {
			if recMask&(1<<i) != 0 {
				k := int32(recKeys[i] % 8)
				if _, dup := ref[k]; dup {
					return true // skip duplicate-record-key draws
				}
				ref[k] = i * 1000
			}
		}
		ok := true
		RAR(v,
			func(i int) (int32, bool) { return int32(recKeys[i] % 8), recMask&(1<<i) != 0 },
			func(i int) *int { return &vals[i] },
			func(i int) (int32, bool) { return int32(reqKeys[i] % 8), true },
			func(i int, val *int, found bool) {
				want, exists := ref[int32(reqKeys[i]%8)]
				if found != exists || (found && *val != want) {
					ok = false
				}
			})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRARCostIsConstantNumberOfSorts(t *testing.T) {
	m := New(16)
	v := m.Root()
	vals := cellValues(v.Size(), func(i int) int { return i })
	RAR(v,
		func(i int) (int32, bool) { return int32(i), true },
		func(i int) *int { return &vals[i] },
		func(i int) (int32, bool) { return int32(i), true },
		func(i int, val *int, found bool) {})
	// 1 double sort + 1 double scan + 1 single sort + 1 step, per route.go.
	want := v.doubleSortCost() + 2*v.scanCost() + v.rowMajorSortCost() + 1
	if m.Steps() != want {
		t.Fatalf("RAR cost %d want %d", m.Steps(), want)
	}
}

func TestRoutePermutation(t *testing.T) {
	m := New(4)
	r := NewReg[int](m)
	v := m.Root()
	for i := 0; i < v.Size(); i++ {
		Set(v, r, i, i)
	}
	// Reverse the mesh.
	Route(v, r, -1, func(i int, _ *int) (int, bool) { return v.Size() - 1 - i, true })
	for i := 0; i < v.Size(); i++ {
		if At(v, r, i) != v.Size()-1-i {
			t.Fatalf("cell %d = %d", i, At(v, r, i))
		}
	}
}

func TestRoutePartialLeavesClear(t *testing.T) {
	m := New(4)
	r := NewReg[int](m)
	v := m.Root()
	for i := 0; i < v.Size(); i++ {
		Set(v, r, i, 100+i)
	}
	// Move cell 0 to cell 8; cell 0 becomes clear, others untouched.
	Route(v, r, -1, func(i int, _ *int) (int, bool) { return 8, i == 0 })
	if At(v, r, 0) != -1 {
		t.Fatalf("source not cleared: %d", At(v, r, 0))
	}
	if At(v, r, 8) != 100 {
		t.Fatalf("dest=%d", At(v, r, 8))
	}
	if At(v, r, 3) != 103 {
		t.Fatalf("bystander=%d", At(v, r, 3))
	}
}

func TestRouteCollisionPanics(t *testing.T) {
	m := New(2)
	r := NewReg[int](m)
	v := m.Root()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Route(v, r, 0, func(int, *int) (int, bool) { return 0, true })
}

func TestRouteOutOfRangePanics(t *testing.T) {
	m := New(2)
	r := NewReg[int](m)
	v := m.Root()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Route(v, r, 0, func(int, *int) (int, bool) { return 99, true })
}

func TestConcentrate(t *testing.T) {
	m := New(4)
	r := NewReg[int](m)
	v := m.Root()
	rng := rand.New(rand.NewSource(21))
	vals := make([]int, v.Size())
	for i := range vals {
		vals[i] = rng.Intn(50)
	}
	Load(v, r, vals)
	k := Concentrate(v, r, -1, func(x int) bool { return x%2 == 0 })
	var want []int
	for _, x := range vals {
		if x%2 == 0 {
			want = append(want, x)
		}
	}
	if k != len(want) {
		t.Fatalf("k=%d want %d", k, len(want))
	}
	for i, x := range want {
		if At(v, r, i) != x {
			t.Fatalf("concentrated[%d]=%d want %d (order must be preserved)", i, At(v, r, i), x)
		}
	}
	for i := k; i < v.Size(); i++ {
		if At(v, r, i) != -1 {
			t.Fatalf("tail cell %d not cleared", i)
		}
	}
}

func TestBroadcastBlock(t *testing.T) {
	m := New(8)
	r := NewReg[int](m)
	v := m.Root()
	subs := v.Partition(2, 2)
	block := []int{7, 8, 9}
	BroadcastBlock(v, r, block, subs)
	for si, s := range subs {
		for i, want := range block {
			if At(s, r, i) != want {
				t.Fatalf("sub %d cell %d = %d", si, i, At(s, r, i))
			}
		}
	}
	if m.Steps() != int64(2*(8+8)) {
		t.Fatalf("cost %d", m.Steps())
	}
}

func TestBroadcastBlockOverflowPanics(t *testing.T) {
	m := New(4)
	r := NewReg[int](m)
	subs := m.Root().Partition(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BroadcastBlock(m.Root(), r, make([]int, 5), subs)
}

func TestScanScratchSegmented(t *testing.T) {
	m := New(2)
	v := m.Root()
	xs := []int{1, 2, 3, 4, 5, 6}
	ScanScratch(v, xs, 2, func(i int) bool { return i == 0 || i == 3 },
		func(a, b int) int { return a + b })
	want := []int{1, 3, 6, 4, 9, 15}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("xs[%d]=%d want %d", i, xs[i], want[i])
		}
	}
}
