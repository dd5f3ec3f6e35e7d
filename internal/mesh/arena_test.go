package mesh

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
)

// The arena must hand back the same backing store it was given: that is the
// whole point of the pool.
func TestCheckoutReuse(t *testing.T) {
	m := New(8)
	s1 := Checkout[int64](m, 10)
	if len(s1) != 10 || cap(s1) < 2*m.N() {
		t.Fatalf("Checkout len=%d cap=%d, want len 10 cap ≥ %d", len(s1), cap(s1), 2*m.N())
	}
	p1 := &s1[:1][0]
	Release(m, s1)
	s2 := Checkout[int64](m, 5)
	if &s2[:1][0] != p1 {
		t.Fatal("Checkout after Release did not reuse the buffer")
	}
	Release(m, s2)
	// Distinct element types get distinct pools.
	s3 := Checkout[int32](m, 5)
	Release(m, s3)
}

// Steady-state RAR must not allocate: the seed allocated its 2m-item bank
// and several sort.SliceStable artifacts on every call (7 allocs/op at
// side 64), which made the GC dominate multistep-heavy runs. The bar is
// ≥ 5× fewer, i.e. ≤ 1. It holds for a graph.Vertex-sized value too: the
// bank carries keys and indices, never the values.
func TestRARAllocsSteadyState(t *testing.T) {
	m := New(64)
	v := m.Root()
	verts := make([]graph.Vertex, m.N())
	vals := cellValues(m.N(), func(i int) int64 { return int64(i) * 3 })
	cases := []struct {
		name  string
		doRAR func()
	}{
		{"int64", func() {
			RAR(v,
				func(i int) (int32, bool) { return int32(i), true },
				func(i int) *int64 { return &vals[i] },
				func(i int) (int32, bool) { return int32((i * 7) % v.Size()), true },
				func(i int, val *int64, found bool) {},
			)
		}},
		{"graph.Vertex", func() {
			RAR(v,
				func(i int) (int32, bool) { return int32(i), true },
				func(i int) *graph.Vertex { return &verts[i] },
				func(i int) (int32, bool) { return int32((i * 7) % v.Size()), true },
				func(i int, val *graph.Vertex, found bool) {},
			)
		}},
	}
	for _, tc := range cases {
		tc.doRAR() // warm the arena once
		if allocs := testing.AllocsPerRun(20, tc.doRAR); allocs > 1 {
			t.Errorf("%s: steady-state RAR allocates %.0f per op, want ≤ 1 (seed: 7)", tc.name, allocs)
		}
	}
}

// Sort and Concentrate share the gather path; they must be allocation-free
// at steady state too.
func TestSortConcentrateAllocsSteadyState(t *testing.T) {
	m := New(32)
	v := m.Root()
	r := NewReg[int64](m)
	body := func() {
		Sort(v, r, int64Key)
		Concentrate(v, r, -1, func(x int64) bool { return x%2 == 0 })
		Scan(v, r, func(a, b int64) int64 { return a + b })
	}
	body()
	allocs := testing.AllocsPerRun(20, body)
	if allocs > 1 {
		t.Errorf("steady-state Sort+Concentrate+Scan allocates %.0f per op, want ≤ 1", allocs)
	}
}

// Every charged sort takes its key, index and gather banks from the arena,
// so after warm-up none of them allocates. Each body reloads an unsorted
// bank first, so every call runs the radix passes and the gather rather
// than the already-sorted shortcut.
func TestChargedSortsAllocFree(t *testing.T) {
	m := New(32)
	v := m.Root()
	n := v.Size()
	r := NewReg[int64](m)
	// Keys spread over three bytes, with duplicates.
	unsorted := make([]int64, 2*n)
	for i := range unsorted {
		unsorted[i] = int64((i*2654435761)%100003) - 50000
	}
	bank := make([]int64, 2*n)
	src := unsorted[:n]
	perm := func(i int) int { return (i * 7) % n } // n is a power of two
	cases := []struct {
		name string
		op   func()
	}{
		{"Sort", func() {
			Load(v, r, src)
			Sort(v, r, int64Key)
		}},
		{"SortSnake", func() {
			Load(v, r, src)
			SortSnake(v, r, int64Key)
		}},
		{"SortScratch/perProc=2", func() {
			copy(bank, unsorted)
			SortScratch(v, bank, 2, int64Key)
		}},
		{"Concentrate", func() {
			Load(v, r, src)
			Concentrate(v, r, -1, func(x int64) bool { return x%2 == 0 })
		}},
		{"RouteScratch", func() {
			dst, occ := RouteScratch(v, src, n, 1, perm)
			Release(m, dst)
			Release(m, occ)
		}},
		{"Route", func() {
			Load(v, r, src)
			Route(v, r, -1, func(i int, _ *int64) (int, bool) { return perm(i), true })
		}},
		{"RAR", func() {
			RAR(v,
				func(i int) (int32, bool) { return int32(i), true },
				func(i int) *int64 { return &src[i] },
				func(i int) (int32, bool) { return int32(perm(i)), true },
				func(int, *int64, bool) {})
		}},
		{"RAW", func() {
			RAW(v,
				func(i int) (int32, bool) { return int32(i), true },
				func(i int) (int32, int64, bool) { return int32(perm(i)), src[i], true },
				func(a, b int64) int64 { return a + b },
				func(int, int64, bool) {})
		}},
	}
	for _, tc := range cases {
		tc.op() // warm the arena once
		if allocs := testing.AllocsPerRun(20, tc.op); allocs != 0 {
			t.Errorf("%s: steady state allocates %.0f per call, want 0", tc.name, allocs)
		}
	}
}

// Concurrent submesh bodies must be able to check pooled buffers in and out
// without interfering; run with -race in CI. Each body sorts, RARs and
// concentrates inside its own sub-view; the parent's registers elsewhere
// must be untouched and every sub-view's result must be correct. Each body
// also fans out again, by RunGrid and by RunParallel, so nested and
// concurrent calls take and give back the mesh's reused per-call state
// while spawned bodies of other calls are still finishing.
func TestRunParallelPooledStress(t *testing.T) {
	m := New(32)
	v := m.Root()
	r := NewReg[int64](m)
	for round := 0; round < 5; round++ {
		for i := 0; i < v.Size(); i++ {
			Set(v, r, i, int64((i*2654435761+round)%1000))
		}
		subs := v.Partition(4, 4)
		v.RunParallel(subs, func(idx int, sub View) {
			Sort(sub, r, int64Key)
			// RAR: every processor reads the record keyed by its mirror.
			RAR(sub,
				func(i int) (int32, bool) { return int32(i), true },
				func(i int) *int64 { return Ref(sub, r, i) },
				func(i int) (int32, bool) { return int32(sub.Size() - 1 - i), true },
				func(i int, val *int64, found bool) {
					if !found {
						t.Errorf("sub %d: RAR miss at %d", idx, i)
					}
				})
			Scan(sub, r, func(a, b int64) int64 { return max(a, b) })
			Concentrate(sub, r, -1, func(x int64) bool { return x >= 0 })
			// Nested fan-outs that leave the sorted running maxima intact:
			// a per-quadrant count, and an in-place rewrite of each cell.
			counts := make([]int, 4)
			sub.RunGrid(2, 2, func(q int, quad View) {
				counts[q] = Count(quad, r, func(x *int64) bool { return *x >= 0 })
			})
			if counts[0]+counts[1]+counts[2]+counts[3] != sub.Size() {
				t.Errorf("sub %d: nested RunGrid counted %v of %d cells", idx, counts, sub.Size())
			}
			sub.RunParallel(sub.Partition(1, 2), func(_ int, half View) {
				Apply(half, r, func(_ int, x *int64) { *x += 0 })
			})
		})
		// After sorting, a running-max scan and a total concentrate, each
		// sub-view must hold its original multiset's sorted-order maxima:
		// still sorted, nothing lost across sub-view borders.
		for si, sub := range subs {
			xs := Snapshot(sub, r)
			if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
				t.Fatalf("round %d sub %d: not sorted: %v", round, si, xs)
			}
		}
	}
}

// BenchmarkRARSteadyState is the allocation benchmark of the PR-1 acceptance
// bar (BENCH_PR1.json): one full-view RAR per iteration, the op the
// multistep loop is made of. Run with -benchmem.
func BenchmarkRARSteadyState(b *testing.B) {
	m := New(64)
	v := m.Root()
	vals := cellValues(m.N(), func(i int) int64 { return int64(i) * 3 })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RAR(v,
			func(i int) (int32, bool) { return int32(i), true },
			func(i int) *int64 { return &vals[i] },
			func(i int) (int32, bool) { return int32((i * 7) % v.Size()), true },
			func(i int, val *int64, found bool) {},
		)
	}
}

// RunGrid is RunParallel over Partition's sub-views: the same bodies on
// the same sub-views, the same charge. Its per-call state and sub-views
// are the mesh's, so with a body that captures nothing a steady-state
// call allocates nothing, nested calls included; RunParallel over
// Partition allocates only the sub-view slice.
func TestRunGridMatchesPartitionAndAllocatesNothing(t *testing.T) {
	m := New(16, WithParallelism(2))
	v := m.Root()
	var got, want []View
	var mu sync.Mutex
	v.RunGrid(2, 4, func(i int, sub View) {
		mu.Lock()
		got = append(got, sub)
		mu.Unlock()
		sub.Charge(int64(i + 1))
	})
	gridSteps := m.Steps()
	m.ResetSteps()
	v.RunParallel(v.Partition(2, 4), func(i int, sub View) {
		mu.Lock()
		want = append(want, sub)
		mu.Unlock()
		sub.Charge(int64(i + 1))
	})
	if m.Steps() != gridSteps || gridSteps != 8 {
		t.Fatalf("RunGrid charged %d steps, RunParallel over Partition %d, want 8", gridSteps, m.Steps())
	}
	origin := func(vs []View) map[[2]int]bool {
		o := map[[2]int]bool{}
		for _, s := range vs {
			r, c := s.Origin()
			o[[2]int{r, c}] = s.Rows() == 8 && s.Cols() == 4
		}
		return o
	}
	if g, w := origin(got), origin(want); len(g) != 8 || fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("RunGrid sub-views %v, Partition's %v", g, w)
	}

	grid := func() { v.RunGrid(4, 4, gridBody) }
	grid()
	if a := testing.AllocsPerRun(50, grid); a != 0 {
		t.Errorf("steady-state RunGrid (nested) allocates %.0f per call, want 0", a)
	}
	par := func() { v.RunParallel(v.Partition(4, 4), gridBody) }
	par()
	if a := testing.AllocsPerRun(50, par); a != 1 {
		t.Errorf("steady-state RunParallel over Partition allocates %.0f per call, want 1 (the sub-views)", a)
	}
}

// gridBody charges a step and fans out once more.
func gridBody(_ int, sub View) {
	sub.Charge(1)
	if sub.Rows() > 2 {
		sub.RunGrid(2, 2, gridBody)
	}
}
