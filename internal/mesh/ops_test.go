package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func intsOnView(v View, r *Reg[int], seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]int, v.Size())
	for i := range xs {
		xs[i] = rng.Intn(1000)
	}
	Load(v, r, xs)
	return xs
}

func TestBroadcast(t *testing.T) {
	m := New(8)
	r := NewReg[int](m)
	v := m.Root().Sub(2, 2, 4, 4)
	intsOnView(v, r, 1)
	Set(v, r, 5, 424242)
	Broadcast(v, r, 5)
	for i := 0; i < v.Size(); i++ {
		if At(v, r, i) != 424242 {
			t.Fatalf("cell %d = %d", i, At(v, r, i))
		}
	}
	if m.Steps() != int64(v.Rows()+v.Cols()) {
		t.Fatalf("cost %d", m.Steps())
	}
}

func TestReduceSum(t *testing.T) {
	m := New(8)
	r := NewReg[int](m)
	v := m.Root().Sub(0, 0, 4, 8)
	xs := intsOnView(v, r, 2)
	want := 0
	for _, x := range xs {
		want += x
	}
	got := Reduce(v, r, func(a, b int) int { return a + b })
	if got != want {
		t.Fatalf("Reduce=%d want %d", got, want)
	}
}

func TestScanPrefixSums(t *testing.T) {
	m := New(8)
	r := NewReg[int](m)
	v := m.Root().Sub(4, 0, 4, 4)
	xs := intsOnView(v, r, 3)
	Scan(v, r, func(a, b int) int { return a + b })
	acc := 0
	for i, x := range xs {
		acc += x
		if got := At(v, r, i); got != acc {
			t.Fatalf("prefix at %d: %d want %d", i, got, acc)
		}
	}
}

func TestExclusiveScan(t *testing.T) {
	m := New(4)
	r := NewReg[int](m)
	v := m.Root()
	xs := intsOnView(v, r, 4)
	ExclusiveScan(v, r, 0, func(a, b int) int { return a + b })
	acc := 0
	for i, x := range xs {
		if got := At(v, r, i); got != acc {
			t.Fatalf("exclusive prefix at %d: %d want %d", i, got, acc)
		}
		acc += x
	}
}

func TestSegScanCopiesAcrossSegments(t *testing.T) {
	m := New(4)
	r := NewReg[int](m)
	head := NewReg[bool](m)
	v := m.Root()
	// Segments start at 0, 5, 11.
	starts := map[int]bool{0: true, 5: true, 11: true}
	for i := 0; i < v.Size(); i++ {
		Set(v, head, i, starts[i])
		if starts[i] {
			Set(v, r, i, 1000+i)
		} else {
			Set(v, r, i, 0)
		}
	}
	// Copy-scan: propagate the head value through the segment.
	SegScan(v, r, head, func(a, b int) int { return a })
	wantFor := func(i int) int {
		switch {
		case i >= 11:
			return 1011
		case i >= 5:
			return 1005
		default:
			return 1000
		}
	}
	for i := 0; i < v.Size(); i++ {
		if got := At(v, r, i); got != wantFor(i) {
			t.Fatalf("cell %d = %d want %d", i, got, wantFor(i))
		}
	}
}

func TestRotateRows(t *testing.T) {
	m := New(4)
	r := NewReg[int](m)
	v := m.Root()
	xs := intsOnView(v, r, 5)
	RotateRows(v, r, 1)
	for row := 0; row < v.Rows(); row++ {
		for c := 0; c < v.Cols(); c++ {
			want := xs[row*v.Cols()+((c-1+v.Cols())%v.Cols())]
			if got := At(v, r, row*v.Cols()+c); got != want {
				t.Fatalf("(%d,%d)=%d want %d", row, c, got, want)
			}
		}
	}
	// Rotating by cols is the identity and costs 0.
	before := m.Steps()
	snap := Snapshot(v, r)
	RotateRows(v, r, v.Cols())
	if m.Steps() != before {
		t.Fatalf("full rotation should cost 0, got %d", m.Steps()-before)
	}
	for i, x := range Snapshot(v, r) {
		if x != snap[i] {
			t.Fatal("full rotation changed state")
		}
	}
}

func TestRotateColsInverse(t *testing.T) {
	m := New(8)
	r := NewReg[int](m)
	v := m.Root().Sub(0, 0, 8, 4)
	xs := intsOnView(v, r, 6)
	RotateCols(v, r, 3)
	RotateCols(v, r, -3)
	for i, x := range Snapshot(v, r) {
		if x != xs[i] {
			t.Fatalf("rotate inverse mismatch at %d", i)
		}
	}
}

func TestRotateCostIsShortestDirection(t *testing.T) {
	m := New(64)
	r := NewReg[int](m)
	v := m.Root()
	RotateRows(v, r, 63) // one step left is cheaper
	if m.Steps() != 1 {
		t.Fatalf("cost %d want 1", m.Steps())
	}
}

func TestCount(t *testing.T) {
	m := New(8)
	r := NewReg[int](m)
	v := m.Root()
	xs := intsOnView(v, r, 7)
	want := 0
	for _, x := range xs {
		if x%2 == 0 {
			want++
		}
	}
	if got := Count(v, r, func(x *int) bool { return *x%2 == 0 }); got != want {
		t.Fatalf("Count=%d want %d", got, want)
	}
}

// Property: Scan with + equals sequential prefix sums on arbitrary inputs.
func TestQuickScanMatchesPrefix(t *testing.T) {
	m := New(8)
	r := NewReg[int](m)
	v := m.Root()
	f := func(raw [64]int16) bool {
		xs := make([]int, 64)
		for i, x := range raw {
			xs[i] = int(x)
		}
		Load(v, r, xs)
		Scan(v, r, func(a, b int) int { return a + b })
		acc := 0
		for i, x := range xs {
			acc += x
			if At(v, r, i) != acc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: SegScan with max never crosses a head boundary.
func TestQuickSegScanRespectsBoundaries(t *testing.T) {
	m := New(4)
	r := NewReg[int](m)
	head := NewReg[bool](m)
	v := m.Root()
	f := func(raw [16]uint8, headBits uint16) bool {
		xs := make([]int, 16)
		hs := make([]bool, 16)
		for i := range xs {
			xs[i] = int(raw[i])
			hs[i] = headBits&(1<<i) != 0
		}
		hs[0] = true
		Load(v, r, xs)
		Load(v, head, hs)
		SegScan(v, r, head, func(a, b int) int {
			if a > b {
				return a
			}
			return b
		})
		// Reference.
		want := make([]int, 16)
		for i := range xs {
			if hs[i] || i == 0 {
				want[i] = xs[i]
			} else {
				want[i] = max(want[i-1], xs[i])
			}
		}
		for i := range want {
			if At(v, r, i) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
