package mesh

import "testing"

// The theoretical cost model (optimal O(√n) sorters) must never charge more
// than the counted (shearsort) model for any operation at any size — the
// invariant that makes E13's ablation meaningful.
func TestTheoreticalNeverExceedsCounted(t *testing.T) {
	for _, side := range []int{2, 4, 8, 16, 64, 256, 1024} {
		mc := New(side)
		mt := New(side, WithCostModel(CostTheoretical))
		ops := []struct {
			name string
			run  func(m *Mesh) int64
		}{
			{"sort", func(m *Mesh) int64 {
				r := NewReg[int](m)
				Sort(m.Root(), r, intKey)
				return m.Steps()
			}},
			{"snake-sort", func(m *Mesh) int64 {
				r := NewReg[int](m)
				SortSnake(m.Root(), r, intKey)
				return m.Steps()
			}},
			{"rar", func(m *Mesh) int64 {
				vals := cellValues(m.N(), func(i int) int { return i })
				RAR(m.Root(),
					func(i int) (int32, bool) { return int32(i), true },
					func(i int) *int { return &vals[i] },
					func(i int) (int32, bool) { return int32(i), true },
					func(int, *int, bool) {})
				return m.Steps()
			}},
			{"raw", func(m *Mesh) int64 {
				RAW(m.Root(),
					func(i int) (int32, bool) { return int32(i), true },
					func(i int) (int32, int, bool) { return int32(i), i, true },
					func(a, b int) int { return a + b },
					func(i, v int, ok bool) {})
				return m.Steps()
			}},
			{"concentrate", func(m *Mesh) int64 {
				r := NewReg[int](m)
				Concentrate(m.Root(), r, -1, func(x int) bool { return x >= 0 })
				return m.Steps()
			}},
			{"scan", func(m *Mesh) int64 {
				r := NewReg[int](m)
				Scan(m.Root(), r, func(a, b int) int { return a + b })
				return m.Steps()
			}},
		}
		for _, op := range ops {
			mc.ResetSteps()
			mt.ResetSteps()
			cc := op.run(mc)
			ct := op.run(mt)
			if ct > cc {
				t.Fatalf("side %d op %s: theoretical %d > counted %d", side, op.name, ct, cc)
			}
			if cc <= 0 || ct <= 0 {
				t.Fatalf("side %d op %s: zero cost", side, op.name)
			}
		}
	}
}

// Rotations sweep whichever direction is shorter, so the charge is
// min(d mod len, len − d mod len) — NOT d mod len; a shift by len−1 costs
// one step and a full rotation costs nothing. This pins the documented
// formula to the implementation for both axes, including negative and
// larger-than-len displacements.
func TestRotateChargeIsShortestDirection(t *testing.T) {
	for _, side := range []int{2, 4, 8, 16} {
		for _, d := range []int{0, 1, 2, side / 2, side - 1, side, side + 1, -1, -side - 2, 3*side + 2} {
			dm := ((d % side) + side) % side
			want := int64(min(dm, side-dm))

			m := New(side)
			r := NewReg[int](m)
			RotateRows(m.Root(), r, d)
			if got := m.Steps(); got != want {
				t.Fatalf("side %d RotateRows(%d): charged %d steps, want min(%d, %d) = %d",
					side, d, got, dm, side-dm, want)
			}
			if got := m.Profile().Ops[OpRotate].Steps; got != want {
				t.Fatalf("side %d RotateRows(%d): profile attributes %d steps to rotate, want %d",
					side, d, got, want)
			}

			m = New(side)
			r = NewReg[int](m)
			RotateCols(m.Root(), r, d)
			if got := m.Steps(); got != want {
				t.Fatalf("side %d RotateCols(%d): charged %d steps, want min(%d, %d) = %d",
					side, d, got, dm, side-dm, want)
			}
		}
	}
}
