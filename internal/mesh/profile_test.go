package mesh

import (
	"strings"
	"testing"
)

// The fundamental profile invariant: per-class step totals sum exactly to
// the step clock, including across RunParallel (critical-path merge) and
// RunSequential (sum merge).
func TestProfileSumsToSteps(t *testing.T) {
	m := New(16)
	v := m.Root()
	r := NewReg[int64](m)
	for i := 0; i < v.Size(); i++ {
		Set(v, r, i, int64(i%17))
	}
	Sort(v, r, int64Key)
	Scan(v, r, func(a, b int64) int64 { return a + b })
	Broadcast(v, r, 0)
	Reduce(v, r, func(a, b int64) int64 { return a + b })
	RotateRows(v, r, 3)
	Concentrate(v, r, -1, func(x int64) bool { return x%2 == 0 })
	vals := cellValues(v.Size(), func(i int) int64 { return int64(i) })
	RAR(v,
		func(i int) (int32, bool) { return int32(i), true },
		func(i int) *int64 { return &vals[i] },
		func(i int) (int32, bool) { return int32(i), true },
		func(int, *int64, bool) {})
	RAW(v,
		func(i int) (int32, bool) { return int32(i), true },
		func(i int) (int32, int64, bool) { return int32(i / 2), 1, true },
		func(a, b int64) int64 { return a + b },
		func(i int, combined int64, any bool) {})
	v.RunParallel(v.Partition(2, 2), func(_ int, sub View) {
		Sort(sub, r, int64Key)
		sub.Charge(4)
	})
	v.RunSequential(v.Partition(4, 4), func(_ int, sub View) {
		Scan(sub, r, func(a, b int64) int64 { return a + b })
	})
	Fill(v, r, 0)

	p := m.Profile()
	if got, want := p.TotalSteps(), m.Steps(); got != want {
		t.Fatalf("profile step total %d != Steps() %d", got, want)
	}
	for _, c := range []OpClass{OpSort, OpScan, OpBroadcast, OpReduce, OpRotate,
		OpConcentrate, OpRAR, OpRAW, OpLocal} {
		if p.Ops[c].Count == 0 {
			t.Errorf("class %v: count 0, want > 0", c)
		}
		if p.Ops[c].Steps <= 0 {
			t.Errorf("class %v: steps %d, want > 0", c, p.Ops[c].Steps)
		}
	}
}

// A compound operation owns the steps of its internal sorts and scans: one
// lone RAR must show up only under the rar class.
func TestCompoundOpAttribution(t *testing.T) {
	m := New(8)
	v := m.Root()
	vals := cellValues(v.Size(), func(i int) int64 { return int64(i) })
	RAR(v,
		func(i int) (int32, bool) { return int32(i), true },
		func(i int) *int64 { return &vals[i] },
		func(i int) (int32, bool) { return int32(i), true },
		func(int, *int64, bool) {})
	p := m.Profile()
	if p.Ops[OpRAR].Count != 1 {
		t.Errorf("rar count = %d, want 1", p.Ops[OpRAR].Count)
	}
	if p.Ops[OpRAR].Steps != m.Steps() {
		t.Errorf("rar steps = %d, want all %d", p.Ops[OpRAR].Steps, m.Steps())
	}
	for c := OpClass(0); c < NumOpClasses; c++ {
		if c != OpRAR && (p.Ops[c].Count != 0 || p.Ops[c].Steps != 0) {
			t.Errorf("class %v leaked out of RAR: %+v", c, p.Ops[c])
		}
	}
}

func TestResetStepsClearsProfile(t *testing.T) {
	m := New(8)
	r := NewReg[int64](m)
	Sort(m.Root(), r, int64Key)
	m.ResetSteps()
	if m.Steps() != 0 || m.Profile().TotalSteps() != 0 || m.Profile().TotalOps() != 0 {
		t.Fatalf("ResetSteps left steps=%d profile=%+v", m.Steps(), m.Profile())
	}
}

// RunParallel charges the critical path: the profile must carry the most
// expensive submesh's breakdown, not the sum of all submeshes.
func TestProfileCriticalPathMerge(t *testing.T) {
	m := New(16)
	v := m.Root()
	r := NewReg[int64](m)
	subs := v.Partition(2, 2)
	v.RunParallel(subs, func(idx int, sub View) {
		if idx == 0 {
			Sort(sub, r, int64Key) // expensive
		} else {
			sub.Charge(1) // cheap
		}
	})
	p := m.Profile()
	if p.Ops[OpSort].Count != 1 {
		t.Errorf("sort count = %d, want 1 (critical path only)", p.Ops[OpSort].Count)
	}
	if p.Ops[OpLocal].Count != 0 {
		t.Errorf("local count = %d, want 0 (off the critical path)", p.Ops[OpLocal].Count)
	}
	if p.TotalSteps() != m.Steps() {
		t.Errorf("profile total %d != Steps() %d", p.TotalSteps(), m.Steps())
	}
}

// Out-of-view local indices must panic with the view geometry instead of
// silently addressing a neighbouring submesh.
func TestGlobalBoundsPanic(t *testing.T) {
	m := New(8)
	sub := m.Root().Sub(2, 2, 4, 4)
	r := NewReg[int64](m)
	for _, tc := range []struct {
		name  string
		local int
	}{
		{"past end", sub.Size()},
		{"way past end", 3 * sub.Size()},
		{"negative", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, ok := recover().(string)
				if !ok {
					t.Fatalf("local %d did not panic", tc.local)
				}
				if !strings.Contains(msg, "4x4 view") || !strings.Contains(msg, "(2,2)") {
					t.Errorf("panic %q does not name the view geometry", msg)
				}
			}()
			At(sub, r, tc.local)
		})
	}
	// Set and Broadcast funnel through the same check.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Set out of view did not panic")
			}
		}()
		Set(sub, r, sub.Size(), 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Broadcast src out of view did not panic")
			}
		}()
		Broadcast(sub, r, sub.Size())
	}()
}
