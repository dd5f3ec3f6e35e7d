package mesh

import (
	"context"
	"errors"
	"testing"
)

// stubInjector injects exactly the faults its fields describe. Zero value
// injects nothing.
type stubInjector struct {
	lieAfter int64 // SortLie result for the first sort consulted
	corrupt  bool  // CorruptCell (0 -> last) on the first sort consulted
	drop     bool  // DropReply 0 on the first RAR delivery sweep
	dup      bool  // DuplicateReply (0 -> last) on the first RAR sweep
	fired    bool
}

func (s *stubInjector) SortLie(op string, items int) int64 {
	if s.lieAfter > 0 && !s.fired && items > 1 {
		s.fired = true
		return s.lieAfter
	}
	return 0
}

func (s *stubInjector) CorruptCell(op string, items int) (int, int, bool) {
	if s.corrupt && !s.fired && items > 1 {
		s.fired = true
		return 0, items - 1, true
	}
	return 0, 0, false
}

func (s *stubInjector) DropReply(replies int) (int, bool) {
	if s.drop && !s.fired {
		s.fired = true
		return 0, true
	}
	return 0, false
}

func (s *stubInjector) DuplicateReply(replies int) (int, int, bool) {
	if s.dup && !s.fired && replies > 1 {
		s.fired = true
		return 0, replies - 1, true
	}
	return 0, 0, false
}

// sortWorkload runs one register sort plus one scan — enough to exercise
// every audited primitive except RAR/RAW.
func sortWorkload(m *Mesh) {
	v := m.Root()
	r := NewReg[int](m)
	Apply(v, r, func(i int, cur *int) { *cur = (i * 7919) % 101 })
	Sort(v, r, intKey)
	Scan(v, r, func(a, b int) int { return a + b })
}

// rarWorkload issues one all-processors RAR.
func rarWorkload(m *Mesh) {
	v := m.Root()
	n := v.Size()
	vals := cellValues(n, func(i int) int { return i * 3 })
	RAR(v,
		func(i int) (int32, bool) { return int32(i), true },
		func(i int) *int { return &vals[i] },
		func(i int) (int32, bool) { return int32((i + 1) % n), true },
		func(int, *int, bool) {})
}

func TestBudgetExceededAbortsWithDominantClass(t *testing.T) {
	m := New(16, WithBudget(10))
	err := func() (err error) {
		defer func() {
			r := recover()
			var ok bool
			if err, ok = r.(error); !ok {
				t.Fatalf("recovered %T, want error", r)
			}
		}()
		sortWorkload(m)
		return nil
	}()
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BudgetExceededError", err)
	}
	if be.Steps <= be.Budget || be.Budget != 10 {
		t.Fatalf("steps=%d budget=%d", be.Steps, be.Budget)
	}
	if c, s := be.Dominant(); c != OpSort || s == 0 {
		t.Fatalf("dominant=%s (%d steps), want sort", c, s)
	}
	if be.Geom.Side != 16 {
		t.Fatalf("geometry %v", be.Geom)
	}
}

func TestBudgetCountsCriticalChainInsideRunParallel(t *testing.T) {
	// Each submesh sorts once; the critical chain is one submesh's clock on
	// top of the parent's, not the sum over submeshes. A budget generous
	// enough for one submesh sort must not fire even though four run.
	cost := func() int64 {
		m := New(16)
		subs := m.Root().Partition(2, 2)
		r := NewReg[int](m)
		m.Root().RunParallel(subs, func(idx int, sub View) {
			Sort(sub, r, intKey)
		})
		return m.Steps()
	}()
	m := New(16, WithBudget(cost))
	subs := m.Root().Partition(2, 2)
	r := NewReg[int](m)
	m.Root().RunParallel(subs, func(idx int, sub View) {
		Sort(sub, r, intKey)
	})

	// With the budget one step short, the overrun fires inside a parallel
	// body and must surface as a PanicError wrapping the budget fault.
	m2 := New(16, WithBudget(cost-1))
	subs2 := m2.Root().Partition(2, 2)
	r2 := NewReg[int](m2)
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok {
			t.Fatalf("recovered %T, want error", r)
		}
		var pe *PanicError
		var be *BudgetExceededError
		if !errors.As(err, &pe) || !errors.As(err, &be) {
			t.Fatalf("got %v, want PanicError wrapping BudgetExceededError", err)
		}
	}()
	m2.Root().RunParallel(subs2, func(idx int, sub View) {
		Sort(sub, r2, intKey)
	})
	t.Fatal("budget should have fired")
}

func TestCancellationAbortsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := New(8, WithContext(ctx))
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok {
			t.Fatalf("recovered %T, want error", r)
		}
		var ce *CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("got %v, want *CanceledError", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cause %v, want context.Canceled", ce.Cause)
		}
	}()
	sortWorkload(m)
	t.Fatal("canceled run should not complete")
}

func TestRunParallelContainsBodyPanic(t *testing.T) {
	m := New(8)
	subs := m.Root().Partition(2, 2)
	defer func() {
		r := recover()
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T (%v), want *PanicError", r, r)
		}
		if pe.Val != "boom" {
			t.Fatalf("Val=%v", pe.Val)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("missing stack")
		}
	}()
	m.Root().RunParallel(subs, func(idx int, sub View) {
		if idx == 2 {
			panic("boom")
		}
		sub.Charge(1)
	})
	t.Fatal("panic should have propagated")
}

func TestAuditCleanRunMatchesPlainRun(t *testing.T) {
	// Audit mode must observe only: identical step clocks and identical
	// per-op profiles on a workload covering sorts, scans, RAR and RAW.
	run := func(m *Mesh) {
		sortWorkload(m)
		rarWorkload(m)
		v := m.Root()
		RAW(v,
			func(i int) (int32, bool) { return int32(i % 5), i < 5 },
			func(i int) (int32, int, bool) { return int32(i % 5), i, true },
			func(a, b int) int { return a + b },
			func(i int, combined int, any bool) {})
	}
	plain := New(8)
	run(plain)
	audited := New(8, WithAudit())
	run(audited)
	if plain.Steps() != audited.Steps() {
		t.Fatalf("steps differ: plain=%d audited=%d", plain.Steps(), audited.Steps())
	}
	if plain.Profile() != audited.Profile() {
		t.Fatalf("profiles differ:\nplain   %+v\naudited %+v", plain.Profile(), audited.Profile())
	}
}

func TestAuditDetectsInjectedFaults(t *testing.T) {
	cases := []struct {
		name string
		inj  *stubInjector
		run  func(m *Mesh)
	}{
		{"sort comparator lie", &stubInjector{lieAfter: 1}, sortWorkload},
		{"corrupted sort cell", &stubInjector{corrupt: true}, sortWorkload},
		{"dropped RAR reply", &stubInjector{drop: true}, rarWorkload},
		{"duplicated RAR reply", &stubInjector{dup: true}, rarWorkload},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(8, WithAudit(), WithInjector(tc.inj))
			defer func() {
				r := recover()
				if _, ok := r.(*AuditError); !ok {
					t.Fatalf("recovered %T (%v), want *AuditError", r, r)
				}
			}()
			tc.run(m)
			t.Fatal("injected fault escaped the audit")
		})
	}
}

func TestInjectorWithoutAuditStillRuns(t *testing.T) {
	// Injection with audit off must not panic on its own for faults that
	// only corrupt data (the point: audit is the detector, not injection).
	m := New(8, WithInjector(&stubInjector{corrupt: true}))
	sortWorkload(m)
	if m.Steps() == 0 {
		t.Fatal("no steps charged")
	}
}
