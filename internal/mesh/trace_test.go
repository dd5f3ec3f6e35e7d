package mesh

import (
	"sync"
	"testing"
)

// stubTracer is a minimal mesh.Tracer for testing the seam from inside the
// package (the real collector lives in internal/trace, which imports mesh).
// Like the real one it must synchronize internally: forked chains emit span
// events from RunParallel goroutines.
type stubTracer struct {
	mu       sync.Mutex
	attached int
	chains   int
	events   []string
}

type stubContext struct {
	t *stubTracer
}

func (t *stubTracer) Attach(g Geometry) TraceContext {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attached++
	t.chains++
	return &stubContext{t: t}
}

func (c *stubContext) OpenSpan(name string, at int64, prof Profile) {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	c.t.events = append(c.t.events, "open:"+name)
}

func (c *stubContext) CloseSpan(at int64, prof Profile) {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	c.t.events = append(c.t.events, "close")
}

func (c *stubContext) Fork() TraceContext {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	c.t.chains++
	return &stubContext{t: c.t}
}

func (c *stubContext) Merge(child TraceContext) {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	c.t.events = append(c.t.events, "merge")
}

// Attaching a tracer must not perturb the simulation: step clocks and
// per-op profiles stay byte-identical to a plain run (the same invariant
// audit mode holds, TestAuditCleanRunMatchesPlainRun).
func TestTracedRunMatchesPlainRun(t *testing.T) {
	run := func(m *Mesh) {
		sortWorkload(m)
		rarWorkload(m)
		v := m.Root()
		subs := v.Partition(2, 2)
		r := NewReg[int](m)
		v.RunParallel(subs, func(idx int, sub View) {
			end := sub.Span("sub")
			Sort(sub, r, intKey)
			end()
		})
		v.RunSequential(v.Partition(2, 1), func(idx int, sub View) {
			Scan(sub, r, func(a, b int) int { return a + b })
		})
	}
	plain := New(8)
	run(plain)
	st := &stubTracer{}
	traced := New(8, WithTracer(st))
	run(traced)
	if plain.Steps() != traced.Steps() {
		t.Fatalf("steps differ: plain=%d traced=%d", plain.Steps(), traced.Steps())
	}
	if plain.Profile() != traced.Profile() {
		t.Fatalf("profiles differ:\nplain  %+v\ntraced %+v", plain.Profile(), traced.Profile())
	}
	if st.attached != 1 {
		t.Fatalf("attached %d times, want 1", st.attached)
	}
	if len(st.events) == 0 {
		t.Fatal("tracer saw no span events")
	}
}

// Span on an untraced view must return the shared no-op closer without
// touching the tracer machinery.
func TestSpanWithoutTracerIsNoop(t *testing.T) {
	m := New(4)
	v := m.Root()
	if v.Traced() {
		t.Fatal("plain mesh reports Traced")
	}
	end := v.Span("x")
	v.Charge(3)
	end()
	if m.Steps() != 3 {
		t.Fatalf("steps=%d, want 3", m.Steps())
	}
}

// ResetSteps must attach a fresh trace context so post-reset spans land in a
// new run.
func TestResetStepsReattachesTracer(t *testing.T) {
	st := &stubTracer{}
	m := New(4, WithTracer(st))
	m.ResetSteps()
	if st.attached != 2 {
		t.Fatalf("attached %d times, want 2 (New + ResetSteps)", st.attached)
	}
}

// Every RunParallel forks one context per submesh and merges exactly one of
// them (the critical path) back.
func TestRunParallelForksAndMergesOnce(t *testing.T) {
	st := &stubTracer{}
	m := New(8, WithTracer(st))
	v := m.Root()
	subs := v.Partition(2, 2)
	v.RunParallel(subs, func(idx int, sub View) {
		sub.Charge(int64(idx + 1))
	})
	if st.chains != 1+len(subs) {
		t.Fatalf("chains=%d, want %d (root + one per submesh)", st.chains, 1+len(subs))
	}
	merges := 0
	for _, e := range st.events {
		if e == "merge" {
			merges++
		}
	}
	if merges != 1 {
		t.Fatalf("merges=%d, want exactly 1 (critical path only)", merges)
	}
}
