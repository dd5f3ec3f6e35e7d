package faults

import (
	"testing"

	"repro/internal/mesh"
)

// intKey is the order-preserving sort word of a signed test value.
func intKey(x int) uint64 { return uint64(x) ^ 1<<63 }

// workload exercises every injection point: a register sort, a scan, and a
// full-mesh RAR with one reply per processor.
func workload(m *mesh.Mesh) {
	v := m.Root()
	r := mesh.NewReg[int](m)
	mesh.Apply(v, r, func(i int, cur *int) { *cur = (i * 2654435761) % 1009 })
	mesh.Sort(v, r, intKey)
	mesh.Scan(v, r, func(a, b int) int { return a + b })
	rar(m)
}

// rar is one full-mesh RAR in which every processor reads the record of the
// processor five ahead; record i holds 3·i.
func rar(m *mesh.Mesh) {
	v := m.Root()
	n := v.Size()
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i * 3
	}
	mesh.RAR(v,
		func(i int) (int32, bool) { return int32(i), true },
		func(i int) *int { return &vals[i] },
		func(i int) (int32, bool) { return int32((i + 5) % n), true },
		func(int, *int, bool) {})
}

// TestChaosEveryFaultClassIsCaught drives one fault class at a time at
// probability 1 against an audited mesh and requires the audit to fire.
func TestChaosEveryFaultClassIsCaught(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		kind string
	}{
		{"register corruption", Config{Seed: 1, PCorrupt: 1, Limit: 1}, "corrupt-cell"},
		{"lying comparator", Config{Seed: 2, PSortLie: 1, Limit: 1}, "sort-lie"},
		{"dropped RAR reply", Config{Seed: 3, PDrop: 1, Limit: 1}, "drop-reply"},
		{"duplicated RAR reply", Config{Seed: 4, PDup: 1, Limit: 1}, "dup-reply"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := New(tc.cfg)
			m := mesh.New(8, mesh.WithAudit(), mesh.WithInjector(inj))
			defer func() {
				r := recover()
				ae, ok := r.(*mesh.AuditError)
				if !ok {
					t.Fatalf("recovered %T (%v), want *mesh.AuditError", r, r)
				}
				evs := inj.Events()
				if len(evs) != 1 {
					t.Fatalf("injected %d faults, want 1 (%v)", len(evs), evs)
				}
				if evs[0].Kind != tc.kind {
					t.Fatalf("injected %q, want %q", evs[0].Kind, tc.kind)
				}
				if ae.Op == "" || ae.Detail == "" {
					t.Fatalf("audit error lacks context: %v", ae)
				}
			}()
			workload(m)
			t.Fatalf("fault class %q escaped the audit (events: %v)", tc.name, inj.Events())
		})
	}
}

// TestChaosScanVariantsAreCaught drives register corruption at probability 1
// against the scan variants and the scratch routing, which used to bypass the
// injection seam and the prefix-identity audit entirely. Setup uses mesh.Load
// (chargeless, never consults the injector), so the single injected fault
// lands on the op under test. Outputs are distinct by construction, so any
// src≠dst corruption is observable.
func TestChaosScanVariantsAreCaught(t *testing.T) {
	cases := []struct {
		name string
		op   string
		run  func(m *mesh.Mesh)
	}{
		{"ExclusiveScan", "ExclusiveScan", func(m *mesh.Mesh) {
			v := m.Root()
			r := mesh.NewReg[int](m)
			xs := make([]int, v.Size())
			for i := range xs {
				xs[i] = i + 1
			}
			mesh.Load(v, r, xs)
			mesh.ExclusiveScan(v, r, 0, func(a, b int) int { return a + b })
		}},
		{"SegScan", "SegScan", func(m *mesh.Mesh) {
			v := m.Root()
			r := mesh.NewReg[int](m)
			head := mesh.NewReg[bool](m)
			xs := make([]int, v.Size())
			hs := make([]bool, v.Size())
			for i := range xs {
				xs[i] = i
				hs[i] = i%5 == 0
			}
			mesh.Load(v, r, xs)
			mesh.Load(v, head, hs)
			mesh.SegScan(v, r, head, func(a, b int) int { return max(a, b) })
		}},
		{"RouteScratch", "RouteScratch", func(m *mesh.Mesh) {
			v := m.Root()
			src := make([]int, v.Size())
			for i := range src {
				src[i] = 100 + i
			}
			dst, occ := mesh.RouteScratch(v, src, len(src), 1,
				func(i int) int { return len(src) - 1 - i })
			mesh.Release(m, dst)
			mesh.Release(m, occ)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := New(Config{Seed: 11, PCorrupt: 1, Limit: 1})
			m := mesh.New(8, mesh.WithAudit(), mesh.WithInjector(inj))
			defer func() {
				r := recover()
				ae, ok := r.(*mesh.AuditError)
				if !ok {
					t.Fatalf("recovered %T (%v), want *mesh.AuditError", r, r)
				}
				evs := inj.Events()
				if len(evs) != 1 || evs[0].Kind != "corrupt-cell" || evs[0].Op != tc.op {
					t.Fatalf("injected %v, want one corrupt-cell on %s", evs, tc.op)
				}
				if ae.Op != tc.op {
					t.Fatalf("audit flagged op %q, want %q", ae.Op, tc.op)
				}
			}()
			tc.run(m)
			t.Fatalf("corruption on %s escaped the audit (events: %v)", tc.name, inj.Events())
		})
	}
}

// TestChaosDropEqualsDupSrcEdge scans seeds for the reply-fault edge where
// the seeded injector happens to drop exactly the reply it then duplicates
// (drop == dupSrc). The edge is easy to get wrong — the dropped origin is
// never delivered while the duplication target's origin is delivered twice —
// and the audit must flag every such run. Seed decisions are pure integer
// arithmetic, so which seeds produce the edge is deterministic.
func TestChaosDropEqualsDupSrcEdge(t *testing.T) {
	edges := 0
	for seed := int64(1); seed <= 256; seed++ {
		inj := New(Config{Seed: seed, PDrop: 1, PDup: 1, Limit: 2})
		m := mesh.New(8, mesh.WithAudit(), mesh.WithInjector(inj))
		var ae *mesh.AuditError
		func() {
			defer func() {
				if r := recover(); r != nil {
					var ok bool
					if ae, ok = r.(*mesh.AuditError); !ok {
						panic(r)
					}
				}
			}()
			rar(m)
		}()
		if ae == nil {
			t.Fatalf("seed %d: drop+dup reply faults escaped the audit (events: %v)", seed, inj.Events())
		}
		evs := inj.Events()
		if len(evs) == 2 && evs[0].Kind == "drop-reply" && evs[1].Kind == "dup-reply" &&
			evs[0].A == evs[1].A {
			edges++
		}
	}
	if edges == 0 {
		t.Fatal("no seed in 1..256 produced the drop == dupSrc edge; widen the scan")
	}
	t.Logf("drop == dupSrc edge hit on %d of 256 seeds, all flagged by audit", edges)
}

// runQuiet executes the workload, swallowing any panic the injected
// corruption provokes downstream (with audit off, a corrupted bank can
// still trip structural panics inside RAR — exactly what the core.Run
// containment boundary exists for).
func runQuiet(m *mesh.Mesh) {
	defer func() { _ = recover() }()
	workload(m)
}

// TestChaosSeededRunsAreReproducible runs the same sequential workload twice
// under the same seed and requires identical fault logs.
func TestChaosSeededRunsAreReproducible(t *testing.T) {
	cfg := Config{Seed: 42, PSortLie: 0.5, PCorrupt: 0.5, PDrop: 0.5, PDup: 0.5}
	run := func() []Event {
		inj := New(cfg)
		m := mesh.New(8, mesh.WithInjector(inj)) // audit off
		runQuiet(m)
		return inj.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults injected at p=0.5 across a dozen consultations")
	}
	if len(a) != len(b) {
		t.Fatalf("fault logs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestZeroConfigInjectsNothingAndMatchesPlainRun proves the no-injection
// path is inert: a zero-probability injector plus audit mode produces the
// same step clock and per-op profile as a bare mesh.
func TestZeroConfigInjectsNothingAndMatchesPlainRun(t *testing.T) {
	plain := mesh.New(8)
	workload(plain)

	inj := New(Config{Seed: 7})
	chaos := mesh.New(8, mesh.WithAudit(), mesh.WithInjector(inj))
	workload(chaos)

	if inj.Count() != 0 {
		t.Fatalf("zero config injected %d faults: %v", inj.Count(), inj.Events())
	}
	if plain.Steps() != chaos.Steps() {
		t.Fatalf("step clocks differ: plain=%d chaos=%d", plain.Steps(), chaos.Steps())
	}
	if plain.Profile() != chaos.Profile() {
		t.Fatalf("profiles differ:\nplain %+v\nchaos %+v", plain.Profile(), chaos.Profile())
	}
}

// TestLimitStopsInjection checks the fault budget.
func TestLimitStopsInjection(t *testing.T) {
	inj := New(Config{Seed: 9, PCorrupt: 1, Limit: 2})
	m := mesh.New(8, mesh.WithInjector(inj))
	for i := 0; i < 5; i++ {
		runQuiet(m)
	}
	if got := inj.Count(); got != 2 {
		t.Fatalf("injected %d faults, want exactly Limit=2", got)
	}
}

// TestEventStrings keeps the log human-readable.
func TestEventStrings(t *testing.T) {
	for _, e := range []Event{
		{Kind: "sort-lie", Op: "Sort", Items: 64, A: 12},
		{Kind: "corrupt-cell", Op: "RAR", Items: 128, A: 3, B: 77},
		{Kind: "drop-reply", Items: 64, A: 5},
		{Kind: "dup-reply", Items: 64, A: 5, B: 6},
	} {
		if e.String() == "" {
			t.Fatalf("empty String for %+v", e)
		}
	}
}
