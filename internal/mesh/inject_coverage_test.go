package mesh

import (
	"sync"
	"testing"
)

// targetedInjector fires exactly one CorruptCell fault, at the first
// consultation whose op name matches, with chosen src/dst cells. Everything
// else stays honest. Safe for concurrent use (RunParallel).
type targetedInjector struct {
	op   string
	s, d int

	mu    sync.Mutex
	fired bool
}

func (t *targetedInjector) SortLie(string, int) int64 { return 0 }

func (t *targetedInjector) CorruptCell(op string, items int) (int, int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fired || op != t.op || items <= t.s || items <= t.d {
		return 0, 0, false
	}
	t.fired = true
	return t.s, t.d, true
}

func (t *targetedInjector) DropReply(int) (int, bool)           { return 0, false }
func (t *targetedInjector) DuplicateReply(int) (int, int, bool) { return 0, 0, false }

func (t *targetedInjector) didFire() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fired
}

// catchAudit runs f and returns the *AuditError it panics with, nil if it
// returns normally. Any other panic value is re-raised.
func catchAudit(f func()) (ae *AuditError) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if ae, ok = r.(*AuditError); !ok {
				panic(r)
			}
		}
	}()
	f()
	return nil
}

// opClassDrivers enumerates, for every charged OpClass, a representative
// operation, the op name its injection seam reports, the corrupt src/dst
// cells to request, and a driver that executes it on distinct data (so the
// corrupted cell always changes machine state). The run-time pairing with
// NumOpClasses is the coverage contract: adding an OpClass without a
// faultable, audited representative fails the test below.
var opClassDrivers = map[OpClass]struct {
	op   string
	s, d int
	run  func(m *Mesh)
}{
	OpLocal: {"Apply", 0, 1, func(m *Mesh) {
		r := NewReg[int](m)
		Apply(m.Root(), r, func(i int, cur *int) { *cur = i*7 + 11 })
	}},
	OpSort: {"Sort", 0, 1, func(m *Mesh) {
		r := NewReg[int](m)
		v := m.Root()
		xs := make([]int, v.Size())
		for i := range xs {
			xs[i] = v.Size() - i
		}
		Load(v, r, xs)
		Sort(v, r, intKey)
	}},
	OpScan: {"Scan", 0, 1, func(m *Mesh) {
		r := NewReg[int](m)
		v := m.Root()
		xs := make([]int, v.Size())
		for i := range xs {
			xs[i] = i + 1
		}
		Load(v, r, xs)
		Scan(v, r, func(a, b int) int { return a + b })
	}},
	// s=2 ≠ the broadcast source: the stale word must differ from the
	// broadcast value for the fault to be observable at all.
	OpBroadcast: {"Broadcast", 2, 1, func(m *Mesh) {
		r := NewReg[int](m)
		v := m.Root()
		xs := make([]int, v.Size())
		for i := range xs {
			xs[i] = 100 + i
		}
		Load(v, r, xs)
		Broadcast(v, r, 0)
	}},
	OpReduce: {"Reduce", 0, 1, func(m *Mesh) {
		r := NewReg[int](m)
		v := m.Root()
		xs := make([]int, v.Size())
		for i := range xs {
			xs[i] = i + 1
		}
		Load(v, r, xs)
		Reduce(v, r, func(a, b int) int { return a + b })
	}},
	OpRotate: {"RotateRows", 0, 1, func(m *Mesh) {
		r := NewReg[int](m)
		v := m.Root()
		xs := make([]int, v.Size())
		for i := range xs {
			xs[i] = i * 3
		}
		Load(v, r, xs)
		RotateRows(v, r, 1)
	}},
	OpRoute: {"RouteScratch", 0, 1, func(m *Mesh) {
		v := m.Root()
		src := make([]int, v.Size())
		for i := range src {
			src[i] = 1000 + i
		}
		dst, occ := RouteScratch(v, src, len(src), 1, func(i int) int { return len(src) - 1 - i })
		Release(m, dst)
		Release(m, occ)
	}},
	OpConcentrate: {"Concentrate", 0, 1, func(m *Mesh) {
		r := NewReg[int](m)
		v := m.Root()
		xs := make([]int, v.Size())
		for i := range xs {
			xs[i] = i
		}
		Load(v, r, xs)
		Concentrate(v, r, -1, func(x int) bool { return x%2 == 0 })
	}},
	OpRAR: {"RAR", 0, 1, func(m *Mesh) {
		v := m.Root()
		n := v.Size()
		vals := cellValues(n, func(i int) int { return i * 5 })
		RAR(v,
			func(i int) (int32, bool) { return int32(i), true },
			func(i int) *int { return &vals[i] },
			func(i int) (int32, bool) { return int32((i + 3) % n), true },
			func(int, *int, bool) {})
	}},
	OpRAW: {"RAW", 0, 1, func(m *Mesh) {
		v := m.Root()
		n := v.Size()
		RAW(v,
			func(i int) (int32, bool) { return int32(i), true },
			func(i int) (int32, int, bool) { return int32((i + 3) % n), i * 5, true },
			func(a, b int) int { return a + b },
			func(i, val int, ok bool) {})
	}},
}

// TestEveryOpClassIsFaultableAndAudited is the single coverage test the
// fault seam is pinned by: it enumerates OpClass and requires, per class,
// that (1) a representative driver exists, (2) the driver actually charges
// the class on a clean mesh, and (3) a targeted injected corruption on that
// class's op is caught by audit mode as a typed *AuditError.
func TestEveryOpClassIsFaultableAndAudited(t *testing.T) {
	if len(opClassDrivers) != int(NumOpClasses) {
		t.Fatalf("coverage map has %d drivers, want one per OpClass (%d) — "+
			"a new class needs a faultable, audited representative here", len(opClassDrivers), NumOpClasses)
	}
	for c := OpClass(0); c < NumOpClasses; c++ {
		d, ok := opClassDrivers[c]
		if !ok {
			t.Fatalf("no driver for class %v", c)
		}
		t.Run(c.String(), func(t *testing.T) {
			// Clean run: the driver must charge its class.
			clean := New(4)
			d.run(clean)
			if got := clean.Profile().Ops[c]; got.Count == 0 || got.Steps == 0 {
				t.Fatalf("driver charged class %v count=%d steps=%d, want both > 0", c, got.Count, got.Steps)
			}
			// Injected run: the corruption must reach the op and trip the audit.
			inj := &targetedInjector{op: d.op, s: d.s, d: d.d}
			m := New(4, WithAudit(), WithInjector(inj))
			ae := catchAudit(func() { d.run(m) })
			if ae == nil {
				t.Fatalf("class %v: injected corruption on %q escaped the audit (fired=%v)", c, d.op, inj.didFire())
			}
			if !inj.didFire() {
				t.Fatalf("class %v: audit fired without injection — op name %q never consulted", c, d.op)
			}
			if ae.Op == "" || ae.Detail == "" {
				t.Fatalf("class %v: audit error lacks context: %v", c, ae)
			}
		})
	}
}

// TestScanHeadCellCorruptionCaught pins the head-cell half of the scan
// audits: segment heads (and cell 0) are untouched by a segmented scan, so a
// fault landing exactly there used to be invisible to the prefix-identity
// check. Both the register SegScan and the scratch ScanScratch must flag it.
func TestScanHeadCellCorruptionCaught(t *testing.T) {
	t.Run("SegScan", func(t *testing.T) {
		inj := &targetedInjector{op: "SegScan", s: 2, d: 5} // d = a segment head
		m := New(4, WithAudit(), WithInjector(inj))
		r := NewReg[int](m)
		head := NewReg[bool](m)
		v := m.Root()
		xs := make([]int, v.Size())
		hs := make([]bool, v.Size())
		for i := range xs {
			xs[i] = i
			hs[i] = i%5 == 0
		}
		Load(v, r, xs)
		Load(v, head, hs)
		ae := catchAudit(func() {
			SegScan(v, r, head, func(a, b int) int { return max(a, b) })
		})
		if ae == nil || !inj.didFire() {
			t.Fatalf("head-cell corruption escaped the SegScan audit (err=%v fired=%v)", ae, inj.didFire())
		}
	})
	t.Run("ScanScratch", func(t *testing.T) {
		inj := &targetedInjector{op: "ScanScratch", s: 2, d: 5}
		m := New(4, WithAudit(), WithInjector(inj))
		v := m.Root()
		xs := make([]int, v.Size())
		for i := range xs {
			xs[i] = i
		}
		ae := catchAudit(func() {
			ScanScratch(v, xs, 1, func(i int) bool { return i%5 == 0 },
				func(a, b int) int { return max(a, b) })
		})
		if ae == nil || !inj.didFire() {
			t.Fatalf("head-cell corruption escaped the ScanScratch audit (err=%v fired=%v)", ae, inj.didFire())
		}
	})
}

// replyEdgeInjector drives RAR's reply-fault sweep with exact indices,
// for the drop == dupSrc edge: the dropped reply is itself the source of
// the duplication, so the duplicate delivery is the *only* delivery the
// duplication target's origin sees twice — and the dropped origin still
// sees its own (the drop skips index drop in the main sweep but dupSrc's
// value is re-sent to dupDst's origin).
type replyEdgeInjector struct {
	drop, dupSrc, dupDst int
}

func (i replyEdgeInjector) SortLie(string, int) int64                { return 0 }
func (i replyEdgeInjector) CorruptCell(string, int) (int, int, bool) { return 0, 0, false }
func (i replyEdgeInjector) DropReply(int) (int, bool)                { return i.drop, true }
func (i replyEdgeInjector) DuplicateReply(int) (int, int, bool)      { return i.dupSrc, i.dupDst, true }

// TestRARDropEqualsDupSrcEdgeIsCaught pins the reply-fault edge where the
// dropped reply index equals the duplication source: the duplication target's
// origin is delivered twice (once honestly, once as the duplicate), while the
// dropped origin is never delivered. Audit mode must flag the run — the
// double delivery fires first, before the end-of-op dropped-reply check.
func TestRARDropEqualsDupSrcEdgeIsCaught(t *testing.T) {
	inj := replyEdgeInjector{drop: 3, dupSrc: 3, dupDst: 5}
	m := New(8, WithAudit(), WithInjector(inj))
	v := m.Root()
	n := v.Size()
	vals := cellValues(n, func(i int) int { return i * 9 })
	ae := catchAudit(func() {
		RAR(v,
			func(i int) (int32, bool) { return int32(i), true },
			func(i int) *int { return &vals[i] },
			func(i int) (int32, bool) { return int32((i + 7) % n), true },
			func(int, *int, bool) {})
	})
	if ae == nil {
		t.Fatal("drop == dupSrc reply fault escaped the RAR audit")
	}
	if ae.Op != "RAR" {
		t.Fatalf("audit flagged op %q, want RAR", ae.Op)
	}
}
