// Package mesh simulates a √n×√n mesh-connected computer with exact
// parallel-step accounting.
//
// The machine model follows the SPAA'91 multisearch paper: n processors in a
// square grid, each with O(1) registers, each able to exchange O(1) words
// with its four grid neighbours per time step. The simulator is functional
// at the operation level and exact at the step level: every standard mesh
// operation (rotation, scan, sort, random-access read/write, concentration,
// segmented broadcast) computes the machine state an actual mesh program
// would produce, and charges the number of parallel steps the textbook mesh
// implementation of that operation takes.
//
// Operations executed "independently and in parallel" on disjoint submeshes
// (the paper's recurring phrase) are expressed through View values and
// RunParallel, which executes the bodies concurrently on real goroutines and
// charges the maximum cost across submeshes, exactly as wall-clock time on a
// physical mesh would behave.
//
// Two cost models are provided. CostCounted (the default) charges shearsort
// its true (⌈log₂ rows⌉+1)·(rows+cols) steps, so measured totals carry the
// well-known log factor of the simple sorter. CostTheoretical charges the
// 3·side steps of the optimal mesh sorters (Schnorr–Shamir, Thompson–Kung)
// that the paper's "standard mesh operations" presuppose. See DESIGN.md §3.
package mesh

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/freelist"
)

// CostModel selects how compound operations (sorting in particular) are
// charged. See the package comment.
type CostModel int

const (
	// CostCounted charges shearsort its real phase-by-phase step count.
	CostCounted CostModel = iota
	// CostTheoretical charges sorting the 3·side steps of the optimal
	// O(√n)-time mesh sorters assumed by the paper.
	CostTheoretical
)

func (c CostModel) String() string {
	switch c {
	case CostCounted:
		return "counted"
	case CostTheoretical:
		return "theoretical"
	default:
		return fmt.Sprintf("CostModel(%d)", int(c))
	}
}

// Mesh is a Side×Side mesh-connected computer. The zero value is not usable;
// call New.
type Mesh struct {
	side  int
	n     int
	model CostModel

	root sink

	// parallelism limits concurrent submesh bodies in RunParallel. A body
	// that takes a slot travels to its goroutine through handoff, whose
	// buffer matches sem's: at most one body waits per slot held. spawn is
	// the goroutine's function, bound once (see Mesh.spawned).
	sem     chan struct{}
	handoff chan parTask
	spawn   func()

	// pools is the scratch-buffer arena: one free list per element type
	// (see arena.go). runs keeps RunParallel's per-call state.
	pools sync.Map
	runs  freelist.List[*parRun]

	// Run control (see errors.go). budget 0 means unlimited; done is the
	// Done channel of the context installed with WithContext (nil when the
	// mesh is not cancellable); inj and audit are the fault-injection and
	// audit-mode hooks (see inject.go).
	budget int64
	done   <-chan struct{}
	ctx    context.Context
	inj    Injector
	audit  bool
	tracer Tracer
}

// sink accumulates parallel steps and their per-operation breakdown. Each
// goroutine executing a submesh body owns its sink exclusively; no locking
// is needed. parent and base link a submesh sink back to the chain that
// spawned it: base is the parallel time already elapsed on that chain when
// the sink started, so base+steps is the exact critical-chain clock at any
// moment — what the budget guard compares against. Ancestor sinks are only
// written while their goroutine is blocked waiting on this one, so reading
// up the chain is race-free.
type sink struct {
	steps  int64
	prof   Profile
	parent *sink
	base   int64

	// tc collects tracing spans for this chain (nil when tracing is off).
	// It follows the same ownership discipline as the step fields: one
	// goroutine at a time, forked and merged at the parallel boundaries.
	tc TraceContext
}

// Option configures a Mesh.
type Option func(*Mesh)

// WithCostModel selects the cost model (default CostCounted).
func WithCostModel(m CostModel) Option {
	return func(ms *Mesh) { ms.model = m }
}

// WithParallelism bounds the number of goroutines used for concurrent
// submesh execution (default runtime.GOMAXPROCS(0)).
func WithParallelism(p int) Option {
	return func(ms *Mesh) {
		if p < 1 {
			p = 1
		}
		ms.sem = make(chan struct{}, p)
	}
}

// WithBudget installs a step budget: as soon as the simulated parallel time
// of any run passes steps, the in-flight operation aborts by panicking with
// a *BudgetExceededError carrying the per-op Profile breakdown of the
// critical chain. The panic is contained by core.Run / bench.SafeRun.
// Callers set the budget to a configured multiple of a run's theoretical
// bound (e.g. c·√n for a Theorem 2 experiment), turning the paper's bounds
// into an enforced runtime contract. steps ≤ 0 means unlimited.
func WithBudget(steps int64) Option {
	return func(ms *Mesh) {
		if steps < 0 {
			steps = 0
		}
		ms.budget = steps
	}
}

// WithContext makes every mesh operation on this machine cancellable: once
// ctx is done, the next charge aborts the run by panicking with a
// *CanceledError (contained by core.Run / bench.SafeRun). The check is one
// non-blocking channel poll per charged operation — not per processor — so
// the hot path is unaffected.
func WithContext(ctx context.Context) Option {
	return func(ms *Mesh) {
		if ctx == nil {
			return
		}
		ms.ctx = ctx
		ms.done = ctx.Done()
	}
}

// WithInjector installs a fault injector (see inject.go). nil (the default)
// disables injection at the cost of one pointer check per operation.
func WithInjector(inj Injector) Option {
	return func(ms *Mesh) { ms.inj = inj }
}

// WithAudit enables audit mode: every sort is verified against a reference
// stable sort, every scan against the prefix identity, and every RAR/RAW
// delivery against a host-side oracle. A violation panics with a typed
// *AuditError (contained by core.Run / bench.SafeRun). Audit checks only
// observe — they charge no steps and never alter machine state — so audited
// runs produce byte-identical step tables; they do allocate, so audit mode
// is for verification runs, not benchmarks.
func WithAudit() Option {
	return func(ms *Mesh) { ms.audit = true }
}

// SetAudit toggles audit mode (see WithAudit) on a quiescent mesh. It is
// the recovery ladder's escalation seam: a serving layer re-executes a
// failed round with auditing forced on without rebuilding the mesh (and the
// registers resident on it). The caller must guarantee no operation is in
// flight — call it between runs, from the goroutine that issues the mesh's
// operations; submesh goroutines spawned afterwards observe the new value
// through RunParallel's happens-before edge.
func (m *Mesh) SetAudit(on bool) { m.audit = on }

// Audit reports whether audit mode is currently enabled.
func (m *Mesh) Audit() bool { return m.audit }

// SetInjector installs (or, with nil, removes) the fault injector on a
// quiescent mesh, under the same caller contract as SetAudit. It exists so a
// serving layer can build its resident data structure fault-free — a fault
// injected during host-side setup would surface outside any containment
// boundary — and begin chaos only once serving rounds start.
func (m *Mesh) SetInjector(inj Injector) { m.inj = inj }

// Injector returns the installed fault injector, or nil when injection is
// off.
func (m *Mesh) Injector() Injector { return m.inj }

// New creates a side×side mesh. side must be a positive power of two: the
// recursive submesh partitionings of the multisearch algorithms require
// every grid refinement to divide evenly.
func New(side int, opts ...Option) *Mesh {
	if side <= 0 || side&(side-1) != 0 {
		panic(fmt.Sprintf("mesh: side must be a positive power of two, got %d", side))
	}
	m := &Mesh{side: side, n: side * side}
	for _, o := range opts {
		o(m)
	}
	if m.sem == nil {
		m.sem = make(chan struct{}, runtime.GOMAXPROCS(0))
	}
	m.handoff = make(chan parTask, cap(m.sem))
	m.spawn = m.spawned
	if m.tracer != nil {
		m.root.tc = m.tracer.Attach(m.geometry())
	}
	return m
}

// Side returns the side length √n of the mesh.
func (m *Mesh) Side() int { return m.side }

// N returns the number of processors, Side².
func (m *Mesh) N() int { return m.n }

// Model returns the active cost model.
func (m *Mesh) Model() CostModel { return m.model }

// Steps returns the accumulated simulated parallel time, in mesh steps.
func (m *Mesh) Steps() int64 { return m.root.steps }

// ResetSteps zeroes the step clock and its per-operation profile (registers
// are untouched). With a tracer installed it also starts a fresh traced run:
// spans recorded before the reset stay with the previous run's clock.
func (m *Mesh) ResetSteps() {
	m.root = sink{}
	if m.tracer != nil {
		m.root.tc = m.tracer.Attach(m.geometry())
	}
}

// Root returns the View covering the whole mesh.
func (m *Mesh) Root() View {
	return View{m: m, sink: &m.root, r0: 0, c0: 0, h: m.side, w: m.side}
}

// View is a rectangular region of the mesh on which operations execute.
// Local indices are row-major within the view: local index i corresponds to
// view coordinates (i/w, i%w). All standard operations charge their step
// cost to the view's cost sink.
type View struct {
	m    *Mesh
	sink *sink
	r0   int
	c0   int
	h, w int

	// attr, when nonzero, attributes every charge to OpClass(attr-1): a
	// compound operation (RAR, Concentrate, ...) sets it via begin so the
	// sorts and scans it is built from are charged to the compound op in
	// the profile. Zero means charges keep the class the primitive reports.
	attr int8
}

// Mesh returns the underlying machine.
func (v View) Mesh() *Mesh { return v.m }

// Rows returns the number of rows in the view.
func (v View) Rows() int { return v.h }

// Cols returns the number of columns in the view.
func (v View) Cols() int { return v.w }

// Size returns the number of processors in the view.
func (v View) Size() int { return v.h * v.w }

// Origin returns the global (row, col) of the view's top-left processor.
func (v View) Origin() (row, col int) { return v.r0, v.c0 }

// Global converts a local row-major index to the global row-major processor
// index. local must lie in [0, Size()): an out-of-range local index would
// silently address a processor outside the view — corrupting a neighbouring
// submesh — so it panics instead. A view of whole rows (such as the root
// view) maps local indices by an offset, and a view whose width is a power
// of two (every Partition view) by a shift and a mask, without dividing.
func (v View) Global(local int) int {
	if local < 0 || local >= v.h*v.w {
		panic(fmt.Sprintf("mesh: local index %d out of %dx%d view at origin (%d,%d)",
			local, v.h, v.w, v.r0, v.c0))
	}
	switch w := v.w; {
	case w == v.m.side:
		return v.r0*w + local
	case w&(w-1) == 0:
		s := bits.TrailingZeros(uint(w))
		return (v.r0+local>>s)*v.m.side + v.c0 + local&(w-1)
	default:
		return (v.r0+local/w)*v.m.side + v.c0 + local%w
	}
}

// Local converts a global processor index to a local row-major index and
// reports whether the processor lies in the view.
func (v View) Local(global int) (int, bool) {
	r, c := global/v.m.side, global%v.m.side
	r -= v.r0
	c -= v.c0
	if r < 0 || r >= v.h || c < 0 || c >= v.w {
		return 0, false
	}
	return r*v.w + c, true
}

// Sub returns the sub-view at local offset (r0, c0) with h rows and w cols.
func (v View) Sub(r0, c0, h, w int) View {
	if r0 < 0 || c0 < 0 || r0+h > v.h || c0+w > v.w || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("mesh: Sub(%d,%d,%d,%d) out of %dx%d view", r0, c0, h, w, v.h, v.w))
	}
	return View{m: v.m, sink: v.sink, r0: v.r0 + r0, c0: v.c0 + c0, h: h, w: w}
}

// Partition splits the view into a gr×gc grid of equal sub-views, returned
// in row-major grid order. gr must divide Rows and gc must divide Cols.
func (v View) Partition(gr, gc int) []View {
	return v.appendPartition(make([]View, 0, gr*gc), gr, gc)
}

// appendPartition appends Partition's sub-views to dst.
func (v View) appendPartition(dst []View, gr, gc int) []View {
	if gr <= 0 || gc <= 0 || v.h%gr != 0 || v.w%gc != 0 {
		panic(fmt.Sprintf("mesh: Partition(%d,%d) does not divide %dx%d view", gr, gc, v.h, v.w))
	}
	sh, sw := v.h/gr, v.w/gc
	for r := 0; r < gr; r++ {
		for c := 0; c < gc; c++ {
			dst = append(dst, v.Sub(r*sh, c*sw, sh, sw))
		}
	}
	return dst
}

// charge adds steps to the view's cost sink, attributed to class c in the
// profile (or to the enclosing compound operation when attr is set).
func (v View) charge(c OpClass, steps int64) {
	if steps < 0 {
		panic("mesh: negative charge")
	}
	if v.attr != 0 {
		c = OpClass(v.attr - 1)
	}
	v.sink.steps += steps
	v.sink.prof.Ops[c].Steps += steps
	if v.m.budget > 0 || v.m.done != nil {
		v.checkRunControl()
	}
}

// elapsed is the exact simulated parallel time along the view's critical
// chain: the time already accumulated when its sink was spawned plus the
// sink's own clock.
func (v View) elapsed() int64 { return v.sink.base + v.sink.steps }

// chainProfile merges the per-op breakdowns up the sink chain, yielding the
// critical-chain decomposition of elapsed().
func (v View) chainProfile() Profile {
	p := v.sink.prof
	for s := v.sink.parent; s != nil; s = s.parent {
		p.add(&s.prof)
	}
	return p
}

// checkRunControl is the slow path of charge: abort the run if the step
// budget is exhausted or the installed context was canceled.
func (v View) checkRunControl() {
	m := v.m
	elapsed := v.elapsed()
	if m.budget > 0 && elapsed > m.budget {
		panic(&BudgetExceededError{
			Geom:    m.geometry(),
			Budget:  m.budget,
			Steps:   elapsed,
			Profile: v.chainProfile(),
		})
	}
	if m.done != nil {
		select {
		case <-m.done:
			panic(&CanceledError{Geom: m.geometry(), Steps: elapsed, Cause: m.ctx.Err()})
		default:
		}
	}
}

// begin records one executed operation of class c on the view's profile and
// returns a view whose subsequent charges are attributed to c. Inside an
// already-attributed view (a compound op invoking another op) it is a no-op:
// the outer operation keeps both the count and the steps.
func (v View) begin(c OpClass) View {
	if v.attr != 0 {
		return v
	}
	v.sink.prof.Ops[c].Count++
	v.attr = int8(c) + 1
	return v
}

// Charge adds an explicit step cost to the view's clock. It is exported for
// algorithm code that performs a locally-computed O(1) update on every
// processor (one parallel step). Profiled under OpLocal.
func (v View) Charge(steps int64) {
	v = v.begin(OpLocal)
	v.charge(OpLocal, steps)
}

// RunParallel executes body on each sub-view concurrently and charges the
// parent view the maximum cost incurred by any sub-view, which is the
// elapsed parallel time when disjoint submeshes run independently.
// The sub-views must be disjoint regions (not checked); bodies must only
// touch register cells inside their own sub-view.
func (v View) RunParallel(subs []View, body func(idx int, sub View)) {
	if len(subs) == 0 {
		return
	}
	p := v.m.takeRun()
	v.runParallel(p, subs, body)
}

// RunGrid partitions the view into a gr×gc grid of sub-views, as Partition
// does, and runs body on them, as RunParallel does. The sub-views live in
// the call's reused state, so a steady-state call allocates nothing; body
// receives each one as its argument.
func (v View) RunGrid(gr, gc int, body func(idx int, sub View)) {
	p := v.m.takeRun()
	p.grid = v.appendPartition(p.grid[:0], gr, gc)
	v.runParallel(p, p.grid, body)
}

// runParallel is RunParallel on the state p, which it gives back to the
// mesh when every body has finished.
func (v View) runParallel(p *parRun, subs []View, body func(idx int, sub View)) {
	p.subs, p.body = subs, body
	base := v.sink.base + v.sink.steps
	p.sinks = slices.Grow(p.sinks[:0], len(subs))[:len(subs)]
	for i := range p.sinks {
		p.sinks[i] = sink{parent: v.sink, base: base}
		if v.sink.tc != nil {
			p.sinks[i].tc = v.sink.tc.Fork()
		}
	}
	// Take the bodies in index order: spawn a body if a worker slot is free,
	// otherwise run it inline. Running inline keeps nested RunParallel calls
	// deadlock-free: a body that itself fans out never waits on slots held
	// by blocked ancestors.
	for i := p.claim(); i < len(subs); i = p.claim() {
		select {
		case v.m.sem <- struct{}{}:
			p.wg.Add(1)
			v.m.handoff <- parTask{p, i}
			go v.m.spawn()
		default:
			p.run(i)
		}
	}
	p.wg.Wait()
	// Charge the parent the elapsed parallel time: the cost of the most
	// expensive submesh. Its profile is the critical-path breakdown and is
	// merged wholesale, keeping the invariant that per-class step totals
	// sum to the step clock.
	sinks := p.sinks
	maxIdx := 0
	for i := range sinks {
		if sinks[i].steps > sinks[maxIdx].steps {
			maxIdx = i
		}
	}
	v.sink.steps += sinks[maxIdx].steps
	v.sink.prof.add(&sinks[maxIdx].prof)
	// The span tree follows the step clock: only the critical-path child's
	// spans survive into the parent chain.
	if v.sink.tc != nil {
		v.sink.tc.Merge(sinks[maxIdx].tc)
	}
	caught := p.caught
	v.m.putRun(p)
	if caught != nil {
		panic(caught)
	}
}

// parRun is the state one RunParallel call shares with the goroutines that
// run its spawned bodies. The mesh keeps finished ones for later calls
// (takeRun, putRun): every goroutine that holds one calls wg.Done as its
// last use of it, so once Wait returns the call alone holds it. A nested
// call, or a concurrent one from another body, takes its own.
type parRun struct {
	m     *Mesh
	subs  []View
	body  func(idx int, sub View)
	sinks []sink       // sinks[i] is sub-view i's clock, owned by whoever runs body i
	grid  []View       // RunGrid's sub-views
	next  atomic.Int64 // bodies claimed so far, by the caller or a spawned goroutine
	wg    sync.WaitGroup

	mu     sync.Mutex
	caught *PanicError // the first body panic
}

// takeRun returns a kept parRun, or a new one.
func (m *Mesh) takeRun() *parRun {
	if p, ok := m.runs.Get(); ok {
		return p
	}
	return &parRun{m: m}
}

// putRun keeps p for a later call, dropping what it references of the
// finished one.
func (m *Mesh) putRun(p *parRun) {
	p.subs, p.body, p.caught = nil, nil, nil
	p.next.Store(0)
	m.runs.Put(p)
}

// parTask is one body RunParallel hands to a spawned goroutine.
type parTask struct {
	p *parRun
	i int
}

// claim takes the next unstarted body of the call.
func (p *parRun) claim() int { return int(p.next.Add(1) - 1) }

// spawned is the goroutine of one spawned body. Every go statement in
// RunParallel follows the hand-off of exactly one body, so each goroutine
// receives one (with nested calls, not necessarily the one handed off just
// before it). It then keeps its worker slot and claims the call's remaining
// bodies alongside the caller, so a call spawns at most one goroutine per
// slot. No go statement carries arguments — Mesh.spawn is this method,
// bound once — so spawning allocates nothing, and a call's allocations do
// not depend on how many bodies find a free worker slot.
func (m *Mesh) spawned() {
	t := <-m.handoff
	defer func() {
		<-m.sem
		t.p.wg.Done()
	}()
	for i := t.i; i < len(t.p.subs); i = t.p.claim() {
		t.p.run(i)
	}
}

// run executes body i behind a recover. An unrecovered panic in a spawned
// goroutine kills the whole process with no chance of recovery anywhere, so
// the first panic is latched, every other submesh finishes, and RunParallel
// re-raises it on the calling goroutine, where core.Run / bench.SafeRun can
// catch it.
func (p *parRun) run(i int) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*PanicError)
			if !ok {
				pe = &PanicError{Geom: p.m.geometry(), Val: r, Stack: debug.Stack()}
			}
			p.mu.Lock()
			if p.caught == nil {
				p.caught = pe
			}
			p.mu.Unlock()
		}
	}()
	sub := p.subs[i]
	sub.sink = &p.sinks[i]
	p.body(i, sub)
}

// RunSequential executes body on each sub-view one after another, charging
// the sum of their costs (the paper's "processing some pieces in sequence").
func (v View) RunSequential(subs []View, body func(idx int, sub View)) {
	for i := range subs {
		s := sink{parent: v.sink, base: v.sink.base + v.sink.steps}
		if v.sink.tc != nil {
			s.tc = v.sink.tc.Fork()
		}
		subs[i].sink = &s
		body(i, subs[i])
		v.sink.steps += s.steps
		v.sink.prof.add(&s.prof)
		if v.sink.tc != nil {
			v.sink.tc.Merge(s.tc)
		}
	}
}

// --- cost formulas -----------------------------------------------------

// log2Ceil returns ⌈log₂ x⌉ for x ≥ 1.
func log2Ceil(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// sortCost is the charge for sorting one record per processor within the
// view into snake order.
func (v View) sortCost() int64 {
	switch v.m.model {
	case CostTheoretical:
		// Schnorr–Shamir / Thompson–Kung class sorters: 3·side + o(side).
		s := v.h
		if v.w > s {
			s = v.w
		}
		return int64(3 * s)
	default:
		// Shearsort: ⌈log₂ rows⌉+1 phases; each phase sorts all rows by
		// odd-even transposition (w steps) and all columns (h steps).
		phases := int64(log2Ceil(v.h) + 1)
		return phases * int64(v.h+v.w)
	}
}

// rowMajorSortCost adds the odd-row reversal that converts snake order to
// row-major order.
func (v View) rowMajorSortCost() int64 { return v.sortCost() + int64(v.w) }

// scanCost is the charge for a prefix scan in row-major order: scan each
// row, scan the column of row totals, then add offsets back across rows.
func (v View) scanCost() int64 { return int64(2*v.w + 2*v.h) }

// broadcastCost is the charge for one processor's value reaching all others
// (a row sweep then a column sweep).
func (v View) broadcastCost() int64 { return int64(v.h + v.w) }

// reduceCost mirrors broadcastCost in the opposite direction.
func (v View) reduceCost() int64 { return int64(v.h + v.w) }
