package serve

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
)

// coreRoundPins are the allocations and bytes of one steady-state core
// round (ResetQueries, Search, ResultQueries) per kind on a side-16 mesh at
// batch 1 and at a full batch. Every kind allocates only ResultQueries'
// fresh result slice (an interval request is two mesh queries). Algorithm
// 1 (pointloc, tangent) keeps its registers on the instance; Algorithms 2/3
// (membership, interval, linepoly) keep RunParallel's per-call state and
// sub-views on the mesh, Constrained-Multisearch's step-6 body on the
// instance, and collect no per-phase statistics (core.SearchAlpha).
// Constrained-Multisearch and every charged sort take their banks from the
// mesh arena. A register-sized make (a graph.Vertex register is 48 KiB at
// side 16, a Query register 20 KiB), a bank-sized one (an int32 per
// processor is 1 KiB) or a closure per round breaks these pins.
var coreRoundPins = []struct {
	kind   Kind
	full   bool // a full batch (n mesh queries) rather than one query
	allocs float64
	bytes  uint64
}{
	{KindMembership, false, 1, 80},
	{KindMembership, true, 1, 20480},
	{KindPointLoc, false, 1, 80},
	{KindPointLoc, true, 1, 20480},
	{KindInterval, false, 1, 160},
	{KindInterval, true, 1, 20480},
	{KindLinePoly, false, 1, 80},
	{KindLinePoly, true, 1, 20480},
	{KindTangent, false, 1, 80},
	{KindTangent, true, 1, 20480},
}

// bytesSlack absorbs what other goroutines allocate while TotalAlloc, a
// process-wide counter, is read around the rounds. It is half the smallest
// bank a round could regain.
const bytesSlack = 512

func TestCoreRoundAllocsPinned(t *testing.T) {
	const side = 16
	keys := make([]int64, side*side/4)
	for i := range keys {
		keys[i] = int64(2*i + 1)
	}
	ss, err := BuildStructures(side, keys, 2, 3, []Kind{KindMembership, KindPointLoc, KindInterval, KindLinePoly, KindTangent})
	if err != nil {
		t.Fatal(err)
	}
	// One worker slot keeps the schedule (which bodies RunParallel spawns)
	// the same on every machine.
	m := mesh.New(side, mesh.WithParallelism(1))
	ins := map[Kind]*core.Instance{}
	for _, k := range ss.Kinds() {
		st := ss.Get(k)
		ins[k] = core.NewInstance(m, st.Graph(), nil, st.Successor())
	}
	// Measure with one P, as AllocsPerRun does, so the bytes count sees
	// the same schedule as the allocation count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, pin := range coreRoundPins {
		st, in := ss.Get(pin.kind), ins[pin.kind]
		batch := 1
		if pin.full {
			batch = m.N() / st.PerRequest()
		}
		args := make([]Args, batch)
		for i := range args {
			args[i] = st.ArgsFor(int64(i * 37 % (2 * len(keys))))
		}
		qs := st.MakeQueries(args)
		var res []core.Query
		round := func() {
			v := m.Root()
			in.ResetQueries(v, qs)
			st.Search(v, in)
			res = in.ResultQueries()
		}
		round() // first use allocates the instance's registers and the arena
		allocs := testing.AllocsPerRun(20, round)
		const rounds = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < rounds; r++ {
			round()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / rounds
		if allocs > pin.allocs || bytes > pin.bytes+bytesSlack {
			t.Errorf("%s batch %d: %.0f allocs and %d B per core round, pinned at %.0f allocs and %d B",
				pin.kind, batch, allocs, bytes, pin.allocs, pin.bytes)
		}
		for i := range args {
			if got, want := st.Extract(res, i), HostAnswer(st, args[i]); got != want {
				t.Fatalf("%s batch %d: query %d answered %+v, host oracle says %+v", pin.kind, batch, i, got, want)
			}
		}
		// Reading the answers out allocates nothing.
		if a := testing.AllocsPerRun(5, func() {
			for i := range args {
				st.Extract(res, i)
			}
		}); a != 0 {
			t.Errorf("%s batch %d: Extract allocates %.0f per batch, want 0", pin.kind, batch, a)
		}
	}
}

// lookupPin is the allocations and bytes, on every goroutine a lookup
// wakes, of one sequential Instance.Lookup on a side-8 instance with
// observability off, once its rounds are warm: none. The response slot,
// the batch and its argument, query and result slices, RunParallel's state
// and sub-views are all reused, and the round's run label is formatted only
// for a tracer or a failed round. The count holds under the race detector
// too: nothing on the path is kept in a sync.Pool, which the detector
// drains at random.
var lookupPin = struct {
	allocs float64
	bytes  uint64
}{0, 0}

func TestLookupAllocsPinned(t *testing.T) {
	s, err := New(Config{Side: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	ctx := context.Background()
	var key int64
	lookup := func() {
		key = (key + 1) % 40
		if _, err := s.Lookup(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		lookup() // warm the arena, the registers and the spare batch slices
	}
	// Measure with one P, as AllocsPerRun does, so the bytes count sees
	// the same schedule as the allocation count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := testing.AllocsPerRun(50, lookup)
	const lookups = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < lookups; i++ {
		lookup()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / lookups
	t.Logf("%.0f allocs and %d B per lookup", allocs, bytes)
	if allocs > lookupPin.allocs || bytes > lookupPin.bytes+bytesSlack {
		t.Errorf("%.0f allocs and %d B per lookup, pinned at %.0f allocs and %d B",
			allocs, bytes, lookupPin.allocs, lookupPin.bytes)
	}
}
