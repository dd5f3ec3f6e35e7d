package mesh_test

// Differential test of the thin-bank RAR against RARRef, the RAR whose sort
// bank carried every record's value (rar_ref_test.go). Both run the same
// random banks on identically configured meshes — same seeded fault
// injector, audit on or off — and must produce the same delivery stream,
// the same panic or audit text, the same step charge and profile and the
// same injected faults. The clean unaudited run (no injector) takes RAR's
// hash join; every other run takes its bank path. Sides 2 to 8 keep the
// join's table on the stack, side 16 takes it from the arena. Calls are
// sequential, so the injector's decisions line up call for call (see the
// internal/faults package doc on interleaving).

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/mesh"
)

// rarBank is one random RAR workload over a view of m processors.
type rarBank struct {
	hasRec, hasReq []bool
	recKey, reqKey []int32
}

// bankShape draws banks of one kind.
type bankShape struct {
	name       string
	pRec, pReq float64
	keys       func(m int) int // key domain size
	uniqueRecs bool            // record keys are distinct (the RAR contract)
}

var bankShapes = []bankShape{
	{"empty", 0, 0, func(m int) int { return m }, true},
	{"records-only", 1, 0, func(m int) int { return m }, true},
	{"requests-only", 0, 1, func(m int) int { return m }, true},
	{"dense", 1, 1, func(m int) int { return 2 * m }, true},
	{"sparse", 0.5, 0.5, func(m int) int { return max(1, m/4) }, true},
	{"hot-key", 1, 1, func(m int) int { return 1 }, true},
	{"duplicate-records", 0.8, 0.8, func(m int) int { return max(1, m/4) }, false},
}

func drawBank(rng *rand.Rand, m int, sh bankShape) rarBank {
	b := rarBank{
		hasRec: make([]bool, m), hasReq: make([]bool, m),
		recKey: make([]int32, m), reqKey: make([]int32, m),
	}
	keys := sh.keys(m)
	perm := rng.Perm(max(keys, m))
	for i := 0; i < m; i++ {
		b.hasRec[i] = rng.Float64() < sh.pRec
		b.hasReq[i] = rng.Float64() < sh.pReq
		if sh.uniqueRecs {
			// Distinct keys from a permutation; when the domain is smaller
			// than the view, only draws inside the domain hold a record.
			b.recKey[i] = int32(perm[i])
			b.hasRec[i] = b.hasRec[i] && perm[i] < keys
		} else {
			b.recKey[i] = int32(rng.Intn(keys))
		}
		b.reqKey[i] = int32(rng.Intn(keys + 1)) // key == keys never has a record
	}
	return b
}

// delivery is one reply as its requesting processor saw it.
type delivery[V any] struct {
	origin int
	val    V
	found  bool
}

// rarOutcome is everything observable about a sequence of RAR calls.
type rarOutcome[V any] struct {
	deliveries []delivery[V]
	panicText  string
	steps      int64
	profile    mesh.Profile
	events     []faults.Event
}

// rarImpl runs one RAR over bank b with record values val.
type rarImpl[V any] func(v mesh.View, b rarBank, val func(int) V, deliver func(int, V, bool))

func thinRAR[V any](v mesh.View, b rarBank, val func(int) V, deliver func(int, V, bool)) {
	vals := make([]V, v.Size())
	for i := range vals {
		vals[i] = val(i)
	}
	mesh.RAR(v,
		func(i int) (int32, bool) { return b.recKey[i], b.hasRec[i] },
		func(i int) *V { return &vals[i] },
		func(i int) (int32, bool) { return b.reqKey[i], b.hasReq[i] },
		func(i int, p *V, found bool) {
			var x V // nil reads as the zero V
			if p != nil {
				x = *p
			}
			deliver(i, x, found)
		})
}

func refRAR[V any](v mesh.View, b rarBank, val func(int) V, deliver func(int, V, bool)) {
	mesh.RARRef(v,
		func(i int) (int32, V, bool) { return b.recKey[i], val(i), b.hasRec[i] },
		func(i int) (int32, bool) { return b.reqKey[i], b.hasReq[i] },
		deliver)
}

// runRARs runs impl over the banks in sequence on a fresh mesh, stopping at
// the first panic.
func runRARs[V any](impl rarImpl[V], side int, banks []rarBank, val func(int) V, audit bool, cfg *faults.Config) (out rarOutcome[V]) {
	var opts []mesh.Option
	if audit {
		opts = append(opts, mesh.WithAudit())
	}
	var inj *faults.Injector
	if cfg != nil {
		inj = faults.New(*cfg)
		opts = append(opts, mesh.WithInjector(inj))
	}
	m := mesh.New(side, opts...)
	defer func() {
		if r := recover(); r != nil {
			out.panicText = fmt.Sprint(r)
		}
		out.steps = m.Steps()
		out.profile = m.Profile()
		if inj != nil {
			out.events = inj.Events()
		}
	}()
	for _, b := range banks {
		impl(m.Root(), b, val, func(i int, x V, found bool) {
			out.deliveries = append(out.deliveries, delivery[V]{i, x, found})
		})
	}
	return out
}

// vertexValue is a graph.Vertex record that differs per processor in every
// field group, so a delivery of the wrong record cannot compare equal.
func vertexValue(i int) graph.Vertex {
	var v graph.Vertex
	v.ID = graph.VertexID(i)
	v.Level = int32(i % 7)
	v.Part, v.Part2 = int32(i/3), int32(i/5)
	v.Deg = int8(i % graph.MaxDegree)
	for s := range v.Adj {
		v.Adj[s] = graph.VertexID(i*graph.MaxDegree + s)
		v.AdjPart[s] = int32(i + s)
		v.AdjPart2[s] = int32(i - s)
	}
	for w := range v.Data {
		v.Data[w] = int64(i)*1000003 + int64(w)
	}
	v.ExtIdx = int32(-1 - i)
	return v
}

var faultConfigs = []struct {
	name string
	cfg  func(seed int64) *faults.Config
}{
	{"clean", func(int64) *faults.Config { return nil }},
	{"sort-lie", func(s int64) *faults.Config { return &faults.Config{Seed: s, PSortLie: 0.5} }},
	{"corrupt-cell", func(s int64) *faults.Config { return &faults.Config{Seed: s, PCorrupt: 0.5} }},
	{"drop-reply", func(s int64) *faults.Config { return &faults.Config{Seed: s, PDrop: 0.5} }},
	{"dup-reply", func(s int64) *faults.Config { return &faults.Config{Seed: s, PDup: 0.5} }},
	{"all", func(s int64) *faults.Config {
		return &faults.Config{Seed: s, PSortLie: 0.2, PCorrupt: 0.2, PDrop: 0.2, PDup: 0.2}
	}},
}

// diffRAR drives every bank shape, side, seed, fault configuration and
// audit setting through both RARs. It also requires the sweep to have
// injected faults, tripped the audit and perturbed unaudited deliveries:
// agreement on clean runs alone would prove little.
func diffRAR[V any](t *testing.T, val func(int) V) {
	const seeds, calls = 4, 3
	var events, panics, perturbed int
	for _, sh := range bankShapes {
		for _, side := range []int{2, 4, 8, 16} {
			m := side * side
			rng := rand.New(rand.NewSource(int64(side)*7919 + int64(len(sh.name))))
			for seed := int64(1); seed <= seeds; seed++ {
				banks := make([]rarBank, calls)
				for c := range banks {
					banks[c] = drawBank(rng, m, sh)
				}
				clean := runRARs(thinRAR[V], side, banks, val, false, nil)
				for _, fc := range faultConfigs {
					for _, audit := range []bool{false, true} {
						got := runRARs(thinRAR[V], side, banks, val, audit, fc.cfg(seed))
						want := runRARs(refRAR[V], side, banks, val, audit, fc.cfg(seed))
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s side %d seed %d faults %s audit %v: thin RAR diverges from the reference\n"+
								"thin: %d deliveries, panic %q, %d steps %v, events %v\n"+
								"ref:  %d deliveries, panic %q, %d steps %v, events %v",
								sh.name, side, seed, fc.name, audit,
								len(got.deliveries), got.panicText, got.steps, got.profile, got.events,
								len(want.deliveries), want.panicText, want.steps, want.profile, want.events)
						}
						events += len(got.events)
						if got.panicText != "" {
							panics++
						}
						if !audit && !reflect.DeepEqual(got.deliveries, clean.deliveries) {
							perturbed++
						}
					}
				}
			}
		}
	}
	if events == 0 || panics == 0 || perturbed == 0 {
		t.Fatalf("fault configurations too weak: %d faults injected, %d audit panics, %d perturbed unaudited streams",
			events, panics, perturbed)
	}
}

func TestRARMatchesReferenceSmallValues(t *testing.T) {
	diffRAR(t, func(i int) int64 { return int64(i)*7 - 3 })
}

func TestRARMatchesReferenceVertexValues(t *testing.T) {
	diffRAR(t, vertexValue)
}
