package hypercube_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hypercube"
	"repro/internal/workload"
)

func TestNewValidates(t *testing.T) {
	c := hypercube.New(64, hypercube.CostCounted)
	if c.N() != 64 || c.Dim() != 6 {
		t.Fatalf("N=%d dim=%d", c.N(), c.Dim())
	}
	for _, n := range []int{0, -2, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", n)
				}
			}()
			hypercube.New(n, hypercube.CostCounted)
		}()
	}
}

func TestCostModels(t *testing.T) {
	if hypercube.CostCounted.String() != "counted" || hypercube.CostTheoretical.String() != "theoretical" {
		t.Fatal("strings")
	}
	// Bitonic d(d+1)/2 vs flashsort 3d.
	cc := hypercube.New(1024, hypercube.CostCounted)
	ct := hypercube.New(1024, hypercube.CostTheoretical)
	rc := hypercube.NewReg[int](cc)
	rt := hypercube.NewReg[int](ct)
	hypercube.Sort(rc, func(a, b int) bool { return a < b })
	hypercube.Sort(rt, func(a, b int) bool { return a < b })
	if cc.Steps() != 10*11/2 {
		t.Fatalf("bitonic cost %d", cc.Steps())
	}
	if ct.Steps() != 3*10 {
		t.Fatalf("flashsort cost %d", ct.Steps())
	}
}

func TestBasicOps(t *testing.T) {
	c := hypercube.New(16, hypercube.CostCounted)
	r := hypercube.NewReg[int](c)
	rng := rand.New(rand.NewSource(1))
	xs := make([]int, 16)
	for i := range xs {
		xs[i] = rng.Intn(100)
	}
	hypercube.Load(r, xs)
	want := 0
	for _, x := range xs {
		want += x
	}
	if got := hypercube.Reduce(r, func(a, b int) int { return a + b }); got != want {
		t.Fatalf("Reduce=%d want %d", got, want)
	}
	hypercube.Scan(r, func(a, b int) int { return a + b })
	acc := 0
	for i, x := range xs {
		acc += x
		if hypercube.At(r, i) != acc {
			t.Fatalf("prefix at %d", i)
		}
	}
	hypercube.Set(r, 3, 999)
	hypercube.Broadcast(r, 3)
	if hypercube.At(r, 15) != 999 {
		t.Fatal("broadcast")
	}
	hypercube.Fill(r, 5)
	hypercube.Apply(r, func(i, cur int) int { return cur + i })
	if hypercube.At(r, 7) != 12 {
		t.Fatal("fill+apply")
	}
	if hypercube.Count(r, func(x int) bool { return x%2 == 1 }) != 8 {
		t.Fatal("count")
	}
}

func TestSortSorts(t *testing.T) {
	c := hypercube.New(64, hypercube.CostCounted)
	r := hypercube.NewReg[int](c)
	rng := rand.New(rand.NewSource(2))
	xs := make([]int, 64)
	for i := range xs {
		xs[i] = rng.Intn(50)
	}
	hypercube.Load(r, xs)
	hypercube.Sort(r, func(a, b int) bool { return a < b })
	out := hypercube.Snapshot(r)
	for i := 1; i < len(out); i++ {
		if out[i-1] > out[i] {
			t.Fatal("not sorted")
		}
	}
}

func TestQuickRARMatchesGather(t *testing.T) {
	c := hypercube.New(16, hypercube.CostCounted)
	f := func(recKeys [16]uint8, recMask uint16, reqKeys [16]uint8) bool {
		ref := map[int32]int{}
		for i := 0; i < 16; i++ {
			if recMask&(1<<i) != 0 {
				k := int32(recKeys[i] % 8)
				if _, dup := ref[k]; dup {
					return true
				}
				ref[k] = i * 100
			}
		}
		ok := true
		hypercube.RAR(c,
			func(i int) (int32, int, bool) {
				if recMask&(1<<i) != 0 {
					return int32(recKeys[i] % 8), i * 100, true
				}
				return 0, 0, false
			},
			func(i int) (int32, bool) { return int32(reqKeys[i] % 8), true },
			func(i int, val *int, found bool) {
				want, exists := ref[int32(reqKeys[i]%8)]
				if found != exists || (found && *val != want) {
					ok = false
				}
			})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSynchronousMultisearchMatchesOracle(t *testing.T) {
	g := workload.CycleGraph(16, 16)
	rng := rand.New(rand.NewSource(3))
	qs := workload.WalkQueries(200, 37, g.N(), rng)
	want := core.Oracle(g, qs, workload.WalkSuccessor, 0)
	c := hypercube.New(256, hypercube.CostCounted)
	in := hypercube.NewInstance(c, g, qs, workload.WalkSuccessor)
	steps := hypercube.SynchronousMultisearch(in, 0)
	if steps != 37 {
		t.Fatalf("multisteps=%d", steps)
	}
	if err := core.SameOutcome(want, in.ResultQueries()); err != nil {
		t.Fatal(err)
	}
	// Cost: r multisteps, each Θ(log² n) under bitonic.
	d := int64(c.Dim())
	lower := 37 * d * d / 2
	upper := 37 * (3*d*d + 10*d + 10)
	if c.Steps() < lower || c.Steps() > upper {
		t.Fatalf("cost %d outside [%d, %d]", c.Steps(), lower, upper)
	}
}

func TestInstancePanics(t *testing.T) {
	g := workload.CycleGraph(4, 8) // 32 vertices
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("graph overflow accepted")
			}
		}()
		hypercube.NewInstance(hypercube.New(16, hypercube.CostCounted), g, nil, workload.WalkSuccessor)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("query overflow accepted")
			}
		}()
		hypercube.NewInstance(hypercube.New(32, hypercube.CostCounted), g,
			make([]core.Query, 33), workload.WalkSuccessor)
	}()
}

func TestChargePanicsOnNegative(t *testing.T) {
	c := hypercube.New(4, hypercube.CostCounted)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Charge(-1)
}
