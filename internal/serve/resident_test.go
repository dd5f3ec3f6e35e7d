package serve

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/mesh"
)

// hashVerts is an FNV-64a digest of vertex records, field by field.
func hashVerts(t *testing.T, vs []graph.Vertex) uint64 {
	h := fnv.New64a()
	if err := binary.Write(h, binary.LittleEndian, vs); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// TestRoundsLeaveResidentStructureUnchanged: a successor sees the resident
// structure itself — a cell of the Nodes register, or on the host the
// graph's own record — so one stray write through its vertex would corrupt
// the structure for every later round. Every kind's Nodes register and its
// graph's vertices must hash the same before and after rounds at batch 1
// and at a full batch, with every answer matching the host oracle. Both of
// Algorithm 1's set-up paths run: with no injector the unread scratch
// registers are charged without a sweep, and with an injector that never
// fires they are filled. The two must charge identical step profiles.
func TestRoundsLeaveResidentStructureUnchanged(t *testing.T) {
	const side = 16
	keys := make([]int64, side*side/4)
	for i := range keys {
		keys[i] = int64(2*i + 1)
	}
	ss, err := BuildStructures(side, keys, 2, 3, []Kind{KindMembership, KindPointLoc, KindInterval, KindLinePoly, KindTangent})
	if err != nil {
		t.Fatal(err)
	}
	type roundKey struct {
		kind  Kind
		batch int
	}
	profiles := map[roundKey]mesh.Profile{}
	for _, tc := range []struct {
		name string
		inj  mesh.Injector
	}{
		{"no injector", nil},
		{"zero-probability injector", faults.New(faults.Config{Seed: 1})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mesh.New(side, mesh.WithParallelism(2))
			ins := map[Kind]*core.Instance{}
			for _, k := range ss.Kinds() {
				st := ss.Get(k)
				ins[k] = core.NewInstance(m, st.Graph(), nil, st.Successor())
			}
			m.SetInjector(tc.inj)
			hashes := func() map[Kind][2]uint64 {
				out := map[Kind][2]uint64{}
				for _, k := range ss.Kinds() {
					out[k] = [2]uint64{
						hashVerts(t, mesh.Snapshot(m.Root(), ins[k].Nodes)),
						hashVerts(t, ss.Get(k).Graph().Verts),
					}
				}
				return out
			}
			before := hashes()
			for _, k := range ss.Kinds() {
				st, in := ss.Get(k), ins[k]
				for _, batch := range []int{1, m.N() / st.PerRequest()} {
					args := make([]Args, batch)
					for i := range args {
						args[i] = st.ArgsFor(int64(i * 37 % (2 * len(keys))))
					}
					m.ResetSteps()
					v := m.Root()
					in.ResetQueries(v, st.MakeQueries(args))
					st.Search(v, in)
					res := in.ResultQueries()
					for i := range args {
						if got, want := st.Extract(res, i), HostAnswer(st, args[i]); got != want {
							t.Fatalf("%s batch %d: query %d answered %+v, host oracle says %+v", k, batch, i, got, want)
						}
					}
					rk := roundKey{k, batch}
					if p, ok := profiles[rk]; !ok {
						profiles[rk] = m.Profile()
					} else if p != m.Profile() {
						t.Errorf("%s batch %d: step profile %+v, the other set-up path charged %+v", k, batch, m.Profile(), p)
					}
				}
			}
			after := hashes()
			for _, k := range ss.Kinds() {
				if before[k][0] != after[k][0] {
					t.Errorf("%s: rounds changed the resident Nodes register", k)
				}
				if before[k][1] != after[k][1] {
					t.Errorf("%s: rounds changed the host graph's vertices", k)
				}
			}
		})
	}
}
