package serve

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/mesh"
	"repro/internal/pointloc"
	"repro/internal/polyhedron"
)

// Kind is a typed query family the serving stack can answer — the paper's
// Theorem 8 / §5–6 applications, each backed by its own resident structure
// on the shared mesh (DESIGN.md §3.10).
type Kind uint8

const (
	// KindMembership is dictionary membership over the (a,b)-tree (§4.5).
	KindMembership Kind = iota
	// KindPointLoc is planar point location over the Kirkpatrick DAG (§5).
	KindPointLoc
	// KindInterval is interval intersection counting over the rank trees
	// (Theorem 8.4's interval-stabbing family).
	KindInterval
	// KindLinePoly is vertical line–polyhedron intersection over the
	// xy-shadow wedge tree (Theorem 8.1).
	KindLinePoly
	// KindTangent is tangent-plane determination over the Dobkin–Kirkpatrick
	// hierarchy (Theorem 8.3).
	KindTangent
	// NumKinds bounds the registry.
	NumKinds
)

var kindNames = [NumKinds]string{"membership", "pointloc", "interval", "linepoly", "tangent"}

// String returns the canonical kind name used in URLs, metrics and traces.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindNames lists the canonical kind names in Kind order (obs class labels,
// metric label values).
func KindNames() []string { return append([]string(nil), kindNames[:]...) }

// MarshalJSON encodes the kind as its canonical name, keeping the HTTP
// Result wire format self-describing.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts a kind name (or legacy numeric value).
func (k *Kind) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	parsed, err := ParseKind(s)
	if err != nil {
		var n uint8
		if _, serr := fmt.Sscanf(s, "%d", &n); serr == nil && Kind(n) < NumKinds {
			*k = Kind(n)
			return nil
		}
		return err
	}
	*k = parsed
	return nil
}

// ParseKind resolves a kind name (canonical or a common alias). The empty
// string is membership, keeping pre-kind clients working unchanged.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "membership", "member", "dict":
		return KindMembership, nil
	case "pointloc", "point-location", "pointlocation":
		return KindPointLoc, nil
	case "interval", "interval-stab", "intervalstab":
		return KindInterval, nil
	case "linepoly", "line-poly", "line-polyhedron", "linestab":
		return KindLinePoly, nil
	case "tangent", "tangent-plane", "tangentplane":
		return KindTangent, nil
	}
	return 0, fmt.Errorf("serve: unknown query kind %q", s)
}

// Args is one query's arguments, interpreted per kind:
//
//	membership: [needle, -, -]
//	pointloc:   [x, y, -]
//	interval:   [lo, hi, -]
//	linepoly:   [x, y, -]
//	tangent:    [dx, dy, dz]
type Args [3]int64

// Answer is one query's kind-generic result: Value is the primary answer
// (leaf key, triangle index, intersection count, wedge index, extreme
// vertex index), Aux a secondary one (the tangent plane offset d·v), Found
// the family's hit bit, and Steps the search-path length.
type Answer struct {
	Value int64
	Aux   int64
	Found bool
	Steps int32
}

// Structure is one resident query family: the built graph, the successor
// that drives its on-line search, the multisearch algorithm that serves a
// round of it, and the query/answer marshalling around a batch. Every
// method except Search is host-side and read-only after construction.
type Structure interface {
	Kind() Kind
	// Graph exposes the built structure (host descents, fit checks).
	Graph() *graph.Graph
	// Successor is the on-line search function of §2 for this family.
	Successor() core.Successor
	// PerRequest is how many mesh queries one request expands to
	// (interval counting issues two rank descents per request).
	PerRequest() int
	// MakeQueries expands a batch of requests into start-configured
	// queries, in a fresh slice.
	MakeQueries(args []Args) []core.Query
	// AppendQueries is MakeQueries appending to dst: the executor reuses
	// one slice per kind.
	AppendQueries(dst []core.Query, args []Args) []core.Query
	// Extract collapses request i's PerRequest finished queries into its
	// answer.
	Extract(qs []core.Query, i int) Answer
	// Search runs one multisearch round over the already-reset queries.
	Search(v mesh.View, in *core.Instance)
	// ArgsFor maps an arbitrary int64 draw onto valid arguments for this
	// family — the load generator's seam, deterministic in the draw.
	ArgsFor(needle int64) Args
	// Canary is a small probe set spanning the family's domain.
	Canary() []Args
}

// HostAnswer answers one request sequentially on the host by descending the
// structure's graph with its own successor — the fleet oracle rung's answer.
// Identical descent, identical Value/Found/Steps as a faithful mesh round;
// correct, but unaccounted in simulated mesh steps.
func HostAnswer(st Structure, a Args) Answer {
	qs := st.MakeQueries([]Args{a})
	g := st.Graph()
	f := st.Successor()
	for i := range qs {
		q := &qs[i]
		for !q.Done {
			core.Visit(f, &g.Verts[q.Cur], q)
		}
	}
	return st.Extract(qs, 0)
}

// StructureSet is the kind registry of one instance: the structures
// resident on its mesh, indexed by Kind.
type StructureSet struct {
	byKind [NumKinds]Structure
	kinds  []Kind
}

// Get returns the structure serving kind k, or nil if the kind is not
// enabled on this instance.
func (ss *StructureSet) Get(k Kind) Structure {
	if ss == nil || k >= NumKinds {
		return nil
	}
	return ss.byKind[k]
}

// Kinds lists the enabled kinds in registry order.
func (ss *StructureSet) Kinds() []Kind { return append([]Kind(nil), ss.kinds...) }

// Membership returns the resident dictionary (always enabled).
func (ss *StructureSet) Membership() *dict.BTree {
	return ss.byKind[KindMembership].(*membershipStructure).bt
}

// DefaultKeys is the dictionary key set every instance serves: the first k
// odd integers 1, 3, …, 2k−1, so even needles miss and odd needles below the
// range hit. New serves DefaultKeys(n/4); a client can rebuild the same
// structures from the side and key count a server reports.
func DefaultKeys(k int) []int64 {
	keys := make([]int64, k)
	for i := range keys {
		keys[i] = int64(2*i + 1)
	}
	return keys
}

// BuildStructures builds the resident structures for the requested kinds,
// deterministically from (side, keys): the same inputs always produce the
// same structures, so a remote load generator can rebuild the set host-side
// for oracle checking. Membership is always included; every other kind's
// synthetic input is sized to fit the mesh (and shrunk until it does).
func BuildStructures(side int, keys []int64, a, b int, kinds []Kind) (*StructureSet, error) {
	n := side * side
	bt := dict.New(keys, a, b)
	if bt.G.N() > n {
		return nil, fmt.Errorf("serve: (%d,%d)-tree over %d keys needs %d processors, mesh has %d",
			a, b, len(keys), bt.G.N(), n)
	}
	ss := &StructureSet{}
	ss.byKind[KindMembership] = newMembershipStructure(bt)
	ss.kinds = []Kind{KindMembership}
	want := [NumKinds]bool{}
	for _, k := range kinds {
		if k < NumKinds {
			want[k] = true
		}
	}
	for k := Kind(0); k < NumKinds; k++ {
		if !want[k] || ss.byKind[k] != nil {
			continue
		}
		st, err := buildKind(k, side, n, len(keys))
		if err != nil {
			return nil, fmt.Errorf("serve: building %s structure: %w", k, err)
		}
		ss.byKind[k] = st
		ss.kinds = append(ss.kinds, k)
	}
	return ss, nil
}

func buildKind(k Kind, side, n, numKeys int) (Structure, error) {
	switch k {
	case KindPointLoc:
		return buildPointLoc(side, n)
	case KindInterval:
		return buildInterval(n, numKeys)
	case KindLinePoly, KindTangent:
		return buildHullKind(k, side, n)
	}
	return nil, fmt.Errorf("unknown kind %d", k)
}

// mix is splitmix64: the deterministic draw → argument expansion shared by
// ArgsFor implementations and the synthetic structure inputs.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mixRange maps draw x onto [lo, hi] (inclusive), deterministically.
func mixRange(x uint64, lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	span := uint64(hi - lo + 1)
	return lo + int64(mix(x)%span)
}

// ---------------------------------------------------------------- membership

type membershipStructure struct {
	bt      *dict.BTree
	maxPart int
}

func newMembershipStructure(bt *dict.BTree) *membershipStructure {
	return &membershipStructure{bt: bt, maxPart: bt.InstallSplitter()}
}

func (s *membershipStructure) Kind() Kind                { return KindMembership }
func (s *membershipStructure) Graph() *graph.Graph       { return s.bt.G }
func (s *membershipStructure) Successor() core.Successor { return dict.Successor }
func (s *membershipStructure) PerRequest() int           { return 1 }
func (s *membershipStructure) ArgsFor(needle int64) Args { return Args{needle} }

func (s *membershipStructure) MakeQueries(args []Args) []core.Query {
	return s.AppendQueries(make([]core.Query, 0, len(args)), args)
}

func (s *membershipStructure) AppendQueries(dst []core.Query, args []Args) []core.Query {
	for _, a := range args {
		dst = append(dst, s.bt.Query(a[0]))
	}
	return dst
}

func (s *membershipStructure) Extract(qs []core.Query, i int) Answer {
	q := qs[i]
	return Answer{Value: q.State[dict.StateLeafKey], Found: dict.Member(q), Steps: q.Steps}
}

func (s *membershipStructure) Search(v mesh.View, in *core.Instance) {
	core.SearchAlpha(v, in, s.maxPart, 0)
}

func (s *membershipStructure) Canary() []Args {
	ks := s.bt.Keys
	probes := []int64{ks[0], ks[len(ks)/2], ks[len(ks)-1], ks[0] - 1, ks[len(ks)-1] + 1, ks[len(ks)/2] + 1}
	out := make([]Args, len(probes))
	for i, k := range probes {
		out[i] = Args{k}
	}
	return out
}

// ------------------------------------------------------------------ pointloc

type pointlocStructure struct {
	h    *pointloc.Hierarchy
	plan *core.HDagPlan
	// Query domain: the input points' bounding box (always inside the
	// super-triangle).
	minX, maxX, minY, maxY int64
}

// buildPointLoc triangulates a deterministic synthetic point set sized to
// the mesh and builds the Kirkpatrick DAG; the set shrinks until the DAG
// fits. Seeds step on the rare degenerate set the coarsening rejects.
func buildPointLoc(side, n int) (Structure, error) {
	pts := 0
	for npts := max(8, n/16); npts >= 8; npts /= 2 {
		pts = npts
		for seed := uint64(1); seed <= 8; seed++ {
			in := make([]geom.Point2, npts)
			used := map[geom.Point2]bool{}
			for i := range in {
				for {
					p := geom.Point2{
						X: mixRange(mix(seed*1_000_003+uint64(i)*2), -1<<16, 1<<16),
						Y: mixRange(mix(seed*1_000_003+uint64(i)*2+1), -1<<16, 1<<16),
					}
					if !used[p] {
						used[p] = true
						in[i] = p
						break
					}
				}
			}
			h, err := pointloc.Build(in)
			if err != nil {
				continue
			}
			if h.Dag.Graph.N() > n {
				break // too big at this size: shrink
			}
			plan, err := core.PlanHDag(h.Dag, side)
			if err != nil {
				continue
			}
			st := &pointlocStructure{h: h, plan: plan}
			st.minX, st.maxX, st.minY, st.maxY = bbox2(in)
			return st, nil
		}
	}
	return nil, fmt.Errorf("no point set of ≤ %d points yields a DAG fitting %d processors", pts, n)
}

func bbox2(pts []geom.Point2) (minX, maxX, minY, maxY int64) {
	minX, maxX, minY, maxY = pts[0].X, pts[0].X, pts[0].Y, pts[0].Y
	for _, p := range pts[1:] {
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	return
}

func (s *pointlocStructure) Kind() Kind                { return KindPointLoc }
func (s *pointlocStructure) Graph() *graph.Graph       { return s.h.Dag.Graph }
func (s *pointlocStructure) Successor() core.Successor { return s.h.Successor() }
func (s *pointlocStructure) PerRequest() int           { return 1 }

func (s *pointlocStructure) ArgsFor(needle int64) Args {
	x := uint64(needle)
	return Args{mixRange(x*2+1, s.minX, s.maxX), mixRange(x*2+2, s.minY, s.maxY)}
}

func (s *pointlocStructure) MakeQueries(args []Args) []core.Query {
	return s.AppendQueries(make([]core.Query, 0, len(args)), args)
}

func (s *pointlocStructure) AppendQueries(dst []core.Query, args []Args) []core.Query {
	for _, a := range args {
		dst = append(dst, s.h.Query(geom.Point2{X: a[0], Y: a[1]}))
	}
	return dst
}

func (s *pointlocStructure) Extract(qs []core.Query, i int) Answer {
	q := qs[i]
	return Answer{Value: int64(pointloc.Answer(q)), Found: pointloc.Answer(q) >= 0, Steps: q.Steps}
}

func (s *pointlocStructure) Search(v mesh.View, in *core.Instance) {
	core.MultisearchHDag(v, in, s.plan)
}

func (s *pointlocStructure) Canary() []Args {
	cx, cy := (s.minX+s.maxX)/2, (s.minY+s.maxY)/2
	return []Args{
		{s.minX, s.minY}, {s.maxX, s.minY}, {s.minX, s.maxY}, {s.maxX, s.maxY}, {cx, cy},
	}
}

// ------------------------------------------------------------------ interval

type intervalStructure struct {
	ct      *interval.CountTree
	maxPart int
	// Query domain: the endpoint value range.
	lo, hi int64
}

// buildInterval builds the two-rank-tree counting structure over a
// deterministic synthetic interval set sized to fit the mesh. The endpoint
// domain matches the membership needle domain [0, 2·keys) so one key draw
// parameterizes every kind.
func buildInterval(n, numKeys int) (Structure, error) {
	domain := int64(2 * numKeys)
	if domain < 16 {
		domain = 16
	}
	for num := max(4, n/16); num >= 2; num /= 2 {
		set := make([]interval.Interval, num)
		for i := range set {
			lo := mixRange(uint64(i)*2+101, 0, domain-1)
			length := mixRange(uint64(i)*2+102, 0, domain/4)
			set[i] = interval.Interval{Lo: lo, Hi: min(lo+length, domain-1)}
		}
		ct := interval.NewCountTree(set)
		if ct.NumVert > n {
			continue
		}
		return &intervalStructure{ct: ct, maxPart: ct.InstallSplitter(), lo: 0, hi: domain - 1}, nil
	}
	return nil, fmt.Errorf("no interval set fits %d processors", n)
}

func (s *intervalStructure) Kind() Kind                { return KindInterval }
func (s *intervalStructure) Graph() *graph.Graph       { return s.ct.G }
func (s *intervalStructure) Successor() core.Successor { return interval.CountSuccessor }
func (s *intervalStructure) PerRequest() int           { return 2 }

func (s *intervalStructure) ArgsFor(needle int64) Args {
	x := uint64(needle)
	a := mixRange(x*2+3, s.lo, s.hi)
	b := min(a+mixRange(x*2+4, 0, (s.hi-s.lo)/8), s.hi)
	return Args{a, b}
}

func (s *intervalStructure) MakeQueries(args []Args) []core.Query {
	return s.AppendQueries(make([]core.Query, 0, 2*len(args)), args)
}

func (s *intervalStructure) AppendQueries(dst []core.Query, args []Args) []core.Query {
	for _, a := range args {
		dst = s.ct.AppendQueries(dst, a[0], a[1])
	}
	return dst
}

func (s *intervalStructure) Extract(qs []core.Query, i int) Answer {
	count := s.ct.Count(qs, i)
	return Answer{Value: count, Found: count > 0, Steps: qs[2*i].Steps + qs[2*i+1].Steps}
}

func (s *intervalStructure) Search(v mesh.View, in *core.Instance) {
	core.SearchAlpha(v, in, s.maxPart, 0)
}

func (s *intervalStructure) Canary() []Args {
	mid := (s.lo + s.hi) / 2
	return []Args{
		{s.lo, s.hi},          // everything
		{s.lo - 10, s.lo - 5}, // below the domain: empty
		{mid, mid},            // point stab
		{mid, s.hi},           // upper half
	}
}

// -------------------------------------------------- linepoly / tangent hull

// buildHullKind builds the shared convex polyhedron input (deterministic
// sphere points) and the requested structure over it: the DK hierarchy for
// tangent-plane queries, the xy-shadow wedge tree for line stabbing.
func buildHullKind(k Kind, side, n int) (Structure, error) {
	for npts := max(8, min(128, n/8)); npts >= 8; npts /= 2 {
		rng := rand.New(rand.NewSource(42))
		pts := geom.RandomSpherePoints(npts, 1<<16, rng)
		poly, err := geom.ConvexHull3D(pts)
		if err != nil {
			continue
		}
		if k == KindTangent {
			h, err := polyhedron.Build(poly)
			if err != nil {
				continue
			}
			if h.Dag.Graph.N() > n {
				continue
			}
			plan, err := core.PlanHDag(h.Dag, side)
			if err != nil {
				continue
			}
			return &tangentStructure{h: h, plan: plan}, nil
		}
		ls, err := polyhedron.NewLineStab(poly)
		if err != nil {
			continue
		}
		if ls.G.N() > n {
			continue
		}
		st := &linepolyStructure{ls: ls, maxPart: ls.InstallSplitter()}
		st.minX, st.maxX, st.minY, st.maxY = bbox2(ls.Hull)
		return st, nil
	}
	return nil, fmt.Errorf("no hull fits %d processors", n)
}

type linepolyStructure struct {
	ls      *polyhedron.LineStab
	maxPart int
	// Query domain: the shadow bounding box, padded so ~1/3 of draws miss.
	minX, maxX, minY, maxY int64
}

func (s *linepolyStructure) Kind() Kind                { return KindLinePoly }
func (s *linepolyStructure) Graph() *graph.Graph       { return s.ls.G }
func (s *linepolyStructure) Successor() core.Successor { return polyhedron.StabSuccessor }
func (s *linepolyStructure) PerRequest() int           { return 1 }

func (s *linepolyStructure) ArgsFor(needle int64) Args {
	x := uint64(needle)
	padX, padY := (s.maxX-s.minX)/4+1, (s.maxY-s.minY)/4+1
	return Args{
		mixRange(x*2+5, s.minX-padX, s.maxX+padX),
		mixRange(x*2+6, s.minY-padY, s.maxY+padY),
	}
}

func (s *linepolyStructure) MakeQueries(args []Args) []core.Query {
	return s.AppendQueries(make([]core.Query, 0, len(args)), args)
}

func (s *linepolyStructure) AppendQueries(dst []core.Query, args []Args) []core.Query {
	for _, a := range args {
		dst = append(dst, s.ls.StabQuery(geom.Point2{X: a[0], Y: a[1]}))
	}
	return dst
}

func (s *linepolyStructure) Extract(qs []core.Query, i int) Answer {
	q := qs[i]
	return Answer{Value: polyhedron.StabSector(q), Found: polyhedron.Stabbed(q), Steps: q.Steps}
}

func (s *linepolyStructure) Search(v mesh.View, in *core.Instance) {
	core.SearchAlpha(v, in, s.maxPart, 0)
}

func (s *linepolyStructure) Canary() []Args {
	h := s.ls.Hull
	var cx, cy int64
	for _, p := range h {
		cx, cy = cx+p.X, cy+p.Y
	}
	cx, cy = cx/int64(len(h)), cy/int64(len(h))
	return []Args{
		{h[0].X, h[0].Y},                     // hull vertex: hit
		{cx, cy},                             // centroid: hit
		{s.maxX + (s.maxX - s.minX), cy},     // far outside: miss
		{s.minX - (s.maxX - s.minX), s.minY}, // far outside: miss
	}
}

type tangentStructure struct {
	h    *polyhedron.Hierarchy
	plan *core.HDagPlan
}

func (s *tangentStructure) Kind() Kind                { return KindTangent }
func (s *tangentStructure) Graph() *graph.Graph       { return s.h.Dag.Graph }
func (s *tangentStructure) Successor() core.Successor { return s.h.Successor() }
func (s *tangentStructure) PerRequest() int           { return 1 }

const tangentDirBound = 1 << 10

func (s *tangentStructure) ArgsFor(needle int64) Args {
	x := uint64(needle)
	a := Args{
		mixRange(x*3+7, -tangentDirBound, tangentDirBound),
		mixRange(x*3+8, -tangentDirBound, tangentDirBound),
		mixRange(x*3+9, -tangentDirBound, tangentDirBound),
	}
	if a[0] == 0 && a[1] == 0 && a[2] == 0 {
		a[2] = 1
	}
	return a
}

func (s *tangentStructure) MakeQueries(args []Args) []core.Query {
	return s.AppendQueries(make([]core.Query, 0, len(args)), args)
}

func (s *tangentStructure) AppendQueries(dst []core.Query, args []Args) []core.Query {
	for _, a := range args {
		dst = append(dst, s.h.Query(geom.Point3{X: a[0], Y: a[1], Z: a[2]}))
	}
	return dst
}

func (s *tangentStructure) Extract(qs []core.Query, i int) Answer {
	q := qs[i]
	idx := polyhedron.Answer(q)
	if idx < 0 {
		return Answer{Value: -1, Steps: q.Steps}
	}
	d := geom.Point3{X: q.State[polyhedron.StateDX], Y: q.State[polyhedron.StateDY], Z: q.State[polyhedron.StateDZ]}
	return Answer{
		Value: int64(idx),
		Aux:   geom.Dot3(d, s.h.Poly.Pts[idx]),
		Found: idx >= 0,
		Steps: q.Steps,
	}
}

func (s *tangentStructure) Search(v mesh.View, in *core.Instance) {
	core.MultisearchHDag(v, in, s.plan)
}

func (s *tangentStructure) Canary() []Args {
	return []Args{
		{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
	}
}
