package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/serve"
)

// KindMix is a weighted distribution over query kinds — the workload knob
// that turns the single-family generator into a mixed-workload one. Weights
// are normalized at parse time, so "membership:3,pointloc:1" and
// "membership:0.75,pointloc:0.25" describe the same mix.
type KindMix struct {
	kinds []serve.Kind
	share []float64 // normalized weights, each positive
	cum   []float64 // cumulative shares, nondecreasing, cum[len-1] == 1
}

// ParseKindMix parses a mix spec: comma-separated kind:weight pairs
// ("membership:0.6,pointloc:0.3,interval:0.1"), a bare kind name
// ("pointloc" — weight 1), or the empty string (membership only). Kind
// names accept the same aliases as /search?kind=.
func ParseKindMix(spec string) (*KindMix, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return SingleKind(serve.KindMembership), nil
	}
	var kinds []serve.Kind
	var weights []float64
	seen := map[serve.Kind]bool{}
	for _, part := range strings.Split(spec, ",") {
		name, wstr, hasW := strings.Cut(strings.TrimSpace(part), ":")
		k, err := serve.ParseKind(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("loadgen: kind mix %q: %w", spec, err)
		}
		w := 1.0
		if hasW {
			w, err = strconv.ParseFloat(strings.TrimSpace(wstr), 64)
			if err != nil || !(w > 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("loadgen: kind mix %q: weight for %s must be a positive finite number", spec, k)
			}
		}
		if seen[k] {
			return nil, fmt.Errorf("loadgen: kind mix %q: kind %s appears twice", spec, k)
		}
		seen[k] = true
		kinds = append(kinds, k)
		weights = append(weights, w)
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if math.IsInf(sum, 1) {
		return nil, fmt.Errorf("loadgen: kind mix %q: the weights' sum overflows", spec)
	}
	m := &KindMix{kinds: kinds, share: make([]float64, len(weights)), cum: make([]float64, len(weights))}
	acc := 0.0
	for i, w := range weights {
		if m.share[i] = w / sum; m.share[i] == 0 {
			return nil, fmt.Errorf("loadgen: kind mix %q: weight for %s vanishes next to the others", spec, kinds[i])
		}
		acc += m.share[i]
		m.cum[i] = min(acc, 1) // absorb rounding
	}
	m.cum[len(m.cum)-1] = 1
	return m, nil
}

// SingleKind is the degenerate mix: every draw returns k.
func SingleKind(k serve.Kind) *KindMix {
	return &KindMix{kinds: []serve.Kind{k}, share: []float64{1}, cum: []float64{1}}
}

// Kinds lists the kinds in the mix, in spec order.
func (m *KindMix) Kinds() []serve.Kind { return m.kinds }

// Draw samples one kind.
func (m *KindMix) Draw(rng *rand.Rand) serve.Kind {
	u := rng.Float64()
	i := sort.SearchFloat64s(m.cum, u)
	if i >= len(m.kinds) {
		i = len(m.kinds) - 1
	}
	return m.kinds[i]
}

// String renders the mix in parseable form: every kind with its positive
// normalized weight.
func (m *KindMix) String() string {
	var b strings.Builder
	for i, k := range m.kinds {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%.3g", k, m.share[i])
	}
	return b.String()
}

// StructureArgs maps the popularity draw's scalar to kind-typed query
// arguments via the structure set's own deterministic mapping — the same
// needle always yields the same point/window/direction, so record/replay
// stays a pure function of the event slice.
func StructureArgs(ss *serve.StructureSet) func(serve.Kind, int64) serve.Args {
	return func(k serve.Kind, needle int64) serve.Args {
		if st := ss.Get(k); st != nil {
			return st.ArgsFor(needle)
		}
		return serve.Args{needle}
	}
}

// StructureChecker builds the per-kind answer check from the host-side
// structure set: an answer matches when Found and Value agree with the
// kind's host oracle descent (the same descent the fleet's oracle rung
// uses, so mesh and fleet-oracle answers are held to one reference). Kinds absent from the set pass vacuously — the target would
// have rejected them with ErrKindNotServed before answering.
func StructureChecker(ss *serve.StructureSet) func(serve.Kind, serve.Args, serve.Result) bool {
	return func(k serve.Kind, args serve.Args, res serve.Result) bool {
		st := ss.Get(k)
		if st == nil {
			return true
		}
		want := serve.HostAnswer(st, args)
		return res.Found == want.Found && res.Value == want.Value
	}
}

// GenerateMix materializes an arrival plan: each arrival draws a kind from
// the mix (nil is membership only) and a needle from the popularity draw,
// and argsFor maps the pair to typed arguments (nil argsFor is allowed for
// membership-only mixes). seed drives the kind draw so the plan is
// reproducible. The plan is the unit of record/replay — a run is a pure
// function of its event slice, so replaying the slice reproduces the answer
// stream. max bounds the plan size (0 defaults to 2,000,000): a rate
// schedule is user input, and a typo must not exhaust memory.
func GenerateMix(a *Arrivals, k KeyDraw, mix *KindMix, argsFor func(serve.Kind, int64) serve.Args, seed int64, max int) ([]TraceEvent, error) {
	if mix == nil {
		mix = SingleKind(serve.KindMembership)
	}
	if argsFor == nil {
		for _, kind := range mix.kinds {
			if kind != serve.KindMembership {
				return nil, fmt.Errorf("loadgen: kind mix includes %s but no argsFor mapping was given", kind)
			}
		}
		argsFor = func(_ serve.Kind, needle int64) serve.Args { return serve.Args{needle} }
	}
	if max <= 0 {
		max = 2_000_000
	}
	rng := rand.New(rand.NewSource(seed))
	var events []TraceEvent
	for {
		at, ok := a.Next()
		if !ok {
			break
		}
		if len(events) >= max {
			return nil, fmt.Errorf("loadgen: schedule generates more than %d arrivals; lower the rate or raise the cap", max)
		}
		kind := mix.Draw(rng)
		needle := k.Draw()
		events = append(events, TraceEvent{
			I:      len(events),
			AtNS:   int64(at),
			Kind:   kind,
			Needle: needle,
			Args:   argsFor(kind, needle),
		})
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("loadgen: schedule produced no arrivals")
	}
	return events, nil
}
