package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// allExtraKinds is every non-membership kind (membership is always served).
var allExtraKinds = []Kind{KindPointLoc, KindInterval, KindLinePoly, KindTangent}

func TestParseKindAndAliases(t *testing.T) {
	cases := map[string]Kind{
		"":                KindMembership,
		"membership":      KindMembership,
		"dict":            KindMembership,
		"pointloc":        KindPointLoc,
		"point-location":  KindPointLoc,
		"interval":        KindInterval,
		"interval-stab":   KindInterval,
		"linepoly":        KindLinePoly,
		"line-polyhedron": KindLinePoly,
		"tangent":         KindTangent,
		"tangent-plane":   KindTangent,
		" Membership ":    KindMembership,
	}
	for in, want := range cases {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) did not error")
	}
	// Round trip: every kind's canonical name parses back to itself.
	for k := Kind(0); k < NumKinds; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%s) = %v, %v; want %v", k, got, err, k)
		}
	}
}

func TestKindJSONRoundTripAndLegacyNumeric(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil || back != k {
			t.Errorf("kind %s JSON round trip: got %v, %v", k, back, err)
		}
	}
	// A v1 document that carried a numeric kind still decodes.
	var k Kind
	if err := json.Unmarshal([]byte(`1`), &k); err != nil || k != KindPointLoc {
		t.Errorf("numeric kind decode: got %v, %v; want pointloc", k, err)
	}
	// Membership marshals to the zero value, so omitempty keeps v1 JSON shapes.
	var res Result
	b, _ := json.Marshal(res)
	var doc map[string]any
	_ = json.Unmarshal(b, &doc)
	if doc["kind"] != "membership" {
		t.Errorf("zero Result kind = %v, want membership", doc["kind"])
	}
}

// TestBuildStructuresDeterministic rebuilds the full set twice and requires
// the host oracle to agree answer-for-answer — the property that lets a
// remote load generator reconstruct every kind's oracle from (side, keys).
func TestBuildStructuresDeterministic(t *testing.T) {
	keys := make([]int64, 16)
	for i := range keys {
		keys[i] = int64(2*i + 1)
	}
	a, err := BuildStructures(8, keys, 2, 3, allExtraKinds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildStructures(8, keys, 2, 3, allExtraKinds)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Kinds()) != len(allExtraKinds)+1 {
		t.Fatalf("built %v, want membership + %v", a.Kinds(), allExtraKinds)
	}
	for _, k := range a.Kinds() {
		sa, sb := a.Get(k), b.Get(k)
		for needle := int64(0); needle < 64; needle++ {
			if sa.ArgsFor(needle) != sb.ArgsFor(needle) {
				t.Fatalf("%s: ArgsFor(%d) differs across builds", k, needle)
			}
			ans1, ans2 := HostAnswer(sa, sa.ArgsFor(needle)), HostAnswer(sb, sb.ArgsFor(needle))
			if ans1 != ans2 {
				t.Fatalf("%s: HostAnswer(%d) differs across builds: %+v vs %+v", k, needle, ans1, ans2)
			}
		}
	}
}

// TestLookupKindAllFamilies serves every query family through one instance
// and checks each mesh answer against the family's own host oracle.
func TestLookupKindAllFamilies(t *testing.T) {
	s := newTestServer(t, Config{Side: 8, Linger: 200 * time.Microsecond, Kinds: allExtraKinds})
	ss := s.Structures()
	for _, k := range s.Kinds() {
		st := ss.Get(k)
		for needle := int64(0); needle < 24; needle++ {
			args := st.ArgsFor(needle)
			res, err := s.LookupKind(context.Background(), k, args)
			if errors.Is(err, ErrOverloaded) {
				needle--
				time.Sleep(time.Millisecond)
				continue
			}
			if err != nil {
				t.Fatalf("%s lookup %v: %v", k, args, err)
			}
			want := HostAnswer(st, args)
			if res.Found != want.Found || res.Value != want.Value || res.Steps != want.Steps {
				t.Fatalf("%s %v: mesh answered found=%v value=%d steps=%d, oracle says found=%v value=%d steps=%d",
					k, args, res.Found, res.Value, res.Steps, want.Found, want.Value, want.Steps)
			}
			if res.Kind != k {
				t.Fatalf("%s %v: result tagged %s", k, args, res.Kind)
			}
		}
	}
	st := s.Stats()
	if len(st.Kinds) != len(s.Kinds()) {
		t.Fatalf("stats report %d kinds, serving %d", len(st.Kinds), len(s.Kinds()))
	}
	for _, ks := range st.Kinds {
		if ks.Served == 0 {
			t.Errorf("kind %s reports zero served queries", ks.Kind)
		}
	}
}

func TestLookupKindNotServed(t *testing.T) {
	s := newTestServer(t, Config{Side: 8}) // membership only
	if _, err := s.LookupKind(context.Background(), KindPointLoc, Args{1, 2}); !errors.Is(err, ErrKindNotServed) {
		t.Fatalf("lookup of unserved kind: err = %v, want ErrKindNotServed", err)
	}
	if _, err := s.LookupKind(context.Background(), NumKinds+3, Args{}); !errors.Is(err, ErrKindNotServed) {
		t.Fatalf("lookup of out-of-range kind: err = %v, want ErrKindNotServed", err)
	}
}

// TestMixedKindRoundsMatchSingleKind is the isolation contract of the
// per-kind executor: interleaving kinds on the shared mesh must not change
// any kind's answers or step tables. The same argument set is served once on
// a mixed instance (all kinds in flight concurrently) and once on per-kind
// single-family instances; every (Found, Value, Steps) triple must be
// identical.
func TestMixedKindRoundsMatchSingleKind(t *testing.T) {
	const perKind = 16
	mixed := newTestServer(t, Config{Side: 8, Linger: 500 * time.Microsecond, Kinds: allExtraKinds})
	ss := mixed.Structures()

	type key struct {
		k Kind
		i int64
	}
	mixedRes := make(map[key]Result)
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, NumKinds*perKind)
	for _, k := range mixed.Kinds() {
		k := k
		st := ss.Get(k)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < perKind; i++ {
				args := st.ArgsFor(i)
				var res Result
				var err error
				for {
					res, err = mixed.LookupKind(context.Background(), k, args)
					if !errors.Is(err, ErrOverloaded) {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if err != nil {
					errs <- fmt.Errorf("%s lookup %v: %w", k, args, err)
					return
				}
				mu.Lock()
				mixedRes[key{k, i}] = res
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, k := range mixed.Kinds() {
		var kinds []Kind
		if k != KindMembership {
			kinds = []Kind{k}
		}
		single := newTestServer(t, Config{Side: 8, Linger: 500 * time.Microsecond, Kinds: kinds})
		st := single.Structures().Get(k)
		for i := int64(0); i < perKind; i++ {
			args := st.ArgsFor(i)
			var want Result
			var err error
			for {
				want, err = single.LookupKind(context.Background(), k, args)
				if !errors.Is(err, ErrOverloaded) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if err != nil {
				t.Fatalf("single-kind %s lookup %v: %v", k, args, err)
			}
			got := mixedRes[key{k, i}]
			if got.Found != want.Found || got.Value != want.Value || got.Steps != want.Steps || got.Aux != want.Aux {
				t.Errorf("%s %v: mixed run answered found=%v value=%d aux=%d steps=%d; single-kind run found=%v value=%d aux=%d steps=%d",
					k, args, got.Found, got.Value, got.Aux, got.Steps, want.Found, want.Value, want.Aux, want.Steps)
			}
		}
	}
}
