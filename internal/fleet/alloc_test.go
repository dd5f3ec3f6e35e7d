package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/serve"
)

// lookupAllocs is the allocations of one sequential lookup, measured with
// one P as TestLookupAllocsPinned does. Each lookup runs on a fresh context
// from newCtx, cancelled after it; nil means context.Background.
func lookupAllocs(t *testing.T, newCtx func() (context.Context, context.CancelFunc), lookup func(context.Context, serve.Kind, serve.Args) error) float64 {
	t.Helper()
	if newCtx == nil {
		newCtx = func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }
	}
	var key int64
	run := func() {
		key = (key + 1) % 40
		ctx, cancel := newCtx()
		defer cancel()
		if err := lookup(ctx, serve.KindMembership, serve.Args{key}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		run() // warm the arenas, the batch slices, the kept slots, pickers and timers
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return testing.AllocsPerRun(100, run)
}

// fleetLookup is lookupAllocs' lookup through f.
func fleetLookup(f *Fleet) func(context.Context, serve.Kind, serve.Args) error {
	return func(ctx context.Context, k serve.Kind, a serve.Args) error {
		_, err := f.LookupKind(ctx, k, a)
		return err
	}
}

// A one-replica fleet's lookup allocates nothing of its own: the replica
// pick reuses its views and skip predicate, and the instance lookup below
// it allocates nothing either.
func TestFleetLookupAllocsPinned(t *testing.T) {
	f := newTestFleet(t, Config{Instance: serve.Config{Side: 8}})
	inst := lookupAllocs(t, nil, func(ctx context.Context, k serve.Kind, a serve.Args) error {
		_, err := f.instance(0).LookupKind(ctx, k, a)
		return err
	})
	fl := lookupAllocs(t, nil, fleetLookup(f))
	if inst != 0 || fl != inst {
		t.Fatalf("instance lookup %.0f allocs, fleet lookup %.0f; want 0 and 0", inst, fl)
	}
}

// With three replicas, hedging and ejection on, a lookup allocates nothing
// of its own either: every answered dispatch still feeds the ejection
// median, and with a hedge delay in force every dispatch waits on a kept
// hedge timer, but neither the median, the picks nor the wait allocate.
// Under a timed context, the shape open-loop clients drive, the lookup
// adds nothing to what the context itself allocates.
func TestFleetHedgedLookupAllocsPinned(t *testing.T) {
	f := newTestFleet(t, Config{
		Replicas: 3,
		Instance: serve.Config{Side: 8},
		Hedge:    HedgeConfig{Enabled: true, Delay: time.Hour},
		Eject:    EjectConfig{Enabled: true, MinSamples: 4},
	})
	if got := lookupAllocs(t, nil, fleetLookup(f)); got != 0 {
		t.Fatalf("hedged fleet lookup: %.0f allocs, want 0", got)
	}
	if f.latencyMedian() <= 0 {
		t.Fatal("no ejection median: the lookups never reached the median")
	}
	timed := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), time.Hour)
	}
	ctxOnly := lookupAllocs(t, timed, func(ctx context.Context, _ serve.Kind, _ serve.Args) error {
		_ = ctx.Done() // the channel a lookup's wait makes the context build
		return nil
	})
	got := lookupAllocs(t, timed, fleetLookup(f))
	t.Logf("timed context: %.0f allocs alone, %.0f with a hedged lookup", ctxOnly, got)
	if got != ctxOnly {
		t.Fatalf("hedged fleet lookup on a timed context: %.0f allocs, want the context's own %.0f", got, ctxOnly)
	}
}

// discardWriter is a ResponseWriter that keeps one header map and drops
// the body, so an allocation count sees the handler and not a recorder.
type discardWriter struct {
	h    http.Header
	code int
	body int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body += len(b)
	return len(b), nil
}

// A /search request through a one-replica fleet's handler allocates
// nothing of its own: the kind and its arguments are read from the raw
// query without a url.Values map, and the answer is appended to a reused
// buffer and written in one Write, with no json.Encoder.
func TestSearchHandlerAllocsPinned(t *testing.T) {
	f := newTestFleet(t, Config{Instance: serve.Config{Side: 8}})
	h := f.Handler()
	var reqs []*http.Request
	for key := 0; key < 40; key++ {
		reqs = append(reqs, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/search?key=%d", key), nil))
	}
	w := &discardWriter{h: http.Header{}}
	i := 0
	serve1 := func() {
		i = (i + 1) % len(reqs)
		w.code = 0
		h.ServeHTTP(w, reqs[i])
		if w.code != http.StatusOK {
			t.Fatalf("%s → %d", reqs[i].URL, w.code)
		}
	}
	for n := 0; n < 100; n++ {
		serve1() // warm the instance, the kept slots, pickers and buffers
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if a := testing.AllocsPerRun(100, serve1); a != 0 {
		t.Fatalf("/search handler: %.0f allocs per request, want 0", a)
	}
}
