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

// hedgedAttemptAllocs is what one hedged dispatch allocates of its own
// with a hedge delay in force and the hedge not firing: the attempt
// channel and its buffer (2), the launch closure (1), the go statement's
// argument closure (1), the hedge timer with its channel and buffer (3),
// the primary attempt's cancel context and cancel func (2), and that
// context's Done channel, made when the instance waits on it (1). Replica
// picks, the ejection median and the instance lookup add nothing to it.
const hedgedAttemptAllocs = 10

// lookupAllocs is the allocations of one sequential lookup, measured with
// one P as TestLookupAllocsPinned does.
func lookupAllocs(t *testing.T, lookup func(context.Context, serve.Kind, serve.Args) error) float64 {
	t.Helper()
	ctx := context.Background()
	var key int64
	run := func() {
		key = (key + 1) % 40
		if err := lookup(ctx, serve.KindMembership, serve.Args{key}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		run() // warm the arenas, the batch slices, the kept slots and pickers
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return testing.AllocsPerRun(100, run)
}

// A one-replica fleet's lookup allocates nothing of its own: the replica
// pick reuses its views and skip predicate, and the instance lookup below
// it allocates nothing either.
func TestFleetLookupAllocsPinned(t *testing.T) {
	f := newTestFleet(t, Config{Instance: serve.Config{Side: 8}})
	inst := lookupAllocs(t, func(ctx context.Context, k serve.Kind, a serve.Args) error {
		_, err := f.instance(0).LookupKind(ctx, k, a)
		return err
	})
	fl := lookupAllocs(t, func(ctx context.Context, k serve.Kind, a serve.Args) error {
		_, err := f.LookupKind(ctx, k, a)
		return err
	})
	if inst != 0 || fl != inst {
		t.Fatalf("instance lookup %.0f allocs, fleet lookup %.0f; want 0 and 0", inst, fl)
	}
}

// With three replicas, hedging and ejection on, a lookup allocates only
// the hedged dispatch's own objects: every answered dispatch still feeds
// the ejection median, and with a hedge delay in force every dispatch
// races, but neither the median nor the picks allocate.
func TestFleetHedgedLookupAllocsPinned(t *testing.T) {
	f := newTestFleet(t, Config{
		Replicas: 3,
		Instance: serve.Config{Side: 8},
		Hedge:    HedgeConfig{Enabled: true, Delay: time.Hour},
		Eject:    EjectConfig{Enabled: true, MinSamples: 4},
	})
	got := lookupAllocs(t, func(ctx context.Context, k serve.Kind, a serve.Args) error {
		_, err := f.LookupKind(ctx, k, a)
		return err
	})
	if f.latencyMedian() <= 0 {
		t.Fatal("no ejection median: the lookups never reached the median")
	}
	if got != hedgedAttemptAllocs {
		t.Fatalf("hedged fleet lookup: %.0f allocs, want the hedged attempt's own %d", got, hedgedAttemptAllocs)
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
