package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

// TestHTTPTargetDrivesRemoteServer runs the open-loop harness against a real
// fleet over its HTTP surface: shape probing, the full lookup path, and
// oracle checking must all work across the wire exactly as in-process.
func TestHTTPTargetDrivesRemoteServer(t *testing.T) {
	f, err := fleet.New(fleet.Config{Instance: serve.Config{Side: 8, Linger: 500 * time.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = f.Shutdown(ctx)
	})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	target := NewHTTPTarget(srv.URL)

	side, keys, err := target.Probe(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if side != 8 || keys != len(f.Tree().Keys) {
		t.Fatalf("probe reported %dx%d / %d keys, want 8x8 / %d", side, side, keys, len(f.Tree().Keys))
	}

	arr, err := Poisson(Schedule{{Rate: 300, Dur: 600 * time.Millisecond}}, 11)
	if err != nil {
		t.Fatal(err)
	}
	draw, err := UniformKeys(keys, 11)
	if err != nil {
		t.Fatal(err)
	}
	events, err := GenerateMix(arr, draw, nil, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		LookupKind: target.LookupKind,
		Stats:      target.Stats,
		Events:     events,
		Window:     200 * time.Millisecond,
		Check:      StructureChecker(f.Structures()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Mismatched > 0 || rep.Total.Failed > 0 {
		t.Fatalf("remote run had %d mismatches, %d failures", rep.Total.Mismatched, rep.Total.Failed)
	}
	if rep.Total.Answered == 0 {
		t.Fatal("remote run answered nothing")
	}
	if got := rep.Total.Answered + rep.Total.Rejected + rep.Total.Shed; got != rep.Total.Offered {
		t.Fatalf("outcome accounting leaks over HTTP: %d of %d offered", got, rep.Total.Offered)
	}
}

// TestHTTPTargetStatusMapping pins the inverse of the /search handler's
// status mapping: backpressure and drain statuses come back as the same
// typed serve errors the in-process path yields, so the harness classifies
// outcomes identically either way.
func TestHTTPTargetStatusMapping(t *testing.T) {
	var status int
	var body string
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		fmt.Fprint(w, body)
	}))
	defer stub.Close()
	target := NewHTTPTarget(stub.URL)

	status, body = http.StatusTooManyRequests, "overloaded\n"
	if _, err := target.LookupKind(context.Background(), serve.KindMembership, serve.Args{1}); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("429 mapped to %v, want ErrOverloaded", err)
	}
	status, body = http.StatusServiceUnavailable, "draining\n"
	if _, err := target.LookupKind(context.Background(), serve.KindMembership, serve.Args{1}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("503 mapped to %v, want ErrClosed", err)
	}
	status, body = http.StatusInternalServerError, "boom\n"
	if _, err := target.LookupKind(context.Background(), serve.KindMembership, serve.Args{1}); err == nil ||
		errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrClosed) {
		t.Fatalf("500 mapped to %v, want a generic failure", err)
	}
	status, body = http.StatusOK, "{not json"
	if _, err := target.LookupKind(context.Background(), serve.KindMembership, serve.Args{1}); err == nil {
		t.Fatal("garbage 200 body accepted")
	}

	// Client-context expiry surfaces as the context's own error so deadline
	// accounting matches in-process runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := target.LookupKind(ctx, serve.KindMembership, serve.Args{1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled-context lookup → %v, want context.Canceled", err)
	}

	// A stats scrape against a non-/metrics server is best-effort zero, and
	// Probe — which gates replay — fails loudly instead.
	status, body = http.StatusOK, "{}"
	if st := target.Stats(); st.Served != 0 {
		t.Fatalf("stats scrape of an empty doc: %+v", st)
	}
	if _, _, err := target.Probe(context.Background()); err == nil {
		t.Fatal("probe of a shapeless /metrics succeeded")
	}
}

// TestSearchURLRoundTrip pins the one wire contract from the client side:
// for every kind, the URL HTTPTarget sends parses back — through the
// handler's own ParseKind and fleet.ParseSearchArgs — to the kind and the
// arguments it encoded, including zero, negatives and the int64 extremes.
func TestSearchURLRoundTrip(t *testing.T) {
	values := []int64{0, 1, -1, -7, 42, math.MaxInt64, -math.MaxInt64, math.MinInt64}
	for k := serve.Kind(0); k < serve.NumKinds; k++ {
		arity := len(fleet.SearchParams[k])
		for i := range values {
			var args serve.Args
			for j := 0; j < arity; j++ {
				args[j] = values[(i+j)%len(values)]
			}
			raw := searchURL("http://h", k, args)
			u, err := url.Parse(raw)
			if err != nil {
				t.Fatalf("%s: unparsable URL %q: %v", k, raw, err)
			}
			if !strings.HasPrefix(raw, "http://h/search?") {
				t.Fatalf("%s: URL %q does not address /search", k, raw)
			}
			q := u.Query()
			kind, err := serve.ParseKind(q.Get("kind"))
			if err != nil || kind != k {
				t.Fatalf("%q parsed back to kind %v (err %v), want %s", raw, kind, err, k)
			}
			got, err := fleet.ParseSearchArgs(kind, q)
			if err != nil || got != args {
				t.Fatalf("%q parsed back to %v (err %v), want %v", raw, got, err, args)
			}
		}
	}
}
