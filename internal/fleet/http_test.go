package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// TestFleetHTTPSurface walks the fleet handler through the robustness
// contract of DESIGN.md §3.8: /healthz stays 200 through a single replica
// kill (that is the fleet working as designed), /search keeps answering
// correctly all the way down to the oracle rung, and only an all-replicas
// outage flips /healthz to 503 — with a Retry-After.
func TestFleetHTTPSurface(t *testing.T) {
	f := newTestFleet(t, Config{Replicas: 3, Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond}})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	get := func(path string) (int, http.Header, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, string(body)
	}
	search := func(key string) (int, Result) {
		t.Helper()
		code, _, body := get("/search?key=" + key)
		var res Result
		if code == http.StatusOK {
			if err := json.Unmarshal([]byte(body), &res); err != nil {
				t.Fatalf("bad /search body %q: %v", body, err)
			}
		}
		return code, res
	}

	// Healthy fleet: correct answers with replica attribution, 200 health.
	code, res := search("3")
	if code != 200 || !res.Found || res.LeafKey != 3 || res.Replica < 0 || res.Degraded {
		t.Fatalf("healthy /search → %d %+v", code, res)
	}
	if code, _, _ := get("/search?key=banana"); code != http.StatusBadRequest {
		t.Fatalf("garbage key → %d, want 400", code)
	}
	if code, _, body := get("/healthz"); code != 200 || !strings.Contains(body, "healthy") {
		t.Fatalf("/healthz on a whole fleet → %d %s", code, body)
	}

	// One replica down: not an incident. Health stays 200, serving continues.
	if err := f.CrashReplica(0); err != nil {
		t.Fatal(err)
	}
	if code, _, body := get("/healthz"); code != 200 {
		t.Fatalf("/healthz with 1 of 3 replicas down → %d %s (a single loss must not flip health)", code, body)
	}
	code, res = search("5")
	if code != 200 || !res.Found || res.Degraded {
		t.Fatalf("/search with one replica down → %d %+v", code, res)
	}

	// Every replica down: degraded, 503 health with a retry hint, and
	// /search answers from the fleet oracle rather than erroring.
	if err := f.CrashReplica(1); err != nil {
		t.Fatal(err)
	}
	if err := f.CrashReplica(2); err != nil {
		t.Fatal(err)
	}
	code, hdr, body := get("/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Fatalf("/healthz with all replicas down → %d %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("unhealthy /healthz carries no Retry-After")
	}
	code, res = search("7")
	if code != 200 || !res.Found || !res.Degraded || res.Replica != -1 {
		t.Fatalf("all-down /search → %d %+v, want a degraded oracle answer", code, res)
	}

	// /metrics stays instance-shaped for shared scrapers.
	code, _, body = get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics → %d", code)
	}
	var doc struct {
		Serve serve.Stats `json:"serve"`
		Fleet Stats       `json:"fleet"`
		Side  int         `json:"side"`
		Keys  int         `json:"keys"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad /metrics body: %v", err)
	}
	if doc.Side != 8 || doc.Keys != len(f.Tree().Keys) {
		t.Fatalf("/metrics shape fields: %+v", doc)
	}
	if doc.Fleet.Crashes != 3 || doc.Fleet.OracleServed == 0 {
		t.Fatalf("/metrics fleet counters: %+v", doc.Fleet)
	}
	if doc.Serve.Served == 0 {
		t.Fatal("/metrics aggregate lost the crashed replicas' serving history")
	}
	if lat := doc.Serve.Latency; lat.Count < 3 || lat.P99 <= 0 {
		t.Fatalf("/metrics serving latency summary not populated: %+v", lat)
	}
}

// TestOneReplicaFleetHTTPSurface exercises /search and /metrics end to end
// on the shape a standalone meshserve runs: a one-replica fleet whose
// instance traces its runs and has room in its step budget.
func TestOneReplicaFleetHTTPSurface(t *testing.T) {
	f := newTestFleet(t, Config{Replicas: 1, Instance: serve.Config{
		Side: 8, Tracer: trace.New(), Budget: 1 << 40, Linger: time.Millisecond,
	}})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/search?key=3")
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if resp.StatusCode != 200 || err != nil {
		t.Fatalf("/search?key=3 → %d (%v)", resp.StatusCode, err)
	}
	if !res.Found || res.LeafKey != 3 || res.Replica != 0 || res.Degraded {
		t.Fatalf("/search?key=3 answered %+v, want a mesh hit from replica 0", res)
	}
	resp, err = srv.Client().Get(srv.URL + "/search?key=zebra")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("/search?key=zebra → %d, want 400", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics → %d", resp.StatusCode)
	}
}

// TestFleetHTTPAfterShutdown pins the draining surface: 503 with Retry-After
// on /search, lame-duck on /healthz.
func TestFleetHTTPAfterShutdown(t *testing.T) {
	f := newTestFleet(t, Config{Replicas: 2, Instance: serve.Config{Side: 8}})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Get(srv.URL + "/search?key=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown /search → %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("post-shutdown /search carries no Retry-After")
	}
	hresp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	body, _ := io.ReadAll(hresp.Body)
	if hresp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "lame-duck") {
		t.Fatalf("post-shutdown /healthz → %d %s", hresp.StatusCode, body)
	}
	if hresp.Header.Get("Retry-After") == "" {
		t.Fatal("post-shutdown /healthz carries no Retry-After")
	}
}

// TestFleetSearchStatusMapping is the table-driven contract for /search's
// status codes: client errors are 400, backpressure and drain are 429/503
// with a Retry-After hint, a budget shed is 504, a client-cancelled request
// maps to the 4xx class (499/408) instead of polluting the 500 accounting,
// and only a server-side failure stays 500.
func TestFleetSearchStatusMapping(t *testing.T) {
	stall := newStallInjector()
	cases := []struct {
		name       string
		cfg        Config
		target     string
		header     string                 // X-Deadline-Budget value, "" = none
		ctx        func() context.Context // nil = background
		setup      func(t *testing.T, f *Fleet)
		want       int
		retryAfter bool
	}{
		{
			name:   "ok",
			cfg:    Config{Instance: serve.Config{Side: 8}},
			target: "/search?key=3",
			want:   http.StatusOK,
		},
		{
			name:   "bad key",
			cfg:    Config{Instance: serve.Config{Side: 8}},
			target: "/search?key=zebra",
			want:   http.StatusBadRequest,
		},
		{
			name:   "unknown kind",
			cfg:    Config{Instance: serve.Config{Side: 8}},
			target: "/search?kind=bogus&key=7",
			want:   http.StatusBadRequest,
		},
		{
			name:   "kind not served",
			cfg:    Config{Instance: serve.Config{Side: 8}},
			target: "/search?kind=pointloc&x=1&y=2",
			want:   http.StatusBadRequest,
		},
		{
			// A long linger guarantees the round is still assembling when the
			// already-cancelled request context is observed.
			name:   "client disconnect",
			cfg:    Config{Instance: serve.Config{Side: 8, Linger: 200 * time.Millisecond}},
			target: "/search?key=3",
			ctx: func() context.Context {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx
			},
			want: StatusClientClosedRequest,
		},
		{
			name:   "client deadline",
			cfg:    Config{Instance: serve.Config{Side: 8, Linger: 200 * time.Millisecond}},
			target: "/search?key=3",
			ctx: func() context.Context {
				ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
				_ = cancel // leaks into the case; the test server outlives it
				return ctx
			},
			want: http.StatusRequestTimeout,
		},
		{
			// The stall recipe of TestAllOverloadedIsBackpressureNotOracle:
			// wedge the only replica's executor and fill its pipeline.
			name: "overloaded",
			cfg: Config{
				Instance:     serve.Config{Side: 8, MaxBatch: 1, QueueDepth: 2},
				MakeInjector: func(int) mesh.Injector { return stall },
			},
			target: "/search?key=3",
			setup: func(t *testing.T, f *Fleet) {
				stall.armed.Store(true)
				var wg sync.WaitGroup
				t.Cleanup(func() {
					stall.armed.Store(false)
					close(stall.release)
					wg.Wait()
				})
				// Fill the wedged pipeline to its fixed capacity — one lookup
				// in the stalled round, one batch in the hand-off channel, one
				// held by the collector, QueueDepth queued — one settled
				// admission at a time, so /search meets a queue that can no
				// longer drain.
				inst := f.instance(0)
				full := int64(inst.QueueCap() + 3)
				for n := int64(0); inst.Stats().Accepted < full; n++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, _ = f.Lookup(context.Background(), 3)
					}()
					for st := inst.Stats(); st.Accepted+st.Rejected <= n; st = inst.Stats() {
						runtime.Gosched()
					}
				}
			},
			want:       http.StatusTooManyRequests,
			retryAfter: true,
		},
		{
			name:   "budget shed",
			cfg:    Config{Instance: serve.Config{Side: 8, Linger: 50 * time.Millisecond}},
			target: "/search?key=3",
			header: "10ms",
			setup:  trainRoundTime,
			want:   http.StatusGatewayTimeout,
		},
		{
			// Server-side failure (a 3-step budget no round fits, with no
			// oracle rung to absorb it) must stay a 500: only *client*-caused
			// cancellation moves to 4xx.
			name:   "round failure",
			cfg:    Config{DisableOracle: true, Instance: serve.Config{Side: 8, Budget: 3}},
			target: "/search?key=3",
			want:   http.StatusInternalServerError,
		},
		{
			name:   "closed",
			cfg:    Config{Instance: serve.Config{Side: 8}},
			target: "/search?key=3",
			setup: func(t *testing.T, f *Fleet) {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := f.Shutdown(ctx); err != nil {
					t.Fatalf("shutdown: %v", err)
				}
			},
			want:       http.StatusServiceUnavailable,
			retryAfter: true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFleet(t, tc.cfg)
			if tc.setup != nil {
				tc.setup(t, f)
			}
			req := httptest.NewRequest(http.MethodGet, tc.target, nil)
			if tc.ctx != nil {
				req = req.WithContext(tc.ctx())
			}
			if tc.header != "" {
				req.Header.Set(DeadlineBudgetHeader, tc.header)
			}
			rec := httptest.NewRecorder()
			f.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Fatalf("%s → %d, want %d (body %q)", tc.target, rec.Code, tc.want, rec.Body.String())
			}
			if tc.retryAfter && rec.Header().Get("Retry-After") == "" {
				t.Fatalf("%s → %d without a Retry-After hint", tc.target, rec.Code)
			}
		})
	}
}

// trainRoundTime serves one lookup so the only replica's expected round
// time — its linger plus the observed round — is known to the budget rungs.
func trainRoundTime(t *testing.T, f *Fleet) {
	t.Helper()
	if _, err := f.Lookup(context.Background(), 3); err != nil {
		t.Fatalf("training lookup: %v", err)
	}
	if need := f.instance(0).ExpectedRoundTime(serve.KindMembership); need <= 0 {
		t.Fatalf("expected round time untrained after a round: %v", need)
	}
}

// TestFleetHealthzRecoveryCycle is the in-process twin of CI's healthz
// smoke: a one-replica fleet's /healthz flips 200 → 503 when the mesh
// breaks and the breaker opens, and back to 200 once a canary finds the
// mesh healed — while /search answers 200 throughout (from the fleet
// oracle in between).
func TestFleetHealthzRecoveryCycle(t *testing.T) {
	g := &gateInjector{}
	f := newTestFleet(t, Config{Instance: serve.Config{
		Side: 8, Audit: true, Injector: g,
		MaxRetries: -1, BreakerWindow: 4,
		CanaryInterval: 2 * time.Millisecond,
		RetryBackoff:   10 * time.Microsecond,
	}})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	get := func(path string) (int, http.Header, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, string(body)
	}
	search := func(key int64, degraded bool) {
		t.Helper()
		code, _, body := get(fmt.Sprintf("/search?key=%d", key))
		var res Result
		if code != http.StatusOK || json.Unmarshal([]byte(body), &res) != nil {
			t.Fatalf("/search?key=%d → %d %s", key, code, body)
		}
		checkAnswer(t, f, key, res)
		if res.Degraded != degraded {
			t.Fatalf("/search?key=%d degraded=%v, want %v: %s", key, res.Degraded, degraded, body)
		}
	}

	if code, _, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"healthy"`) {
		t.Fatalf("/healthz before faults → %d %s", code, body)
	}
	search(3, false)

	g.broken.Store(true)
	search(5, true)
	code, hdr, body := get("/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"degraded"`) {
		t.Fatalf("/healthz with the breaker open → %d %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 /healthz carries no Retry-After")
	}

	g.broken.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _, body := get("/healthz")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never recovered: %d %s", code, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
	search(3, false)
}

// TestFleetHTTPSearchKinds drives every family through the HTTP surface:
// typed kind= queries answer 200 with a kind-tagged body that matches the
// kind's host oracle, the bare v1 ?key= shape still works, and a missing
// parameter is a client error.
func TestFleetHTTPSearchKinds(t *testing.T) {
	f := newTestFleet(t, Config{Instance: serve.Config{Side: 8, Linger: 200 * time.Microsecond, Kinds: []serve.Kind{
		serve.KindPointLoc, serve.KindInterval, serve.KindLinePoly, serve.KindTangent,
	}}})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	ss := f.Structures()
	for _, k := range f.Kinds() {
		st := ss.Get(k)
		args := st.ArgsFor(5)
		params := url.Values{}
		params.Set("kind", k.String())
		for i, name := range SearchParams[k] {
			params.Set(name, fmt.Sprint(args[i]))
		}
		code, body := get("/search?" + params.Encode())
		if code != http.StatusOK {
			t.Fatalf("GET /search?%s → %d: %s", params.Encode(), code, body)
		}
		var res Result
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("%s: bad body %s: %v", k, body, err)
		}
		want := serve.HostAnswer(st, args)
		if res.Kind != k || res.Found != want.Found || res.Value != want.Value || res.Degraded {
			t.Fatalf("%s %v over HTTP: got kind=%s found=%v value=%d degraded=%v, want kind=%s found=%v value=%d",
				k, args, res.Kind, res.Found, res.Value, res.Degraded, k, want.Found, want.Value)
		}
	}
	if code, body := get("/search?key=7"); code != http.StatusOK {
		t.Fatalf("GET /search?key=7 → %d: %s", code, body)
	}
	if code, _ := get("/search?kind=pointloc&x=1"); code != http.StatusBadRequest {
		t.Fatalf("missing param → %d, want 400", code)
	}
}

// TestParseSearchArgsPerKind pins the parameter table: each kind's named
// integers land in Args order, and missing or malformed ones are rejected.
func TestParseSearchArgsPerKind(t *testing.T) {
	cases := []struct {
		kind  serve.Kind
		query string
		want  serve.Args
	}{
		{serve.KindMembership, "key=7", serve.Args{7}},
		{serve.KindPointLoc, "x=3&y=-4", serve.Args{3, -4}},
		{serve.KindInterval, "lo=2&hi=9", serve.Args{2, 9}},
		{serve.KindLinePoly, "x=1&y=2", serve.Args{1, 2}},
		{serve.KindTangent, "dx=1&dy=0&dz=-5", serve.Args{1, 0, -5}},
	}
	for _, c := range cases {
		q, _ := url.ParseQuery(c.query)
		got, err := ParseSearchArgs(c.kind, q)
		if err != nil || got != c.want {
			t.Errorf("ParseSearchArgs(%s, %q) = %v, %v; want %v", c.kind, c.query, got, err, c.want)
		}
	}
	for _, bad := range []struct {
		kind  serve.Kind
		query string
	}{
		{serve.KindPointLoc, "x=3"},
		{serve.KindTangent, "dx=1&dy=2"},
		{serve.KindMembership, "key=notanumber"},
	} {
		q, _ := url.ParseQuery(bad.query)
		if _, err := ParseSearchArgs(bad.kind, q); err == nil {
			t.Errorf("ParseSearchArgs(%s, %q) did not error", bad.kind, bad.query)
		}
	}
}

// TestFleetTraceparentPropagationHTTP drives /search the way
// loadgen.HTTPTarget does: a client-minted traceparent must be adopted as
// the server-side trace ID, echoed in the response header, and the finished
// trace must be retrievable at /debug/traces under that same ID.
func TestFleetTraceparentPropagationHTTP(t *testing.T) {
	o := obs.New(obs.Config{})
	f := newTestFleet(t, Config{Obs: o, Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond, Tracer: trace.New()}})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	id := obs.NewTraceID()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/search?key=7", nil)
	req.Header.Set("Traceparent", id.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/search: %d", resp.StatusCode)
	}
	echoed, err := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if err != nil || echoed != id {
		t.Fatalf("response traceparent %q does not echo the request ID %s (err %v)",
			resp.Header.Get("Traceparent"), id, err)
	}

	dr, err := http.Get(srv.URL + "/debug/traces?id=" + id.String())
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces?id=: %d", dr.StatusCode)
	}
	var doc obs.TraceJSON
	if err := json.NewDecoder(dr.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID != id.String() || doc.Needle != 7 || doc.Outcome != "mesh" {
		t.Fatalf("retrieved trace: %+v", doc)
	}
	if len(doc.Spans) == 0 || doc.RunSeq <= 0 {
		t.Fatalf("trace lacks spans or run link: %+v", doc)
	}

	// A malformed inbound header is ignored per spec: the server mints its
	// own ID and still echoes a valid one.
	req2, _ := http.NewRequest(http.MethodGet, srv.URL+"/search?key=9", nil)
	req2.Header.Set("Traceparent", "garbage")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if _, err := obs.ParseTraceparent(resp2.Header.Get("Traceparent")); err != nil {
		t.Fatalf("malformed inbound header: response carries invalid traceparent %q",
			resp2.Header.Get("Traceparent"))
	}
}

// TestFleetMetricsPrometheusFormat smoke-tests the text exposition next to
// the JSON default: right content type, the fleet, replica and serving
// families present, histogram series terminated by +Inf. (Full grammar
// validation lives in internal/obs and the CI obs-smoke job.)
func TestFleetMetricsPrometheusFormat(t *testing.T) {
	o := obs.New(obs.Config{})
	f := newTestFleet(t, Config{Obs: o, Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond, Tracer: trace.New()}})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	sr, err := http.Get(srv.URL + "/search?key=7")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, sr.Body)
	sr.Body.Close()

	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q, want %q", ct, obs.ContentType)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"# TYPE meshserve_lookups_total counter",
		`meshserve_lookups_total{result="accepted"} 1`,
		`meshserve_answers_total{path="mesh"} 1`,
		"meshserve_retries_total 0",
		`meshserve_faults_total{class="audit"} 0`,
		`meshserve_circuit_transitions_total{to="open"} 0`,
		"# TYPE meshserve_request_duration_seconds histogram",
		`meshserve_request_duration_seconds_bucket{outcome="all",le="+Inf"} 1`,
		`meshfleet_stage_duration_seconds_bucket{stage="mesh_round",le="+Inf"} 1`,
		`meshfleet_requests_total{outcome="mesh"} 1`,
		"meshfleet_slo_latency_burn_rate",
		`meshfleet_replica_healthy{replica="0",health="healthy"} 1`,
		`meshfleet_replica_queue_depth{replica="0"} 0`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The JSON document stays the default — remote scrapers predate the flag.
	jr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	if ct := jr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("default /metrics content type %q, want JSON", ct)
	}
}

// TestFleetDebugTracesDisabled: without an Observer the endpoint exists but
// says why it has nothing, rather than 404-ing into the void.
func TestFleetDebugTracesDisabled(t *testing.T) {
	f := newTestFleet(t, Config{Instance: serve.Config{Side: 8}})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "tracing disabled") {
		t.Fatalf("disabled /debug/traces: %d %q", resp.StatusCode, body)
	}
}
