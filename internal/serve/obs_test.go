package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// checkTracePartition asserts the §3.9 span-partition invariant on one
// finished trace: contiguous spans, first at 0, summing exactly to the
// end-to-end duration.
func checkTracePartition(t *testing.T, tr *obs.ReqTrace) {
	t.Helper()
	if len(tr.Spans) == 0 {
		t.Errorf("trace %s finished with no spans", tr.ID)
		return
	}
	if tr.Spans[0].Start != 0 {
		t.Errorf("trace %s: first span starts at %s", tr.ID, tr.Spans[0].Start)
	}
	var sum time.Duration
	for i, sp := range tr.Spans {
		if sp.End < sp.Start {
			t.Errorf("trace %s span %d (%s): negative", tr.ID, i, sp.Stage)
		}
		if i > 0 && sp.Start != tr.Spans[i-1].End {
			t.Errorf("trace %s span %d (%s): gap/overlap at %s vs %s",
				tr.ID, i, sp.Stage, sp.Start, tr.Spans[i-1].End)
		}
		sum += sp.Dur()
	}
	if sum != tr.Dur() {
		t.Errorf("trace %s: spans sum to %s, e2e %s (outcome %s)", tr.ID, sum, tr.Dur(), tr.Outcome)
	}
}

// TestStagePartitionUnderConcurrentLoad is satellite proof for the tentpole
// invariant: under real concurrency — contended admission, batching, the
// full pipeline — every finished trace's spans still partition its latency
// exactly, carry the expected lifecycle stages, and link a step-clock run.
func TestStagePartitionUnderConcurrentLoad(t *testing.T) {
	o := obs.New(obs.Config{Ring: 2048})
	s := newTestServer(t, Config{Side: 8, Linger: 200 * time.Microsecond, Obs: o, Tracer: trace.New()})
	const clients, perClient = 12, 15
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				needle := int64((c*perClient + i) % 40)
				for {
					if _, err := s.Lookup(context.Background(), needle); !errors.Is(err, ErrOverloaded) {
						if err != nil {
							t.Errorf("lookup %d: %v", needle, err)
						}
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()

	if got := o.OutcomeCount(obs.OutcomeMesh); got != clients*perClient {
		t.Fatalf("mesh outcomes %d, want %d", got, clients*perClient)
	}
	traces := o.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces retained")
	}
	for _, tr := range traces {
		checkTracePartition(t, tr)
		for _, st := range []obs.Stage{obs.StageAdmit, obs.StageQueue, obs.StageLinger, obs.StageMesh, obs.StageDeliver} {
			if !tr.HasStage(st) {
				t.Errorf("trace %s (outcome %s) lacks stage %s: %+v", tr.ID, tr.Outcome, st, tr.Spans)
			}
		}
		if tr.HasStage(obs.StageFailover) || tr.HasStage(obs.StageOracle) {
			t.Errorf("healthy single-instance trace %s grew fleet/oracle spans", tr.ID)
		}
		if tr.RunSeq <= 0 || tr.RunLabel == "" {
			t.Errorf("trace %s not linked to a step-clock run: seq=%d label=%q", tr.ID, tr.RunSeq, tr.RunLabel)
		}
		if tr.Attempts != 1 {
			t.Errorf("healthy trace %s took %d attempts", tr.ID, tr.Attempts)
		}
		if tr.Replica != -2 {
			t.Errorf("bare-instance trace %s has replica %d, want unset", tr.ID, tr.Replica)
		}
	}
}

// TestStagePartitionUnderChaos (satellite 4) drives the recovery ladder —
// audited faults, retries with backoff, degrade-to-oracle — and checks the
// partition invariant holds on every path, with the retry and oracle stages
// present exactly where the outcome says they must be.
func TestStagePartitionUnderChaos(t *testing.T) {
	o := obs.New(obs.Config{Ring: 1024})
	g := &gateInjector{}
	s := newTestServer(t, Config{
		Side: 8, Audit: true, Injector: g, Obs: o, Tracer: trace.New(),
		MaxRetries: 2, RetryBackoff: 10 * time.Microsecond,
		Linger: 100 * time.Microsecond,
	})

	lookupAll := func(n int) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					res, err := s.Lookup(context.Background(), int64(2*i+1))
					if errors.Is(err, ErrOverloaded) {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("lookup %d: %v", 2*i+1, err)
					} else if !res.Found {
						t.Errorf("lookup %d: odd key not found", 2*i+1)
					}
					return
				}
			}()
		}
		wg.Wait()
	}

	lookupAll(8) // healthy phase: mesh outcomes
	g.broken.Store(true)
	lookupAll(8) // broken phase: retry ladder → oracle degrade, circuit opens
	g.broken.Store(false)
	// A canary closes the circuit so the last phase serves mesh.
	if err := s.Canary(context.Background()); err != nil || s.CircuitOpen() {
		t.Fatalf("circuit not closed after faults cleared: err=%v", err)
	}
	lookupAll(8) // recovered phase

	if o.OutcomeCount(obs.OutcomeDegraded) == 0 {
		t.Fatal("broken phase produced no degraded outcomes")
	}
	if o.OutcomeCount(obs.OutcomeMesh) < 16 {
		t.Fatalf("healthy phases produced %d mesh outcomes, want ≥ 16", o.OutcomeCount(obs.OutcomeMesh))
	}
	sawRetriedDegrade := false
	for _, tr := range o.Traces() {
		checkTracePartition(t, tr)
		switch tr.Outcome {
		case obs.OutcomeDegraded:
			if !tr.HasStage(obs.StageOracle) {
				t.Errorf("degraded trace %s has no oracle_fallback span: %+v", tr.ID, tr.Spans)
			}
			// A batch that walked the retry ladder shows mesh/backoff/mesh…;
			// one answered on the already-open circuit has no mesh attempts.
			if tr.Attempts > 0 {
				if tr.Attempts != 3 { // initial + MaxRetries, all faulting
					t.Errorf("degraded trace %s took %d attempts, want 3", tr.ID, tr.Attempts)
				}
				if !tr.HasStage(obs.StageBackoff) {
					t.Errorf("retried trace %s has no retry_backoff span", tr.ID)
				}
				sawRetriedDegrade = true
			}
			if tr.RunSeq != 0 {
				t.Errorf("degraded trace %s links run %d; no round answered it", tr.ID, tr.RunSeq)
			}
		case obs.OutcomeMesh:
			if tr.HasStage(obs.StageOracle) {
				t.Errorf("mesh trace %s has an oracle span", tr.ID)
			}
			if tr.RunSeq <= 0 {
				t.Errorf("mesh trace %s not linked to its run", tr.ID)
			}
		}
		if n := countStage(tr, obs.StageMesh); n != tr.Attempts {
			t.Errorf("trace %s: %d mesh_round spans but %d attempts", tr.ID, n, tr.Attempts)
		}
	}
	if !sawRetriedDegrade {
		t.Error("no degraded trace walked the full retry ladder (want mesh/backoff/mesh spans)")
	}
}

func countStage(tr *obs.ReqTrace, st obs.Stage) int {
	n := 0
	for _, sp := range tr.Spans {
		if sp.Stage == st {
			n++
		}
	}
	return n
}

// TestLatencySplitByOutcome (satellite 3) pins the outcome-split serving
// histograms: mesh and degraded samples land in their own histograms, the
// combined one sees both, and the Stats summaries expose the split.
func TestLatencySplitByOutcome(t *testing.T) {
	g := &gateInjector{}
	s := newTestServer(t, Config{
		Side: 8, Audit: true, Injector: g,
		MaxRetries: -1, RetryBackoff: 10 * time.Microsecond,
		BreakerWindow: 1 << 20,
	})
	for i := 0; i < 5; i++ {
		if _, err := s.Lookup(context.Background(), int64(2*i+1)); err != nil {
			t.Fatal(err)
		}
	}
	g.broken.Store(true)
	for i := 0; i < 3; i++ {
		res, err := s.Lookup(context.Background(), int64(2*i+1))
		if err != nil || !res.Degraded {
			t.Fatalf("broken-phase lookup: res=%+v err=%v, want degraded answer", res, err)
		}
	}
	mesh, degraded := s.LatencyByOutcome()
	if mesh.Count != 5 || degraded.Count != 3 {
		t.Fatalf("split counts mesh=%d degraded=%d, want 5/3", mesh.Count, degraded.Count)
	}
	if all := s.LatencySnapshot(); all.Count != 8 {
		t.Fatalf("combined count %d, want 8 (split must not replace it)", all.Count)
	}
	st := s.Stats()
	if st.LatencyMesh.Count != 5 || st.LatencyDegraded.Count != 3 {
		t.Fatalf("stats split: %+v / %+v", st.LatencyMesh, st.LatencyDegraded)
	}
}

// TestLookupAbandonedNotRetained pins the Abandon rule: a client that gives
// up mid-flight increments the abandoned counter, and its trace never enters
// the ring (the pipeline may still be writing to it).
func TestLookupAbandonedNotRetained(t *testing.T) {
	o := obs.New(obs.Config{})
	g := newStallInjector()
	s := newTestServer(t, Config{Side: 8, Injector: g, Obs: o, Linger: time.Millisecond})
	g.armed.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := s.Lookup(ctx, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled lookup returned %v, want deadline exceeded", err)
	}
	if o.Abandoned() != 1 {
		t.Fatalf("abandoned count %d, want 1", o.Abandoned())
	}
	for _, tr := range o.Traces() {
		if tr.Needle == 1 && tr.Outcome == obs.OutcomeMesh {
			t.Fatal("abandoned trace retained while pipeline still owned it")
		}
	}
	g.armed.Store(false)
	close(g.release)
}

// BenchmarkLookupObsOff/On measure the tracing overhead on the full serving
// path (EXPERIMENTS.md E24). With Obs nil the per-request cost is pointer
// checks only; run with -benchmem to compare allocations.
func BenchmarkLookupObsOff(b *testing.B) { benchLookup(b, nil) }
func BenchmarkLookupObsOn(b *testing.B) {
	benchLookup(b, obs.New(obs.Config{}))
}

func benchLookup(b *testing.B, o *obs.Observer) {
	s, err := New(Config{Side: 8, Obs: o})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Lookup(ctx, int64(i%40)); err != nil {
			b.Fatal(err)
		}
	}
}
