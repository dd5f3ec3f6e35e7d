package fleet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// TestFailoverTraceCarriesHopAndRun is the PR's acceptance pin: a failed-over
// lookup's trace must show the failover hop as a wall-clock span, the stage
// marks from BOTH replicas on one record, the serving replica index, and the
// cross-link to the step-clock run that finally answered — all partitioning
// the end-to-end latency exactly.
func TestFailoverTraceCarriesHopAndRun(t *testing.T) {
	o := obs.New(obs.Config{})
	f := newTestFleet(t, Config{
		Replicas: 2,
		Policy:   LeastLoaded(), // ties break to replica 0, the broken one
		Obs:      o,
		Instance: serve.Config{
			Side: 8, Audit: true, MaxRetries: -1,
			Linger: 100 * time.Microsecond,
		},
		MakeInjector: func(i int) mesh.Injector {
			if i == 0 {
				return brokenInjector{}
			}
			return nil
		},
		MakeTracer: func(int) *trace.Tracer { return trace.New() },
	})
	res, err := f.Lookup(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replica != 1 || res.Degraded {
		t.Fatalf("want a failover mesh answer from replica 1, got %+v", res)
	}

	var tr *obs.ReqTrace
	for _, cand := range o.Traces() {
		if cand.Outcome == obs.OutcomeFailover {
			tr = cand
			break
		}
	}
	if tr == nil {
		t.Fatal("no failover-outcome trace retained")
	}
	if !tr.HasStage(obs.StageFailover) {
		t.Fatalf("failover trace has no failover_hop span: %+v", tr.Spans)
	}
	if !tr.HasStage(obs.StageMesh) || !tr.HasStage(obs.StageAdmit) {
		t.Fatalf("failover trace lacks per-replica stages: %+v", tr.Spans)
	}
	if tr.Replica != 1 {
		t.Errorf("trace replica %d, want 1", tr.Replica)
	}
	if tr.RunSeq <= 0 || tr.RunLabel == "" {
		t.Errorf("failover trace not linked to the answering step-clock run: seq=%d label=%q",
			tr.RunSeq, tr.RunLabel)
	}
	checkTracePartition(t, tr) // across the replica hop
	if got := o.Find(tr.ID); got != tr {
		t.Error("failover trace not retrievable by ID")
	}
}

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

func countStage(tr *obs.ReqTrace, st obs.Stage) int {
	n := 0
	for _, sp := range tr.Spans {
		if sp.Stage == st {
			n++
		}
	}
	return n
}

// TestStagePartitionUnderChaos drives the recovery ladder of a one-replica
// fleet sharing one Observer — audited faults, retries with backoff, the
// typed fault surfacing, the fleet's oracle — and checks the partition
// invariant holds on every path, with the retry and oracle stages present
// exactly where the outcome says they must be.
func TestStagePartitionUnderChaos(t *testing.T) {
	o := obs.New(obs.Config{Ring: 1024})
	g := &gateInjector{}
	f := newTestFleet(t, Config{
		Replicas: 1,
		Obs:      o,
		Instance: serve.Config{
			Side: 8, Audit: true, Injector: g, Tracer: trace.New(),
			MaxRetries: 2, Linger: 100 * time.Microsecond,
		},
		ProbeInterval: time.Hour, // only the test closes the circuit
	})

	lookupAll := func(n int) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					res, err := f.Lookup(context.Background(), int64(2*i+1))
					if errors.Is(err, serve.ErrOverloaded) {
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
	lookupAll(8) // broken phase: retry ladder → typed fault → fleet oracle, circuit opens
	g.broken.Store(false)
	// A canary closes the circuit so the last phase serves mesh.
	if inst := f.instance(0); inst.Canary(context.Background()) != nil || inst.CircuitOpen() {
		t.Fatal("circuit not closed after faults cleared")
	}
	lookupAll(8) // recovered phase

	if o.OutcomeCount(obs.OutcomeOracle) == 0 {
		t.Fatal("broken phase produced no oracle outcomes")
	}
	if o.OutcomeCount(obs.OutcomeMesh) < 16 {
		t.Fatalf("healthy phases produced %d mesh outcomes, want ≥ 16", o.OutcomeCount(obs.OutcomeMesh))
	}
	sawRetriedOracle := false
	for _, tr := range o.Traces() {
		checkTracePartition(t, tr)
		switch tr.Outcome {
		case obs.OutcomeOracle:
			if !tr.HasStage(obs.StageOracle) || tr.Replica != -1 {
				t.Errorf("oracle trace %s: replica %d, spans %+v", tr.ID, tr.Replica, tr.Spans)
			}
			// A batch that walked the retry ladder shows mesh/backoff/mesh…;
			// one failed fast on the already-open circuit has no mesh attempts.
			if tr.Attempts > 0 {
				if tr.Attempts != 3 { // initial + MaxRetries, all faulting
					t.Errorf("oracle trace %s took %d attempts, want 3", tr.ID, tr.Attempts)
				}
				if !tr.HasStage(obs.StageBackoff) {
					t.Errorf("retried trace %s has no retry_backoff span", tr.ID)
				}
				sawRetriedOracle = true
			}
			if tr.RunSeq != 0 {
				t.Errorf("oracle trace %s links run %d; no round answered it", tr.ID, tr.RunSeq)
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
	if !sawRetriedOracle {
		t.Error("no oracle trace walked the full retry ladder (want mesh/backoff/mesh spans)")
	}
}

// TestFleetLatencySplitByRung pins the fleet's rung-split latency: oracle
// answers land in LatencyOracle, and the combined Latency sees mesh and
// oracle answers alike.
func TestFleetLatencySplitByRung(t *testing.T) {
	g := &gateInjector{}
	f := newTestFleet(t, Config{
		Replicas: 1,
		Instance: serve.Config{
			Side: 8, Audit: true, Injector: g,
			MaxRetries: -1,
		},
		ProbeInterval: time.Hour,
	})
	for i := 0; i < 5; i++ {
		if res, err := f.Lookup(context.Background(), int64(2*i+1)); err != nil || res.Degraded {
			t.Fatalf("healthy lookup: res=%+v err=%v", res, err)
		}
	}
	g.broken.Store(true)
	for i := 0; i < 3; i++ {
		res, err := f.Lookup(context.Background(), int64(2*i+1))
		if err != nil || !res.Degraded || res.Replica != -1 {
			t.Fatalf("broken-phase lookup: res=%+v err=%v, want a fleet-oracle answer", res, err)
		}
	}
	st := f.Stats()
	if st.Latency.Count != 8 || st.LatencyOracle.Count != 3 || st.LatencyFailover.Count != 0 {
		t.Fatalf("rung split: all %+v / oracle %+v / failover %+v", st.Latency, st.LatencyOracle, st.LatencyFailover)
	}
}

// TestFleetOracleTraceMarksLastRung: with every replica down, the trace must
// record the fleet-oracle rung — oracle_fallback span, replica -1, outcome
// oracle — and stay retrievable (oracle answers are always interesting).
func TestFleetOracleTraceMarksLastRung(t *testing.T) {
	o := obs.New(obs.Config{})
	f := newTestFleet(t, Config{
		Replicas: 2,
		Obs:      o,
		Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond},
	})
	for i := 0; i < 2; i++ {
		if err := f.CrashReplica(i); err != nil {
			t.Fatal(err)
		}
	}
	res, err := f.Lookup(context.Background(), 7)
	if err != nil || !res.Degraded || res.Replica != -1 {
		t.Fatalf("all-down lookup: res=%+v err=%v, want degraded oracle answer", res, err)
	}
	if got := o.OutcomeCount(obs.OutcomeOracle); got != 1 {
		t.Fatalf("oracle outcomes %d, want 1", got)
	}
	var tr *obs.ReqTrace
	for _, cand := range o.Traces() {
		if cand.Outcome == obs.OutcomeOracle {
			tr = cand
		}
	}
	if tr == nil {
		t.Fatal("oracle trace not retained")
	}
	if !tr.HasStage(obs.StageOracle) || tr.Replica != -1 {
		t.Fatalf("oracle trace: stages=%+v replica=%d", tr.Spans, tr.Replica)
	}
}

// TestRetryAfterHintNoHealthyReplicas (satellite 2) pins the fallback ladder
// of the fleet's backpressure hint, including the previously undefined
// zero-routable-replicas case:
//
//	healthy replicas exist  → min over healthy instance hints
//	only degraded replicas  → min over degraded instance hints, each at
//	                          least one probe interval (recovery waits on
//	                          the prober's canary)
//	no routable replica     → RestartBoundHint
func TestRetryAfterHintNoHealthyReplicas(t *testing.T) {
	const linger, probeEvery = 2 * time.Millisecond, time.Hour
	f := newTestFleet(t, Config{
		Replicas: 2,
		Instance: serve.Config{
			Side: 8, Linger: linger, Audit: true, MaxRetries: -1,
		},
		ProbeInterval: probeEvery,
		MakeInjector: func(i int) mesh.Injector {
			if i == 0 {
				return brokenInjector{}
			}
			return nil
		},
	})

	// All replicas healthy and idle: the hint is one linger period — the
	// soonest any replica's next round could admit the retry.
	if got := f.RetryAfterHint(); got != linger {
		t.Fatalf("healthy hint %s, want %s", got, linger)
	}

	// Break replica 0's mesh: one terminal fault opens its circuit, making
	// it Degraded but still routable. (The lookup surfaces the typed fault,
	// and the breaker records the terminal failure.) The fleet hint must
	// keep preferring the healthy replica 1.
	inst0 := f.instance(0)
	if _, err := inst0.Lookup(context.Background(), 7); err == nil {
		t.Fatal("broken replica answered; want a typed fault")
	}
	if !inst0.CircuitOpen() {
		t.Fatal("replica 0's circuit still closed after a terminal fault")
	}
	if got := f.RetryAfterHint(); got != linger {
		t.Fatalf("hint with one degraded replica %s, want healthy replica's %s", got, linger)
	}

	// Crash the healthy replica: only the degraded one remains routable, so
	// its canary-bound hint — one probe interval, longer than its queue's —
	// is the answer, still not the restart bound.
	if err := f.CrashReplica(1); err != nil {
		t.Fatal(err)
	}
	if got := f.RetryAfterHint(); got != probeEvery {
		t.Fatalf("degraded-only hint %s, want the probe interval %s", got, probeEvery)
	}
	if got := f.RetryAfterHint(); got == RestartBoundHint {
		t.Fatal("degraded-only fleet must not report the restart bound")
	}

	// No routable replica at all: the hint is the pinned restart bound —
	// a fixed pessimistic constant, not zero and not garbage.
	if err := f.CrashReplica(0); err != nil {
		t.Fatal(err)
	}
	if got := f.RetryAfterHint(); got != RestartBoundHint {
		t.Fatalf("zero-replica hint %s, want RestartBoundHint %s", got, RestartBoundHint)
	}
	if RestartBoundHint <= 0 {
		t.Fatal("RestartBoundHint must be positive")
	}
}
