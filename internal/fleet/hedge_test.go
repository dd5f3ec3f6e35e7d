package fleet

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestHedgeBeatsGraySlowReplica is the satellite-2 contract, run under
// -race in CI: replica 0 — the least-loaded tie-break pick — carries a
// latency injector that makes its mesh work ~200× slower while staying
// perfectly correct (a gray failure: no faults, closed breaker, Healthy
// self-report), and hedging with a small fixed delay routes around it.
// Every lookup must return exactly one oracle-correct answer, hedges must
// fire and win, and the win accounting must not double-count: a hedge win
// is not a failover, dispatches count once per lookup, and the oracle rung
// is never reached.
func TestHedgeBeatsGraySlowReplica(t *testing.T) {
	// Factor 1 keeps the injector inert through the dictionary build; the
	// test arms the slowdown only once the fleet is up, via SetFactor.
	lat := faults.NewLatency(faults.LatencyConfig{Factor: 1}, nil)
	f := newTestFleet(t, Config{
		Replicas: 2,
		Policy:   LeastLoaded(), // ties break to replica 0, the slow one
		Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond},
		MakeInjector: func(i int) mesh.Injector {
			if i == 0 {
				return lat
			}
			return nil
		},
		Hedge: HedgeConfig{Enabled: true, Delay: 2 * time.Millisecond},
	})
	// Cleanups run last-in first-out: the slow replica heals before the
	// fleet's drain, which would otherwise wait out the rounds of every
	// hedge loser still queued on it.
	t.Cleanup(func() { lat.SetFactor(1) })

	// Warm both replicas while the fleet is uniformly fast.
	for i := 0; i < 4; i++ {
		needle := int64(2*i + 1)
		res, err := f.Lookup(context.Background(), needle)
		if err != nil {
			t.Fatalf("warm lookup %d: %v", needle, err)
		}
		checkAnswer(t, f, needle, res)
	}
	warm := f.Stats().Dispatched

	lat.SetFactor(200) // replica 0 goes gray: slow, correct, Healthy

	// Sequential phase: drive lookups until hedges demonstrably win, with a
	// generous iteration bound instead of a wall-clock one.
	issued := int64(0)
	for i := 0; i < 300; i++ {
		needle := int64(i)
		res, err := f.Lookup(context.Background(), needle)
		if err != nil {
			t.Fatalf("lookup %d under gray slowdown: %v", needle, err)
		}
		checkAnswer(t, f, needle, res)
		issued++
		if st := f.Stats(); st.HedgeWins >= 3 && i >= 20 {
			break
		}
	}

	// Concurrent phase: racing hedged dispatches against each other is what
	// -race is here to scrutinise (score CAS, answer channel, cancellation).
	const workers, perWorker = 8, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				needle := int64(w*perWorker + i)
				res, err := f.Lookup(context.Background(), needle)
				if err != nil {
					t.Errorf("concurrent lookup %d: %v", needle, err)
					return
				}
				checkAnswer(t, f, needle, res)
			}
		}()
	}
	wg.Wait()
	issued += workers * perWorker

	st := f.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("no hedges fired against a 200× slow primary: %+v", st)
	}
	if st.HedgeWins > st.Hedges {
		t.Fatalf("hedge wins %d exceed hedges %d", st.HedgeWins, st.Hedges)
	}
	// No double-count: one dispatch per lookup regardless of speculative
	// attempts, hedge wins stay out of the failover ledger, and no lookup
	// fell through to the oracle.
	if st.Dispatched != warm+issued {
		t.Fatalf("dispatched %d for %d lookups — hedges leaked into the dispatch count", st.Dispatched, warm+issued)
	}
	if st.FailoverServed != 0 || st.Failovers != 0 {
		t.Fatalf("hedge wins were booked as failovers: %+v", st)
	}
	if st.OracleServed != 0 || st.Unrouted != 0 {
		t.Fatalf("gray slowdown reached the oracle/unrouted rungs: %+v", st)
	}
	// Gray means gray: the slow replica never faulted and still reports up.
	if st.DownReplicas != 0 || st.Crashes != 0 {
		t.Fatalf("latency injection crashed a replica: %+v", st)
	}
}

// TestHedgeDisabledNeverSpeculates pins the default: without Hedge.Enabled
// the dispatch path is the plain single-attempt call and no hedge counters
// move, even with a fixed delay configured.
func TestHedgeDisabledNeverSpeculates(t *testing.T) {
	f := newTestFleet(t, Config{
		Replicas: 2,
		Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond},
		Hedge:    HedgeConfig{Delay: time.Nanosecond}, // armed but not enabled
	})
	for i := 0; i < 10; i++ {
		res, err := f.Lookup(context.Background(), int64(i))
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		checkAnswer(t, f, int64(i), res)
	}
	if st := f.Stats(); st.Hedges != 0 || st.HedgeWins != 0 {
		t.Fatalf("disabled hedging still speculated: %+v", st)
	}
}

// inOrder is a fixed preference: the lowest-index routable replica, so
// every dispatch's primary is replica 0 and its hedge replica 1.
type inOrder struct{}

func (inOrder) Name() string { return "in-order" }

func (inOrder) Pick(views []ReplicaView, skip func(int) bool) int {
	for _, v := range views {
		if routable(v, skip) {
			return v.Index
		}
	}
	return -1
}

// stalledHedgeFleet builds a two-replica fleet whose replica 0, every
// dispatch's primary, never finishes a round until the test ends, so every
// lookup is a hedge won by replica 1 after delay. The stall is released
// before the fleet drains.
func stalledHedgeFleet(t *testing.T, delay time.Duration, o *obs.Observer) *Fleet {
	t.Helper()
	stall := newStallInjector()
	f := newTestFleet(t, Config{
		Replicas: 2,
		Policy:   inOrder{},
		Obs:      o,
		Instance: serve.Config{Side: 8},
		MakeInjector: func(i int) mesh.Injector {
			if i == 0 {
				return stall
			}
			return nil
		},
		Hedge: HedgeConfig{Enabled: true, Delay: delay},
	})
	stall.armed.Store(true)
	t.Cleanup(func() { close(stall.release) }) // runs before the drain
	return f
}

// TestHedgeLoserFeedsCensoredSample pins the censored-sample rule: a
// primary dropped because its hedge won still ran at least the hedge delay,
// and that lower bound enters its latency score, once per hedge win. It is
// the evidence that ejects a replica every lookup hedges around.
func TestHedgeLoserFeedsCensoredSample(t *testing.T) {
	const delay = 2 * time.Millisecond
	f := stalledHedgeFleet(t, delay, nil)
	slow, fast := f.reps[0], f.reps[1]
	const lookups = 5
	for i := 0; i < lookups; i++ {
		needle := int64(2*i + 1)
		res, err := f.Lookup(context.Background(), needle)
		if err != nil {
			t.Fatalf("lookup %d: %v", needle, err)
		}
		checkAnswer(t, f, needle, res)
		if res.Replica != 1 {
			t.Fatalf("lookup %d answered by replica %d, want the hedge on replica 1", needle, res.Replica)
		}
		n := int64(i + 1)
		if got := slow.latSamples.Load(); got != n {
			t.Fatalf("after %d hedge wins the stalled primary has %d latency samples, want %d", n, got, n)
		}
		if got := fast.latSamples.Load(); got != n {
			t.Fatalf("after %d hedge wins the hedge replica has %d latency samples, want %d", n, got, n)
		}
		if score := time.Duration(slow.ewmaNS.Load()); score < delay {
			t.Fatalf("stalled primary scored %s, below the %s it ran at least", score, delay)
		}
	}
	st := f.Stats()
	if st.Hedges != lookups || st.HedgeWins != lookups {
		t.Fatalf("%d hedges and %d wins for %d lookups, want %d each", st.Hedges, st.HedgeWins, lookups, lookups)
	}
}

// TestHedgeWithObserverTracesSafely runs hedge wins with observability on,
// concurrently, under -race in CI. The fleet trace of each lookup must
// still partition its end-to-end time and finish as a failover; each
// dropped primary's child trace, which its instance began, is counted
// abandoned and never finished or retained; every answer is correct.
func TestHedgeWithObserverTracesSafely(t *testing.T) {
	o := obs.New(obs.Config{Ring: 256})
	f := stalledHedgeFleet(t, 2*time.Millisecond, o)
	const workers, perWorker = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				needle := int64(w*perWorker + i)
				res, err := f.Lookup(context.Background(), needle)
				if err != nil {
					t.Errorf("lookup %d: %v", needle, err)
					return
				}
				checkAnswer(t, f, needle, res)
			}
		}()
	}
	wg.Wait()
	const lookups = workers * perWorker
	if st := f.Stats(); st.HedgeWins != lookups {
		t.Fatalf("%d hedge wins for %d lookups against a stalled primary", st.HedgeWins, lookups)
	}

	// Each lookup began three traces: the fleet's, and one child per
	// attempt. Only the dropped primaries' children are abandoned.
	if got := o.Begun(); got != 3*lookups {
		t.Fatalf("%d traces begun for %d hedged lookups, want %d", got, lookups, 3*lookups)
	}
	if got := o.Abandoned(); got != lookups {
		t.Fatalf("%d traces abandoned, want one dropped primary per lookup (%d)", got, lookups)
	}
	finished := int64(0)
	for oc := obs.OutcomeMesh; oc <= obs.OutcomeClosed; oc++ {
		finished += o.OutcomeCount(oc)
	}
	if finished != 2*lookups {
		t.Fatalf("%d traces finished, want the fleet's and the winner's per lookup (%d)", finished, 2*lookups)
	}
	if got := o.OutcomeCount(obs.OutcomeFailover); got != lookups {
		t.Fatalf("%d failover outcomes, want every hedge win (%d)", got, lookups)
	}
	fleetTraces := 0
	for _, tr := range o.Traces() {
		if tr.End.IsZero() {
			t.Fatalf("trace %s retained unfinished", tr.ID)
		}
		checkTracePartition(t, tr)
		if tr.Outcome == obs.OutcomeFailover {
			fleetTraces++
			if tr.Replica != 1 {
				t.Errorf("hedge-win trace %s names replica %d, want 1", tr.ID, tr.Replica)
			}
		}
	}
	if fleetTraces != lookups {
		t.Fatalf("%d hedge-win fleet traces retained, want %d", fleetTraces, lookups)
	}
}
