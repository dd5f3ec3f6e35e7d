package fleet

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/mesh"
	"repro/internal/serve"
)

// TestChaosKillsUnderZipfianLoadZeroWrongAnswers is the headline robustness
// scenario (EXPERIMENTS.md E23): a 3-replica fleet under skewed open-fire
// load while the chaos monkey kills and restarts replicas. The acceptance
// bar is absolute — every admitted lookup is answered, every answer matches
// the host oracle — and failover must carry the fleet: crashes happen, yet
// the mesh path (local or failed-over) keeps serving, with the oracle only
// as the last rung.
func TestChaosKillsUnderZipfianLoadZeroWrongAnswers(t *testing.T) {
	f := newTestFleet(t, Config{
		Replicas: 3,
		Policy:   HealthWeighted(),
		Instance: serve.Config{Side: 8, Linger: 200 * time.Microsecond},
	})
	stop := f.StartChaos(ChaosConfig{Seed: 7, KillEvery: 25 * time.Millisecond, Downtime: 10 * time.Millisecond})

	keySpan := uint64(2 * len(f.Tree().Keys)) // ~half hits, half misses
	var answered, degraded atomic.Int64
	const clients = 8
	deadline := time.Now().Add(1200 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*7919 + 1))
			zipf := rand.NewZipf(rng, 1.2, 1, keySpan-1)
			for time.Now().Before(deadline) {
				needle := int64(zipf.Uint64())
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				res, err := f.Lookup(ctx, needle)
				cancel()
				if errors.Is(err, serve.ErrOverloaded) {
					continue // backpressure is a legal outcome, not a wrong answer
				}
				if err != nil {
					t.Errorf("lookup %d under chaos: %v", needle, err)
					return
				}
				checkAnswer(t, f, needle, res)
				answered.Add(1)
				if res.Degraded {
					degraded.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	stop() // blocks until any in-flight kill has restarted its victim

	st := f.Stats()
	if answered.Load() == 0 {
		t.Fatal("chaos run answered nothing")
	}
	if st.Crashes == 0 {
		t.Fatalf("chaos monkey never fired: %+v", st)
	}
	if st.Restarts < st.Crashes {
		t.Fatalf("%d crashes but %d restarts after stop(): the monkey must hand the fleet back whole", st.Crashes, st.Restarts)
	}
	if st.DownReplicas != 0 {
		t.Fatalf("%d replicas still down after the monkey stopped", st.DownReplicas)
	}
	if st.LastTimeToHealthy <= 0 {
		t.Fatalf("restarts happened but no time-to-healthy recorded: %+v", st)
	}
	// Failover dominance: with two healthy replicas always available, the
	// oracle rung must stay a small minority of answers (single-instance
	// chaos would push every crashed-round answer through degrade instead).
	if oracle := st.OracleServed; oracle*5 > answered.Load() {
		t.Fatalf("oracle served %d of %d answers — failover is not carrying the fleet", oracle, answered.Load())
	}
	t.Logf("chaos run: %d answered (%d degraded), %d crashes, %d restarts, %d failover-served, %d oracle, tth max %s",
		answered.Load(), degraded.Load(), st.Crashes, st.Restarts,
		st.FailoverServed, st.OracleServed, st.MaxTimeToHealthy.Round(time.Millisecond))
}

// TestChaosNeverKillsLastReplica pins the monkey's safety rule: with one
// replica already crashed by hand in a 2-replica fleet, the monkey must
// leave the survivor alone.
func TestChaosNeverKillsLastReplica(t *testing.T) {
	f := newTestFleet(t, Config{Replicas: 2, Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond}})
	if err := f.CrashReplica(0); err != nil {
		t.Fatal(err)
	}
	stop := f.StartChaos(ChaosConfig{Seed: 3, KillEvery: 5 * time.Millisecond, Downtime: time.Millisecond})
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		res, err := f.Lookup(context.Background(), 3)
		if err != nil {
			t.Fatalf("lookup with the monkey loose: %v", err)
		}
		if res.Replica != 1 {
			t.Fatalf("lookup served by %d; the lone survivor must be 1", res.Replica)
		}
	}
	stop()
	if got := f.Stats().Crashes; got != 1 {
		t.Fatalf("monkey killed the last replica: %d crashes, want only the manual one", got)
	}
}

// TestChaosKillsReplicaWithLookupInFlight pins the monkey's victim rule: a
// kill lands on a replica holding admitted, unanswered lookups, so it forces
// a failover. One lookup at a time is held in flight on replica 0 alone — a
// latency stall keeps its round running until the kill cancels it — and
// every one of five kills must land there. A uniform pick among the three
// replicas would pass with probability 3⁻⁵.
func TestChaosKillsReplicaWithLookupInFlight(t *testing.T) {
	f := newTestFleet(t, Config{
		Replicas: 3,
		Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond},
		MakeInjector: func(i int) mesh.Injector {
			if i != 0 {
				return nil
			}
			// After its first consultation, every one stalls 5ms: a round
			// outlasts the test, and a kill cancels it within one stall.
			return faults.NewLatency(faults.LatencyConfig{StallEvery: time.Nanosecond, StallFor: 5 * time.Millisecond}, nil)
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	held := make(chan struct{})
	go func() {
		defer close(held)
		for ctx.Err() == nil {
			if inst := f.instance(0); inst != nil {
				_, _ = inst.Lookup(ctx, 3) // returns when a kill cancels its round
			} else {
				time.Sleep(100 * time.Microsecond) // replica 0 is down
			}
		}
	}()
	stop := f.StartChaos(ChaosConfig{Seed: 5, KillEvery: 50 * time.Millisecond, Downtime: 2 * time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	for f.Stats().Crashes < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("monkey killed %d replicas in 5s, want 5", f.Stats().Crashes)
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	st := f.Stats()
	cancel()
	<-held
	// The abandoned lookup's round is still stalled on replica 0; a crash
	// cancels it, so the test's drain does not wait it out.
	_ = f.CrashReplica(0)
	if got := st.PerReplica[0].Crashes; got != st.Crashes {
		t.Fatalf("%d of %d kills landed on replica 0, the only one with a lookup in flight (replicas 1, 2: %d, %d)",
			got, st.Crashes, st.PerReplica[1].Crashes, st.PerReplica[2].Crashes)
	}
}
