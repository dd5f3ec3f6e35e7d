package fleet

import (
	"math/rand"
	"sync"
	"time"
)

// ChaosConfig drives the instance-level chaos monkey: whole-replica crashes
// and restarts, the failure mode the mesh-level fault injector (internal/
// faults) cannot express. Seeded, so a chaos run's kill schedule is
// reproducible up to goroutine timing.
type ChaosConfig struct {
	// Seed feeds the kill schedule's RNG (required, non-zero).
	Seed int64
	// KillEvery is the mean interval between kills, jittered ±50%
	// (default 500ms).
	KillEvery time.Duration
	// Downtime is how long a killed replica stays down before restart
	// (default 250ms; the rebuild itself adds to time-to-healthy).
	Downtime time.Duration
}

// StartChaos begins killing and restarting replicas until stop is called.
// At most one replica is down at a time and only when at least two are up:
// the monkey tests failover, not total blackout — a fleet-wide outage is a
// separate scenario (see TestAllReplicasDownFallsBackToOracle). The victim
// is a replica holding admitted, unanswered lookups, so each kill forces a
// failover; when none holds any for one more KillEvery, any up replica is
// killed. stop blocks until in-flight kills finish restarting, so a stopped
// fleet is whole.
func (f *Fleet) StartChaos(cfg ChaosConfig) (stop func()) {
	if cfg.KillEvery <= 0 {
		cfg.KillEvery = 500 * time.Millisecond
	}
	if cfg.Downtime <= 0 {
		cfg.Downtime = 250 * time.Millisecond
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(cfg.Seed))
		for {
			wait := time.Duration(float64(cfg.KillEvery) * (0.5 + rng.Float64()))
			select {
			case <-done:
				return
			case <-time.After(wait):
			}
			victim := f.chaosVictim(rng, cfg.KillEvery, done)
			if victim < 0 {
				continue
			}
			if err := f.CrashReplica(victim); err != nil {
				continue
			}
			select {
			case <-done:
			case <-time.After(cfg.Downtime):
			}
			// Restart even when stopping: chaos must hand the fleet back
			// whole. A closed fleet refuses the restart; that's fine.
			_ = f.RestartReplica(victim)
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// chaosPoll is how often chaosVictim looks for a replica with lookups in
// flight.
const chaosPoll = time.Millisecond

// chaosVictim picks a random up replica holding admitted, unanswered
// lookups, polling for one for up to patience before settling for any up
// replica. It returns -1 when fewer than two replicas are up — the last one
// is never killed — or when done closes.
func (f *Fleet) chaosVictim(rng *rand.Rand, patience time.Duration, done <-chan struct{}) int {
	giveUp := time.Now().Add(patience)
	for {
		var up, busy []int
		for i := range f.reps {
			if inst := f.instance(i); inst != nil {
				up = append(up, i)
				if inst.InFlight() > 0 {
					busy = append(busy, i)
				}
			}
		}
		switch {
		case len(up) < 2:
			return -1
		case len(busy) > 0:
			return busy[rng.Intn(len(busy))]
		case !time.Now().Before(giveUp):
			return up[rng.Intn(len(up))]
		}
		select {
		case <-done:
			return -1
		case <-time.After(chaosPoll):
		}
	}
}
