package serve

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// The backoff envelope: the first retry sleeps at most backoffBase (one
// mesh round on the small meshes is in that range), and no retry sleeps
// more than backoffCap.
const (
	backoffBase = 200 * time.Microsecond
	backoffCap  = 50 * time.Millisecond
)

// Backoff is a jittered exponential backoff policy: the recovery ladder
// sleeps it between round re-executions. Full jitter: attempt k (0-based)
// sleeps a uniform duration in (0, min(backoffCap, backoffBase·2^k)], so
// concurrent retries decorrelate instead of re-colliding on a fixed
// boundary. The zero value is usable.
type Backoff struct {
	// Jitter draws the uniform variate in [0, n). Nil uses the process
	// global math/rand source — concurrency-safe but unseedable, so two
	// chaos runs with identical fault seeds still sleep differently.
	// SeededJitter builds a deterministic replacement from the chaos seed.
	Jitter func(n int64) int64
}

// SeededJitter returns a concurrency-safe jitter source seeded with seed,
// for reproducible backoff schedules in chaos runs: the same seed draws the
// same delay sequence (per Backoff value — each caller gets its own stream).
func SeededJitter(seed int64) func(int64) int64 {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(n int64) int64 {
		mu.Lock()
		defer mu.Unlock()
		return rng.Int63n(n)
	}
}

// Delay returns the jittered sleep duration before retry attempt k
// (0-based). Always positive, so callers can use it as a timer interval.
func (b Backoff) Delay(attempt int) time.Duration {
	ceil := backoffBase
	for i := 0; i < attempt && ceil < backoffCap; i++ {
		ceil *= 2
	}
	if ceil > backoffCap {
		ceil = backoffCap
	}
	jitter := b.Jitter
	if jitter == nil {
		jitter = rand.Int63n
	}
	return time.Duration(jitter(int64(ceil))) + 1
}

// Sleep blocks for Delay(attempt) or until ctx is done, whichever comes
// first, and reports whether the full delay elapsed (false means the
// context fired and the caller should stop retrying).
func (b Backoff) Sleep(ctx context.Context, attempt int) bool {
	timer := time.NewTimer(b.Delay(attempt))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
