package serve

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Backoff is a jittered exponential backoff policy: the recovery ladder
// sleeps it between round re-executions. Full jitter: attempt k (0-based)
// sleeps a uniform duration in (0, min(Cap, Base·2^k)], so concurrent
// retries decorrelate instead of re-colliding on a fixed boundary.
//
// The zero value is usable: Base defaults to 200µs (one mesh round on the
// small meshes is in that range) and Cap to 50ms.
type Backoff struct {
	Base time.Duration // ceiling of the first sleep (default 200µs)
	Cap  time.Duration // ceiling of any sleep (default 50ms)
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
	base, max := b.Base, b.Cap
	if base <= 0 {
		base = 200 * time.Microsecond
	}
	if max <= 0 {
		max = 50 * time.Millisecond
	}
	if base > max {
		base = max
	}
	ceil := base
	for i := 0; i < attempt && ceil < max; i++ {
		ceil *= 2
	}
	if ceil > max {
		ceil = max
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
