package serve

import (
	"context"
	"testing"
	"time"
)

// TestBackoffDelayBounds pins the jitter envelope: every delay is positive,
// no delay at attempt k exceeds min(backoffBase·2^k, backoffCap), and the
// delays actually grow with the attempt.
func TestBackoffDelayBounds(t *testing.T) {
	var b Backoff
	ceiling := func(attempt int) time.Duration {
		if ceil := backoffBase << attempt; ceil < backoffCap {
			return ceil
		}
		return backoffCap
	}
	for attempt := 0; attempt < 12; attempt++ {
		ceil := ceiling(attempt)
		for i := 0; i < 200; i++ {
			d := b.Delay(attempt)
			if d <= 0 || d > ceil {
				t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, d, ceil)
			}
		}
	}
	// Before the cap absorbs it, the observed maximum at a later attempt must
	// actually exceed the earlier attempt's whole ceiling (200 uniform draws
	// over (0, 8·backoffBase] miss (backoffBase, 8·backoffBase] with
	// p = (1/8)^200).
	var maxAt3 time.Duration
	for i := 0; i < 200; i++ {
		if d := b.Delay(3); d > maxAt3 {
			maxAt3 = d
		}
	}
	if maxAt3 <= backoffBase {
		t.Fatalf("attempt 3 max observed delay %v never exceeded attempt 0's ceiling", maxAt3)
	}
}

// TestBackoffSleepHonorsContext checks both exits: a live context sleeps
// the full jittered delay, a canceled one returns false immediately.
func TestBackoffSleepHonorsContext(t *testing.T) {
	var b Backoff
	if !b.Sleep(context.Background(), 0) {
		t.Fatal("sleep under a live context reported cancellation")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if b.Sleep(ctx, 10) {
		t.Fatal("sleep under a canceled context reported a full sleep")
	}
	if since := time.Since(start); since > 100*time.Millisecond {
		t.Fatalf("canceled sleep took %v", since)
	}
}

// TestSeededJitterIsDeterministic pins the chaos-reproducibility contract
// (satellite of §3.11): two Backoff values whose Jitter comes from
// SeededJitter with the same seed draw identical delay sequences, a
// different seed diverges, and New wires Config.BackoffSeed into the retry
// ladder's backoff (zero seed keeps the unseeded process-global source).
func TestSeededJitterIsDeterministic(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		b := Backoff{Jitter: SeededJitter(seed)}
		var ds []time.Duration
		for attempt := 0; attempt < 6; attempt++ {
			for i := 0; i < 20; i++ {
				ds = append(ds, b.Delay(attempt))
			}
		}
		return ds
	}
	a, b, c := draw(42), draw(42), draw(43)
	diverged := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: seed 42 twice gave %v vs %v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 drew identical 120-delay sequences")
	}

	seeded := newTestServer(t, Config{Side: 8, BackoffSeed: 7})
	if seeded.backoff.Jitter == nil {
		t.Fatal("Config.BackoffSeed did not seed the retry ladder's jitter")
	}
	unseeded := newTestServer(t, Config{Side: 8})
	if unseeded.backoff.Jitter != nil {
		t.Fatal("zero BackoffSeed installed a jitter override")
	}
}
