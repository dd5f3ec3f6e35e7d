package faults

import (
	"math"
	"testing"
	"time"
)

// consult pokes one injection-seam consultation and discards the (no-fault)
// decision.
func consult(l *Latency) { _ = l.SortLie("test", 2) }

// TestLatencyZeroConfigInjectsNothing pins the no-op contract: a zero-config
// latency injector consults without sleeping and decides "no fault" at every
// seam point, so wrapping one changes nothing.
func TestLatencyZeroConfigInjectsNothing(t *testing.T) {
	l := NewLatency(LatencyConfig{}, nil)
	for i := 0; i < 200; i++ {
		if lie := l.SortLie("op", 8); lie != 0 {
			t.Fatalf("zero-config SortLie lied: %d", lie)
		}
		if _, _, ok := l.CorruptCell("op", 8); ok {
			t.Fatal("zero-config CorruptCell corrupted")
		}
		if _, ok := l.DropReply(4); ok {
			t.Fatal("zero-config DropReply dropped")
		}
		if _, _, ok := l.DuplicateReply(4); ok {
			t.Fatal("zero-config DuplicateReply duplicated")
		}
	}
	if got := l.Injected(); got != 0 {
		t.Fatalf("zero-config injector slept %v", got)
	}
	if got := l.Stalls(); got != 0 {
		t.Fatalf("zero-config injector stalled %d times", got)
	}
	if got := l.Consultations(); got != 800 {
		t.Fatalf("consultation count %d, want 800", got)
	}
}

// TestLatencyFactorInjectsProportionalDelay checks the constant-slow shape:
// with Factor f, each consultation charges (f-1)× the capped wall-clock gap
// since the previous one, so real gaps between consultations accumulate
// injected sleep.
func TestLatencyFactorInjectsProportionalDelay(t *testing.T) {
	l := NewLatency(LatencyConfig{Factor: 5}, nil)
	l.Arm(time.Now())
	for i := 0; i < 5; i++ {
		time.Sleep(300 * time.Microsecond) // the "real work" gap being amplified
		consult(l)
	}
	// 5 consultations × (5-1) × ~300µs gap ≈ 6ms; demand a loose 1ms floor so
	// coarse timers cannot flake the test.
	if got := l.Injected(); got < time.Millisecond {
		t.Fatalf("factor-5 injector slept only %v over 5 gapped consultations", got)
	}
	if got := l.Stalls(); got != 0 {
		t.Fatalf("factor-only config stalled %d times", got)
	}
}

// TestLatencyAfterDelaysOnset checks the outage-script knob: before the
// After offset elapses the injector is inert even with a large factor.
func TestLatencyAfterDelaysOnset(t *testing.T) {
	l := NewLatency(LatencyConfig{Factor: 50, After: time.Hour}, nil)
	l.Arm(time.Now())
	for i := 0; i < 5; i++ {
		time.Sleep(200 * time.Microsecond)
		consult(l)
	}
	if got := l.Injected(); got != 0 {
		t.Fatalf("injector slept %v before its onset", got)
	}
}

// TestLatencySetFactorDisarms checks the runtime override used by recovery
// scenarios: dropping the factor to 1 stops proportional injection.
func TestLatencySetFactorDisarms(t *testing.T) {
	l := NewLatency(LatencyConfig{Factor: 10}, nil)
	l.Arm(time.Now())
	l.SetFactor(1)
	for i := 0; i < 5; i++ {
		time.Sleep(200 * time.Microsecond)
		consult(l)
	}
	if got := l.Injected(); got != 0 {
		t.Fatalf("factor reset to 1 still slept %v", got)
	}
}

// TestLatencyStallsFire checks the intermittent-stall shape: consultations
// spread over a few stall intervals hit stall windows, each charging
// StallFor, and the stall count tracks the injected total.
func TestLatencyStallsFire(t *testing.T) {
	const stallFor = 2 * time.Millisecond
	l := NewLatency(LatencyConfig{Seed: 1, StallEvery: 500 * time.Microsecond, StallFor: stallFor}, nil)
	l.Arm(time.Now())
	deadline := time.Now().Add(2 * time.Second)
	for l.Stalls() < 2 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
		consult(l)
	}
	if got := l.Stalls(); got < 2 {
		t.Fatalf("only %d stalls fired in 2s with a 500µs mean interval", got)
	}
	if got := l.Injected(); got < stallFor {
		t.Fatalf("injected %v is below a single stall's duration %v", got, stallFor)
	}
}

// TestLatencyStallJitterIsSeeded pins the determinism contract for outage
// scripts: two injectors with the same seed draw identical stall-jitter
// sequences (so their stall schedules match, consultation for consultation),
// and a different seed diverges.
func TestLatencyStallJitterIsSeeded(t *testing.T) {
	draw := func(seed int64, n int) []float64 {
		l := NewLatency(LatencyConfig{Seed: seed}, nil)
		out := make([]float64, n)
		for i := range out {
			out[i] = l.stallJitter()
		}
		return out
	}
	a, b, c := draw(42, 64), draw(42, 64), draw(43, 64)
	diverged := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: same seed produced %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 1 {
			t.Fatalf("draw %d: %v outside [0,1)", i, a[i])
		}
		if a[i] != c[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 drew identical 64-long jitter sequences")
	}
}

// TestLatencyCreepRamp checks the linear creep evaluation: factor 1 at
// onset, the midpoint halfway up, the full factor at and past the ramp end.
func TestLatencyCreepRamp(t *testing.T) {
	l := NewLatency(LatencyConfig{Factor: 9, Ramp: 8 * time.Second}, nil)
	cases := []struct {
		since time.Duration
		want  float64
	}{
		{0, 1},
		{2 * time.Second, 3},
		{4 * time.Second, 5},
		{8 * time.Second, 9},
		{time.Minute, 9},
	}
	for _, c := range cases {
		if got := l.factorAtLocked(c.since); got != c.want {
			t.Fatalf("factorAt(%v) = %v, want %v", c.since, got, c.want)
		}
	}
}

// relayInjector is a fault-decision stub with recognisable return values,
// for checking that Latency delegates every seam method to its inner
// injector.
type relayInjector struct{ calls int }

func (r *relayInjector) SortLie(string, int) int64                { r.calls++; return 7 }
func (r *relayInjector) CorruptCell(string, int) (int, int, bool) { r.calls++; return 1, 2, true }
func (r *relayInjector) DropReply(int) (int, bool)                { r.calls++; return 3, true }
func (r *relayInjector) DuplicateReply(int) (int, int, bool)      { r.calls++; return 4, 5, true }

// TestLatencyDelegatesToInner checks the chaining contract: a latency
// injector wrapped around a fault injector passes every decision through
// unchanged, so gray failure and fail-stop chaos compose.
func TestLatencyDelegatesToInner(t *testing.T) {
	inner := &relayInjector{}
	l := NewLatency(LatencyConfig{}, inner)
	if lie := l.SortLie("op", 8); lie != 7 {
		t.Fatalf("SortLie relay = %d, want 7", lie)
	}
	if a, b, ok := l.CorruptCell("op", 8); a != 1 || b != 2 || !ok {
		t.Fatalf("CorruptCell relay = %d,%d,%v", a, b, ok)
	}
	if a, ok := l.DropReply(4); a != 3 || !ok {
		t.Fatalf("DropReply relay = %d,%v", a, ok)
	}
	if a, b, ok := l.DuplicateReply(4); a != 4 || b != 5 || !ok {
		t.Fatalf("DuplicateReply relay = %d,%d,%v", a, b, ok)
	}
	if inner.calls != 4 {
		t.Fatalf("inner saw %d calls, want 4", inner.calls)
	}
}

// TestSlowdownDelaySaturates checks the proportional delay at a 1 ms gap
// without sleeping: gap·(f−1), saturated at the largest time.Duration once
// the product passes int64 nanoseconds. Before the saturation the factors
// from 9.3·10¹² up converted to a negative delay, so nothing slept.
func TestSlowdownDelaySaturates(t *testing.T) {
	const gap = time.Millisecond
	const maxDelay = time.Duration(math.MaxInt64)
	for _, c := range []struct {
		f        float64
		min, max time.Duration
	}{
		{1, 0, 0},
		{0.5, 0, 0},
		{math.NaN(), 0, 0},
		{10, 9 * time.Millisecond, 9 * time.Millisecond},
		{9.2e12, 2555555 * time.Hour, 2555556 * time.Hour},
		{9.3e12, maxDelay, maxDelay},
		{1e13, maxDelay, maxDelay},
		{1e300, maxDelay, maxDelay},
		{math.Inf(1), maxDelay, maxDelay},
	} {
		if d := SlowdownDelay(gap, c.f); d < c.min || d > c.max {
			t.Errorf("factor %g at a %v gap: delay %v, want [%v, %v]", c.f, gap, d, c.min, c.max)
		}
	}
	if d := SlowdownDelay(0, math.Inf(1)); d != 0 {
		t.Errorf("an infinite factor over no gap delays %v, want 0", d)
	}
}
