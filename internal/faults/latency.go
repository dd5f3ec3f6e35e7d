package faults

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mesh"
)

// Latency is a mesh.Injector that injects wall-clock delay instead of data
// faults: a gray failure. Every consultation point of the injection seam —
// one per charged mesh operation — may sleep before delegating to the
// wrapped injector (or returning "no fault" when none is wrapped), so a
// replica carrying one becomes slow without a single round failing: audits
// pass, the breaker sees no faults, /healthz stays 200, and step tables are
// byte-identical to an uninjected run. This is the failure mode the
// fail-stop chaos of internal/faults.Injector cannot produce, and the one
// the fleet's hedging and latency-aware ejection exist to absorb.
//
// The slowdown is gap-proportional: each consultation charges
// (factor-1) × the wall-clock gap since the previous consultation (capped
// at maxGap so idle time between rounds is not amplified), which makes the
// replica's mesh work run at ~factor× wall-clock cost regardless of batch
// size or kind mix. Three degradation shapes compose from the config:
//
//	constant-slow — Factor > 1, Ramp 0: the replica is factor× slower from
//	                the onset instant on.
//	creeping      — Factor > 1, Ramp > 0: the slowdown grows linearly from
//	                1× to Factor× over Ramp, modelling slow resource decay.
//	stalls        — StallEvery > 0: the replica freezes for StallFor at
//	                seeded-jittered intervals, modelling GC/IO pauses.
//
// The schedule is anchored at Arm time (or lazily at the first consultation
// when Arm is never called) plus the After offset, so an outage script can
// stage "replica 1 becomes 10× slower at t=2s".
type Latency struct {
	cfg   LatencyConfig
	inner mesh.Injector

	mu        sync.Mutex
	armed     time.Time // schedule origin (zero until armed)
	last      time.Time // previous consultation, for the gap charge
	nextStall time.Time
	stallSeq  uint64  // deterministic stall-jitter counter
	factor    float64 // live slowdown target (SetFactor overrides cfg.Factor)

	calls  atomic.Int64
	slept  atomic.Int64 // injected ns
	stalls atomic.Int64
}

// LatencyConfig configures a Latency injector. The zero value injects
// nothing (factor 1, no stalls).
type LatencyConfig struct {
	// Seed jitters the stall schedule deterministically (same seed, same
	// stall instants relative to arming).
	Seed int64
	// Factor is the wall-clock slowdown multiple for mesh work (≤ 1 means
	// no proportional slowdown).
	Factor float64
	// Ramp makes the slowdown creep: the factor grows linearly from 1 to
	// Factor over this window after onset. 0 applies Factor as a step.
	Ramp time.Duration
	// After delays the degradation onset past the arming instant, so a
	// schedule can start a healthy replica and break it mid-run.
	After time.Duration
	// StallEvery enables intermittent stalls at this mean interval
	// (jittered ±50% from Seed); 0 disables stalls.
	StallEvery time.Duration
	// StallFor is each stall's duration (default 50ms when stalls are on).
	StallFor time.Duration
}

// maxGap caps the inter-consultation gap charged by the proportional
// slowdown, so idle spells between rounds are not amplified into huge
// sleeps on the next round's first operation.
const maxGap = time.Millisecond

var _ mesh.Injector = (*Latency)(nil)

// NewLatency returns a latency injector wrapping inner (nil injects latency
// only — every fault decision is "no fault").
func NewLatency(cfg LatencyConfig, inner mesh.Injector) *Latency {
	if cfg.StallEvery > 0 && cfg.StallFor <= 0 {
		cfg.StallFor = 50 * time.Millisecond
	}
	return &Latency{cfg: cfg, inner: inner, factor: cfg.Factor}
}

// Arm anchors the degradation schedule at t: onset is t+After. Without an
// explicit Arm the schedule anchors at the first consultation, which for a
// serving replica is its first post-build round.
func (l *Latency) Arm(t time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.armed.IsZero() {
		l.armed = t
		l.last = t
	}
}

// SetFactor replaces the slowdown target at runtime (ops override and the
// recovery half of ejection tests: a slow replica that heals).
func (l *Latency) SetFactor(f float64) {
	l.mu.Lock()
	l.factor = f
	l.mu.Unlock()
}

// Injected reports the total wall-clock delay injected so far.
func (l *Latency) Injected() time.Duration { return time.Duration(l.slept.Load()) }

// Stalls reports how many stall pauses fired.
func (l *Latency) Stalls() int64 { return l.stalls.Load() }

// Consultations reports how many injection-seam consultations were seen.
func (l *Latency) Consultations() int64 { return l.calls.Load() }

// stallJitter is a deterministic uniform variate in [0,1) from the seed and
// the stall counter (splitmix64, same generator as Injector.rand01).
func (l *Latency) stallJitter() float64 {
	l.stallSeq++
	z := uint64(l.cfg.Seed) + l.stallSeq*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// pause is the shared consultation hook: compute this consultation's delay
// under the lock, sleep outside it (concurrent submesh goroutines pause in
// parallel, which is what "the whole replica is slow" means).
func (l *Latency) pause() {
	l.calls.Add(1)
	now := time.Now()
	l.mu.Lock()
	if l.armed.IsZero() {
		l.armed = now
		l.last = now
	}
	gap := now.Sub(l.last)
	l.last = now
	if gap < 0 {
		gap = 0
	} else if gap > maxGap {
		gap = maxGap
	}
	since := now.Sub(l.armed) - l.cfg.After // time past onset; negative = not yet
	var d time.Duration
	if since >= 0 {
		d = SlowdownDelay(gap, l.factorAtLocked(since))
		if l.cfg.StallEvery > 0 {
			if l.nextStall.IsZero() {
				// First stall lands within one (jittered) interval of onset.
				l.nextStall = now.Add(time.Duration(float64(l.cfg.StallEvery) * (0.5 + l.stallJitter())))
			} else if !now.Before(l.nextStall) {
				if d += l.cfg.StallFor; d < 0 {
					d = math.MaxInt64 // a saturated slowdown plus a stall
				}
				l.stalls.Add(1)
				l.nextStall = now.Add(time.Duration(float64(l.cfg.StallEvery) * (0.5 + l.stallJitter())))
			}
		}
	}
	l.mu.Unlock()
	if d > 0 {
		l.slept.Add(int64(d))
		time.Sleep(d)
	}
}

// SlowdownDelay is the delay a Latency injector adds for a consultation gap
// of gap at slowdown factor f: gap·(f−1), saturated at the largest
// time.Duration. Without the saturation a finite but huge factor (above
// about 9.2·10¹² at a 1 ms gap) overflowed to a negative delay, and the
// outage it asked for never happened. A factor at or below 1 (or NaN) adds
// nothing.
func SlowdownDelay(gap time.Duration, f float64) time.Duration {
	if gap <= 0 || !(f > 1) {
		return 0
	}
	d := float64(gap) * (f - 1)
	if d >= math.MaxInt64 {
		return math.MaxInt64
	}
	return time.Duration(d)
}

// factorAtLocked evaluates the creep ramp at time since onset.
func (l *Latency) factorAtLocked(since time.Duration) float64 {
	f := l.factor
	if f <= 1 {
		return 1
	}
	if l.cfg.Ramp <= 0 || since >= l.cfg.Ramp {
		return f
	}
	return 1 + (f-1)*float64(since)/float64(l.cfg.Ramp)
}

// SortLie implements mesh.Injector.
func (l *Latency) SortLie(op string, items int) int64 {
	l.pause()
	if l.inner != nil {
		return l.inner.SortLie(op, items)
	}
	return 0
}

// CorruptCell implements mesh.Injector.
func (l *Latency) CorruptCell(op string, items int) (int, int, bool) {
	l.pause()
	if l.inner != nil {
		return l.inner.CorruptCell(op, items)
	}
	return 0, 0, false
}

// DropReply implements mesh.Injector.
func (l *Latency) DropReply(replies int) (int, bool) {
	l.pause()
	if l.inner != nil {
		return l.inner.DropReply(replies)
	}
	return 0, false
}

// DuplicateReply implements mesh.Injector.
func (l *Latency) DuplicateReply(replies int) (int, int, bool) {
	l.pause()
	if l.inner != nil {
		return l.inner.DuplicateReply(replies)
	}
	return 0, 0, false
}
