package serve

// breaker is the sliding-window failure-rate circuit breaker. It records
// one outcome per mesh-path batch — true when the first attempt faulted,
// whatever happened afterwards — over a fixed window of recent rounds.
// Owned exclusively by the executor goroutine; no locking (the open flag
// the rest of the server reads is mirrored into Instance.circuitOpen).
type breaker struct {
	window []bool
	idx    int
	filled int
	fails  int
}

// breakerThreshold is the windowed first-attempt failure rate at or above
// which the circuit opens.
const breakerThreshold = 0.5

func newBreaker(size int) *breaker {
	return &breaker{window: make([]bool, size)}
}

// record pushes one round outcome and reports whether the windowed failure
// rate now calls for opening the circuit: the window must be full (a cold
// server never opens on its first round) and the rate at or past the
// threshold.
func (b *breaker) record(fail bool) (open bool) {
	if b.filled == len(b.window) {
		if b.window[b.idx] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.window[b.idx] = fail
	if fail {
		b.fails++
	}
	b.idx = (b.idx + 1) % len(b.window)
	return b.filled == len(b.window) &&
		float64(b.fails) >= breakerThreshold*float64(len(b.window))
}

// reset clears the window — called on every circuit transition so the next
// decision is based only on rounds observed in the new state.
func (b *breaker) reset() {
	for i := range b.window {
		b.window[i] = false
	}
	b.idx, b.filled, b.fails = 0, 0, 0
}
