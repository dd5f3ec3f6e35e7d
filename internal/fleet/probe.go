package fleet

// Replica health and re-admission (DESIGN.md §3.6, §3.8, §3.11). The fleet
// is the only owner of both: an instance reports its breaker verdict
// (serve.Instance.CircuitOpen) and runs a canary when asked
// (serve.Instance.Canary), and the fleet's one prober decides when to ask.
// Each tick it canaries every circuit-open replica and latency-probes every
// ejected replica whose circuit is closed. A dispatch that meets a round
// fault or an open circuit wakes it early, so a fresh opening is canaried
// at once — once per opening, the rest at the tick cadence.

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// Health is a replica's — or the whole fleet's — admission-facing state:
//
//	Healthy   — circuit closed. For the fleet: some replica is healthy and
//	            not ejected.
//	Degraded  — circuit open: the replica fails lookups fast with
//	            serve.ErrCircuitOpen until a canary closes it. For the
//	            fleet: no replica is healthy and un-ejected.
//	LameDuck  — the fleet's Shutdown has begun.
//	Ejected   — the latency-outlier verdict (§3.11): correct answers and a
//	            closed circuit, but an outlier EWMA latency score. Only
//	            per-replica rows report it; routing reads
//	            ReplicaView.Ejected.
type Health int32

const (
	Healthy Health = iota
	Degraded
	LameDuck
	Ejected
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case LameDuck:
		return "lame-duck"
	case Ejected:
		return "ejected"
	default:
		return "unknown"
	}
}

// DefaultProbeInterval is the prober's tick when Config.ProbeInterval is
// zero.
const DefaultProbeInterval = 50 * time.Millisecond

// probeTimeout bounds one latency probe. A probe that times out records
// the timeout as a censored latency sample.
const probeTimeout = time.Second

// probeLoop is the fleet's one re-admission loop: a pass every tick, and a
// wake-only pass whenever a dispatch reports a fault. It runs from New
// until Shutdown cancels ctx.
func (f *Fleet) probeLoop(ctx context.Context) {
	defer close(f.probeDone)
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.probePass(ctx, true)
		case <-f.probeWake:
			f.probePass(ctx, false)
		}
	}
}

// wakesProber reports whether a dispatch error says a replica's circuit is
// open or has just opened: a round fault or serve.ErrCircuitOpen.
// Overload, budget sheds, closure and the client's own context say nothing
// about the mesh.
func wakesProber(err error) bool {
	var re *core.RunError
	return errors.Is(err, serve.ErrCircuitOpen) || errors.As(err, &re)
}

// wakeOnFault wakes the prober when err calls for a canary. Non-blocking:
// one pending wake covers every opening that happens before it is served.
// The nil check keeps answered dispatches off wakesProber, whose errors.As
// target would be allocated on every call.
func (f *Fleet) wakeOnFault(err error) {
	if err == nil || !wakesProber(err) {
		return
	}
	select {
	case f.probeWake <- struct{}{}:
	default:
	}
}

// probePass is one prober pass over the live replicas. On a tick it
// canaries every circuit-open replica and, with ejection enabled,
// latency-probes every ejected replica whose circuit is closed. On a wake
// it canaries only the circuit-open replicas whose current opening has not
// been canaried yet; the rest wait for the tick.
func (f *Fleet) probePass(ctx context.Context, tick bool) {
	for i, r := range f.reps {
		inst := f.instance(i)
		if inst == nil {
			continue
		}
		switch {
		case inst.CircuitOpen():
			if !tick && r.canaried.Load() == inst {
				continue
			}
			r.canaried.Store(inst)
			if inst.Canary(ctx) == nil {
				r.canaried.Store(nil) // closed: the next opening is fresh
			}
		case tick && f.cfg.Eject.Enabled && r.ejected.Load():
			f.probeReplica(ctx, i, inst)
		}
	}
}

// probeReplica sends one membership lookup (membership is always served)
// to an ejected replica whose circuit is closed and scores the round trip. A correct
// answer feeds its latency into the score: fast probes decay the EWMA
// until the readmit rule fires, slow ones keep the replica ejected. A probe
// that hit its own deadline ran at least that long, which is recorded as a
// censored sample. Any other failure — a wrong answer, a round fault,
// closure — records nothing: correctness is the breaker's jurisdiction,
// and a probe that fails fast says nothing about how fast the replica
// answers.
func (f *Fleet) probeReplica(ctx context.Context, i int, inst *serve.Instance) {
	st := f.ss.Get(serve.KindMembership)
	probes := st.Canary()
	if len(probes) == 0 {
		return
	}
	args := probes[0]
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	f.ejectProbes.Add(1)
	start := time.Now()
	res, err := inst.LookupKind(pctx, serve.KindMembership, args)
	d := time.Since(start)
	switch {
	case err == nil:
		want := serve.HostAnswer(st, args)
		if res.Found == want.Found && res.Value == want.Value {
			f.noteLatency(i, d)
		}
	case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
		f.noteLatency(i, d)
	}
}
