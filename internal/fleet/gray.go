package fleet

// Gray-failure resilience (DESIGN.md §3.11): hedged dispatch and
// latency-aware replica ejection. A gray-failed replica answers correctly
// and reports Healthy — its breaker sees no faults — but runs an outlier
// multiple slower than its peers (a latency fault injector, a noisy
// neighbour, a thermally throttled core). Crash detection and the breaker
// ladder never notice; these two mechanisms do:
//
//	hedge  — per-dispatch: when the picked replica has not answered within
//	         the hedge delay (hedgeP99Multiple × the recent per-replica p99
//	         median), the same lookup is speculatively re-dispatched to the
//	         next-preferred replica; the first answer wins and the loser is
//	         abandoned. The dispatch waits for both in one select on the
//	         caller's goroutine.
//	eject  — per-replica: every answered dispatch feeds an EWMA latency
//	         score; a replica whose score reaches ejectMultiple × the
//	         fleet median is ejected — a fourth health state beside
//	         healthy/degraded/lame-duck — and re-admitted only when the
//	         fleet prober's latency probes measure it back within bounds.
//
// Hedging hides the slow replica from this request; ejection hides it from
// all subsequent ones. The censored-sample rule ties them together: an
// abandoned hedge loser ran *at least* its elapsed time, and that lower
// bound feeds the score, so a replica that is always hedged around still
// accumulates the slow samples that get it ejected.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// The gray-failure policy's fixed settings: the adaptive hedge delay and
// the ejection thresholds.
const (
	// hedgeP99Multiple scales the adaptive hedge delay: this many times the
	// median of the per-replica dispatch p99s.
	hedgeP99Multiple = 3
	// hedgeMinDelay floors the adaptive hedge delay, so that a fast fleet
	// does not hedge every lookup on scheduler noise.
	hedgeMinDelay = time.Millisecond
	// ejectMultiple ejects a replica whose EWMA latency score reaches this
	// many times the fleet median.
	ejectMultiple = 4
	// readmitMultiple readmits an ejected replica once probes pull its
	// score to at most this many times the median. It must stay below
	// ejectMultiple: a replica readmitted at a score that ejects it again
	// flaps between the two states on every sample.
	readmitMultiple = 1.5
)

// HedgeConfig configures speculative re-dispatch of slow lookups.
type HedgeConfig struct {
	// Enabled turns hedging on (default off: hedges cost duplicate work).
	Enabled bool
	// Delay is a fixed hedge delay. Zero derives the delay adaptively:
	// hedgeP99Multiple times the median of the per-replica dispatch p99s,
	// and at least hedgeMinDelay.
	Delay time.Duration
	// MinSamples is how many answered dispatches a replica needs before its
	// p99 joins the delay derivation (default 16). Until some replica
	// qualifies no hedge fires — a cold fleet has no "slow" yet.
	MinSamples int64
}

// EjectConfig configures latency-outlier ejection.
type EjectConfig struct {
	// Enabled turns automatic ejection and the prober's latency probes of
	// ejected replicas on. Manual EjectReplica/ReadmitReplica work
	// regardless.
	Enabled bool
	// MinSamples is the score sample floor before a replica can be ejected
	// or counted in the median (default 16).
	MinSamples int64
}

// noteLatency feeds one answered-dispatch (or censored hedge-loser)
// duration into replica i's latency score and histogram, then re-evaluates
// ejection. The EWMA uses α=1/4 — the same shift as the instance-side
// step-ratio model — via CAS so concurrent dispatches never lose samples.
func (f *Fleet) noteLatency(i int, d time.Duration) {
	r := f.reps[i]
	r.lat.Observe(d)
	ns := d.Nanoseconds()
	for {
		old := r.ewmaNS.Load()
		nw := ns
		if old > 0 {
			nw = old + (ns-old)/4
		}
		if r.ewmaNS.CompareAndSwap(old, nw) {
			break
		}
	}
	n := r.latSamples.Add(1)
	if f.cfg.Eject.Enabled {
		f.evalEjection(i, n)
	}
}

// latencyMedian is the fleet's reference point for "normal": the median
// EWMA score across up replicas with enough samples (ejected replicas
// included — with few replicas, excluding the outlier would make the
// median circular). Zero when no replica qualifies yet.
func (f *Fleet) latencyMedian() time.Duration {
	var buf [MaxReplicas]int64
	scores := buf[:0]
	for _, r := range f.reps {
		r.mu.RLock()
		down := r.down
		r.mu.RUnlock()
		if down {
			continue
		}
		if r.latSamples.Load() < f.cfg.Eject.MinSamples {
			continue
		}
		if s := r.ewmaNS.Load(); s > 0 {
			scores = append(scores, s)
		}
	}
	if len(scores) == 0 {
		return 0
	}
	slices.Sort(scores)
	mid := len(scores) / 2
	if len(scores)%2 == 0 {
		return time.Duration((scores[mid-1] + scores[mid]) / 2)
	}
	return time.Duration(scores[mid])
}

// evalEjection applies the outlier rule to replica i after its n-th sample.
// Automatic ejection never takes the last routable replica — a slow answer
// beats an oracle answer — but manual EjectReplica can.
func (f *Fleet) evalEjection(i int, n int64) {
	if n < f.cfg.Eject.MinSamples {
		return
	}
	med := f.latencyMedian()
	if med <= 0 {
		return
	}
	r := f.reps[i]
	score := float64(r.ewmaNS.Load())
	if r.ejected.Load() {
		if score <= readmitMultiple*float64(med) {
			f.readmitReplica(i)
		}
		return
	}
	if score >= ejectMultiple*float64(med) && f.routableBesides(i) > 0 {
		f.markEjected(i)
	}
}

// routableBesides counts replicas other than i that could take traffic.
func (f *Fleet) routableBesides(i int) int {
	n := 0
	for j := range f.reps {
		if j != i && routable(f.view(j), skipNone) {
			n++
		}
	}
	return n
}

// skipNone is the skip predicate that skips no replica.
func skipNone(int) bool { return false }

func (f *Fleet) markEjected(i int) {
	if f.reps[i].ejected.CompareAndSwap(false, true) {
		f.ejections.Add(1)
	}
}

func (f *Fleet) readmitReplica(i int) {
	if f.reps[i].ejected.CompareAndSwap(true, false) {
		f.readmissions.Add(1)
	}
}

// EjectReplica manually ejects replica i from routing (ops drain, tests).
// Unlike automatic ejection it may take the last routable replica — the
// operator said so — which drives fleet health to Degraded and /healthz to
// 503 until probes (or ReadmitReplica) bring one back.
func (f *Fleet) EjectReplica(i int) error {
	if i < 0 || i >= len(f.reps) {
		return fmt.Errorf("fleet: no replica %d", i)
	}
	f.markEjected(i)
	return nil
}

// ReadmitReplica manually clears replica i's ejection.
func (f *Fleet) ReadmitReplica(i int) error {
	if i < 0 || i >= len(f.reps) {
		return fmt.Errorf("fleet: no replica %d", i)
	}
	f.readmitReplica(i)
	return nil
}

// hedgeDelay resolves the current hedge delay: the fixed configured delay,
// or hedgeP99Multiple × the median per-replica dispatch p99 (replicas with
// at least MinSamples answered dispatches), floored by hedgeMinDelay and
// cached for 100ms so the percentile scan is off the per-dispatch path.
// Zero means "no data yet — do not hedge".
func (f *Fleet) hedgeDelay() time.Duration {
	if f.cfg.Hedge.Delay > 0 {
		return f.cfg.Hedge.Delay
	}
	const cacheFor = int64(100 * time.Millisecond)
	now := time.Now().UnixNano()
	if now-f.hedgeDelayAt.Load() < cacheFor {
		return time.Duration(f.hedgeDelayNS.Load())
	}
	return f.recomputeHedgeDelay(now)
}

// recomputeHedgeDelay is hedgeDelay's percentile scan, stored in the cache
// at now. It is kept out of line: the histogram snapshot it takes is a
// 7.5 KiB stack array once inlined, and every lookup's goroutine would grow
// its stack for it even on the cached path.
//
//go:noinline
func (f *Fleet) recomputeHedgeDelay(now int64) time.Duration {
	var p99s []int64
	for _, r := range f.reps {
		if r.latSamples.Load() < f.cfg.Hedge.MinSamples {
			continue
		}
		if p := r.lat.Snapshot().Quantile(0.99).Nanoseconds(); p > 0 {
			p99s = append(p99s, p)
		}
	}
	var d time.Duration
	if len(p99s) > 0 {
		sort.Slice(p99s, func(a, b int) bool { return p99s[a] < p99s[b] })
		d = max(time.Duration(hedgeP99Multiple*p99s[len(p99s)/2]), hedgeMinDelay)
	}
	f.hedgeDelayNS.Store(int64(d))
	f.hedgeDelayAt.Store(now)
	return d
}

// picker is one pick's scratch: the replica views the policy reads and
// the skip predicate over the replicas already tried, bound once to the
// picker. The fleet keeps pickers for reuse, so a pick allocates nothing;
// this is why a Policy must not retain views or skip past Pick.
type picker struct {
	views []ReplicaView
	tried uint64
	skip  func(int) bool
}

// takePicker returns a kept picker, or a new one, holding fresh views of
// every replica and tried as its skip set. Give it back with
// f.pickers.Put.
func (f *Fleet) takePicker(tried uint64) *picker {
	p, ok := f.pickers.Get()
	if !ok {
		p = &picker{views: make([]ReplicaView, len(f.reps))}
		p.skip = func(i int) bool { return p.tried&(1<<uint(i)) != 0 }
	}
	for i := range p.views {
		p.views[i] = f.view(i)
	}
	p.tried = tried
	return p
}

// pickStrict picks the hedge target: next-preferred by the same policy,
// never an ejected replica (hedging onto a known outlier helps nobody).
func (f *Fleet) pickStrict(tried uint64) int {
	p := f.takePicker(tried)
	idx := f.policy.Pick(p.views, p.skip)
	f.pickers.Put(p)
	return idx
}

// pick is the dispatch loop's replica choice: the policy's strict pick
// first; when that fails and ejected replicas exist, one more pass with
// ejection masked — a last resort, because an ejected replica's slow answer
// still beats an oracle answer.
func (f *Fleet) pick(tried uint64) int {
	p := f.takePicker(tried)
	defer f.pickers.Put(p)
	if idx := f.policy.Pick(p.views, p.skip); idx >= 0 {
		return idx
	}
	masked := false
	for i := range p.views {
		if p.views[i].Ejected {
			p.views[i].Ejected = false
			masked = true
		}
	}
	if !masked {
		return -1
	}
	return f.policy.Pick(p.views, p.skip)
}

// pending is one attempt of a dispatch: the lookup admitted to replica
// idx. The zero pending is no attempt.
type pending struct {
	t   serve.Ticket
	idx int
}

// dispatchHedged runs one dispatch of the failover ladder against replica
// primary, speculatively adding a second replica if the first has not
// answered within the hedge delay. It stores the winning answer and the
// replica that produced it in out, and reports whether a hedge (not the
// primary) won.
//
// The dispatch is one select on the caller's goroutine, over the attempts'
// response slots and the client's ctx. While a hedge delay is in force it
// also waits on a kept timer, and every attempt runs on a detached context
// (obs.DetachContext) and begins its own trace: each instance's pipeline
// owns the trace it carries, so two attempts must not share the fleet's.
func (f *Fleet) dispatchHedged(ctx context.Context, out *Result, kind serve.Kind, args serve.Args, primary int, inst *serve.Instance, tried *uint64) (hedgeWon bool, err error) {
	var delay time.Duration
	if f.cfg.Hedge.Enabled {
		delay = f.hedgeDelay()
	}
	armed, actx := delay > 0, ctx
	if armed {
		actx = obs.DetachContext(ctx)
	}
	var at [2]pending // the primary and, once it is out, the hedge
	at[0].idx = primary
	if at[0].t, err = inst.Submit(actx, kind, args); err != nil {
		f.wakeOnFault(err)
		return false, err
	}
	var fire <-chan time.Time
	if armed {
		timer, ok := f.timers.Get()
		if ok {
			timer.Reset(delay)
		} else {
			timer = time.NewTimer(delay)
		}
		fire = timer.C
		defer func() {
			// Kept stopped, and drained if it fired unseen, so that the
			// next Reset sees no stale tick.
			if !timer.Stop() && fire != nil {
				<-timer.C
			}
			f.timers.Put(timer)
		}()
	}
	for {
		i := 0
		var r serve.Response
		select {
		case r = <-at[0].t.Ready():
		case r = <-at[1].t.Ready():
			i = 1
		case <-fire:
			fire = nil // one hedge per dispatch
			// It goes to the policy's next-preferred replica that is not
			// ejected and can still make the deadline.
			idx := f.pickStrict(*tried)
			if idx < 0 {
				continue
			}
			hinst := f.instance(idx)
			if hinst == nil {
				continue
			}
			if dl, ok := ctx.Deadline(); ok && late(hinst, kind, dl) {
				continue
			}
			*tried |= 1 << uint(idx)
			f.hedges.Add(1)
			at[1].idx = idx
			at[1].t, err = hinst.Submit(actx, kind, args)
			f.wakeOnFault(err)
			continue
		case <-ctx.Done():
			// The client is gone. A hedge-armed attempt ran at least this
			// long: the censored sample the ejection score needs.
			f.drop(&at[0], armed)
			f.drop(&at[1], armed)
			return false, ctx.Err()
		}
		a := &at[i]
		var res serve.Result
		if res, err = a.t.Collect(r); err != nil {
			f.wakeOnFault(err)
			*a = pending{}
			if at[1-i].t.Ready() != nil {
				continue // the other attempt may still answer
			}
			return false, err
		}
		// The first answer wins, and the other attempt is dropped.
		f.noteLatency(a.idx, a.t.Elapsed())
		f.drop(&at[1-i], true)
		if hedgeWon = i == 1; hedgeWon {
			f.hedgeWins.Add(1)
		}
		out.Result, out.Replica = res, a.idx
		return hedgeWon, nil
	}
}

// drop abandons attempt a if it is live. With censor set, the time a ran
// feeds the replica's score: a dropped attempt ran *at least* that long —
// the censored sample that lets a hedged-around replica still accumulate
// the slow evidence that ejects it.
func (f *Fleet) drop(a *pending, censor bool) {
	if a.t.Ready() == nil {
		return
	}
	a.t.Abandon()
	if censor {
		f.noteLatency(a.idx, a.t.Elapsed())
	}
}
