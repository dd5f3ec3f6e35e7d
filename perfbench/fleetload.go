package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	// queryDeadline is each lookup's context deadline, the serving CLI's
	// default: it arms the deadline-budget rungs without ever firing on a
	// healthy run.
	queryDeadline = 5 * time.Second
	// maxInflight caps outstanding open-loop lookups; a generator that hits
	// it has fallen behind its schedule.
	maxInflight = 4096
	// maxLagP99 is the generator lag past which an open-loop run is
	// invalid: its arrivals no longer follow the schedule. Stalls of a few
	// tens of milliseconds from a shared machine are charged to the queries
	// they delay instead.
	maxLagP99 = 100 * time.Millisecond
)

// fleetSpec is one workload's serving stack.
type fleetSpec struct {
	side      int
	replicas  int
	linger    time.Duration
	kinds     []serve.Kind
	resilient bool // hedging and latency ejection on, with their defaults
	slow      int  // replica given a faults.Latency injector, or -1
	http      bool // served through Fleet.Handler on loopback
}

// rig is one built serving stack.
type rig struct {
	f   *fleet.Fleet
	lat *faults.Latency // the slow replica's injector (factor 1 until onset)
	srv *httpServer
}

// buildRig builds the stack, with the Observer o when set; an HTTP stack
// records a span per request in sp when set.
func buildRig(spec fleetSpec, o *obs.Observer, sp *spanLog) (*rig, error) {
	r := &rig{}
	cfg := fleet.Config{
		Replicas: spec.replicas,
		Instance: serve.Config{Side: spec.side, Kinds: spec.kinds, Linger: spec.linger, Parallelism: nproc()},
		Obs:      o,
		Hedge:    fleet.HedgeConfig{Enabled: spec.resilient},
		Eject:    fleet.EjectConfig{Enabled: spec.resilient},
	}
	if spec.slow >= 0 {
		r.lat = faults.NewLatency(faults.LatencyConfig{Factor: 1}, nil)
		cfg.MakeInjector = func(i int) mesh.Injector {
			if i == spec.slow {
				return r.lat
			}
			return nil
		}
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("building fleet: %w", err)
	}
	r.f = f
	if spec.http {
		h := f.Handler()
		if sp != nil {
			h = spannedHandler(h, sp)
		}
		if r.srv, err = startHTTP(h); err != nil {
			f.Shutdown(context.Background())
			return nil, err
		}
	}
	return r, nil
}

func (r *rig) close() error {
	var err error
	if r.srv != nil {
		err = r.srv.close()
	}
	if serr := r.f.Shutdown(context.Background()); err == nil {
		err = serr
	}
	return err
}

// first answers one membership query through the rig's outermost surface.
func (r *rig) first() error {
	var err error
	if r.srv != nil {
		c := newHTTPClient(r.srv.base)
		_, err = c.search(context.Background(), serve.KindMembership, serve.Args{1}, 0)
		c.close()
	} else {
		_, err = r.f.LookupKind(context.Background(), serve.KindMembership, serve.Args{1})
	}
	if err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	return nil
}

// setupRig builds the stack reps times, timing each from the start of
// fleet.New to the first answered query, and keeps the last.
func setupRig(spec fleetSpec, reps int) (*rig, []time.Duration, error) {
	var r *rig
	times := make([]time.Duration, reps)
	for i := range times {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		nr, err := buildRig(spec, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		if err := nr.first(); err != nil {
			nr.close()
			return nil, nil, err
		}
		times[i] = time.Since(t0)
		r = nr
	}
	return r, times, nil
}

// lookupFn answers one query through some layer.
type lookupFn func(ctx context.Context, q query, spanID int64) (serve.Result, error)

func (r *rig) lookup(or *oracle) lookupFn {
	return func(ctx context.Context, q query, _ int64) (serve.Result, error) {
		res, err := r.f.LookupKind(ctx, q.kind, or.argsOf(q))
		return res.Result, err
	}
}

// loadResult is what one driven phase measured.
type loadResult struct {
	*timed
	lags        []time.Duration
	inflightMax int64
	capHit      bool
}

func (lr *loadResult) invalid() string {
	sortDurations(lr.lags)
	switch p99 := quantile(lr.lags, 0.99); {
	case lr.capHit:
		return fmt.Sprintf("generator hit the %d in-flight cap", maxInflight)
	case p99 > maxLagP99:
		return fmt.Sprintf("generator lag p99 %v exceeds %v", p99, maxLagP99)
	}
	return ""
}

// openLoop sends each arrival of the plan at its due time, whatever is in
// flight, and times each query from that due time — so a stall is charged
// to every query it delays. tick, when set, runs before each send with the
// time elapsed since the phase start.
func openLoop(plan []arrival, dur time.Duration, or *oracle, call lookupFn, sp *spanLog, tick func(time.Duration)) *loadResult {
	lr := &loadResult{timed: newTimed(dur), lags: make([]time.Duration, len(plan))}
	samples := make([]sample, len(plan))
	sem := make(chan struct{}, maxInflight)
	var inflight, peak atomic.Int64
	var wg sync.WaitGroup
	start := lr.start
	for i := range plan {
		a := plan[i]
		if d := a.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		lr.poll()
		if tick != nil {
			tick(time.Since(start))
		}
		select {
		case sem <- struct{}{}:
		default:
			lr.capHit = true
			sem <- struct{}{}
		}
		lr.lags[i] = time.Since(start) - a.due
		if n := inflight.Add(1); n > peak.Load() {
			peak.Store(n) // only this goroutine raises the peak
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), queryDeadline)
			id := sp.id()
			t0 := time.Now()
			res, err := call(ctx, a.q, id)
			t1 := time.Now()
			cancel()
			if sp != nil {
				sp.record(sp.id(), id, "fleet.LookupKind", t0, t1)
				sp.record(id, 0, "driver.arrival", start.Add(a.due), t1)
			}
			samples[i] = sample{at: a.due, lat: t1.Sub(start) - a.due, oc: or.judge(a.q, res, err), w: 1}
			inflight.Add(-1)
			<-sem
		}()
	}
	wg.Wait()
	lr.finish()
	for _, s := range samples {
		lr.add(s)
	}
	lr.inflightMax = peak.Load()
	return lr
}

// closedLoop runs clients callers for dur, each sending its next query only
// once the previous one is answered, and times each query from its send.
// Lag is the caller's own time between an answer and its next send.
func closedLoop(clients int, seed int64, dur time.Duration, domain int, or *oracle, newCall func() (lookupFn, func()), sp *spanLog) *loadResult {
	lr := &loadResult{timed: newTimed(dur), inflightMax: int64(clients)}
	samples := make([][]sample, clients)
	lags := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		call, done := newCall()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done()
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			var prev time.Time
			for time.Since(lr.start) < dur {
				if c == 0 {
					lr.poll() // window readings belong to one goroutine
				}
				q := uniformQuery(rng, domain, e25Mix)
				id := sp.id()
				t0 := time.Now()
				if !prev.IsZero() {
					lags[c] = append(lags[c], t0.Sub(prev))
				}
				ctx, cancel := context.WithTimeout(context.Background(), queryDeadline)
				res, err := call(ctx, q, id)
				cancel()
				prev = time.Now()
				sp.record(id, 0, "http.GET", t0, prev)
				samples[c] = append(samples[c], sample{at: t0.Sub(lr.start), lat: prev.Sub(t0), oc: or.judge(q, res, err), w: 1})
			}
		}()
	}
	wg.Wait()
	lr.finish()
	for c := range samples {
		for _, s := range samples[c] {
			lr.add(s)
		}
		lr.lags = append(lr.lags, lags[c]...)
	}
	return lr
}

// ------------------------------------------------------------- workloads

var (
	mixedOpen = fleetSpec{side: 16, replicas: 1, linger: 2 * time.Millisecond, kinds: mixKinds(e25Mix), slow: -1}
	grayFleet = fleetSpec{side: 8, replicas: 3, linger: 2 * time.Millisecond, kinds: mixKinds(e25Mix), resilient: true, slow: 1}
	httpFleet = fleetSpec{side: 8, replicas: 1, kinds: mixKinds(e25Mix), slow: -1, http: true}
)

const (
	mixedOpenRate = 12000
	grayRate      = 4000
	// grayOnset is when, into each timed phase, replica 1 turns 10× slow
	// (halfway through phases shorter than twice that).
	grayOnset  = 2 * time.Second
	grayFactor = 10
)

// openPhase drives plan, which lasts dur, on r. With slowAt > 0 the rig's
// slow replica turns grayFactor× slow that far into the phase, and eject,
// when set, receives how long the fleet then took to eject it.
func openPhase(r *rig, plan []arrival, dur time.Duration, or *oracle, sp *spanLog, slowAt time.Duration, eject *time.Duration) (*loadResult, fleet.Stats, fleet.Stats) {
	var tick func(time.Duration)
	if r.lat != nil {
		r.lat.SetFactor(1)
	}
	if slowAt > 0 {
		var onset time.Time
		var lastPoll time.Duration
		tick = func(el time.Duration) {
			switch {
			case onset.IsZero() && el >= slowAt:
				r.lat.SetFactor(grayFactor)
				onset = time.Now()
			case eject != nil && !onset.IsZero() && *eject == 0 && el-lastPoll >= 2*time.Millisecond:
				lastPoll = el
				if r.f.Stats().Ejections > 0 {
					*eject = time.Since(onset)
				}
			}
		}
	}
	s0 := r.f.Stats()
	lr := openLoop(plan, dur, or, r.lookup(or), sp, tick)
	return lr, s0, r.f.Stats()
}

// phaseFn drives one timed phase of dur on r, after warming it up, and
// returns what it measured with the fleet's Stats at the phase's edges.
// With eject set, a gray phase reports how long ejection took.
type phaseFn func(r *rig, or *oracle, dur time.Duration, sp *spanLog, eject *time.Duration) (*loadResult, fleet.Stats, fleet.Stats)

// runFleet runs a workload served by a fleet. Untraced, it measures one
// phase. Traced, it measures an untraced half, then a traced half on a
// fresh stack with an Observer and spans, then the cost ledger.
func runFleet(rc runConfig, spec fleetSpec, mix []kindWeight, drive phaseFn) (*report, error) {
	r, setups, err := setupRig(spec, setupReps)
	if err != nil {
		return nil, err
	}
	or := newOracle(r.f.Structures(), needleDomain(spec.side))
	rep := &report{}
	rep.add(endToEnd, "setup_s", "s", median(setups).Seconds(), int64(len(setups)))
	if !rc.trace {
		lr, s0, s1 := drive(r, or, rc.dur, nil, nil)
		if err := r.close(); err != nil {
			return nil, err
		}
		rep.loadEndToEnd(lr, s0, s1)
		return rep, nil
	}

	plain, _, _ := drive(r, or, rc.dur/2, nil, nil)
	if err := r.close(); err != nil {
		return nil, err
	}
	rep.t.merge(&plain.total)
	o := obs.New(obs.Config{Classes: serve.KindNames()})
	sp := newSpanLog()
	tr, err := buildRig(spec, o, sp)
	if err != nil {
		return nil, err
	}
	var eject time.Duration
	o0 := o.Stages()
	traced, s0, s1 := drive(tr, or, rc.dur/2, sp, &eject)
	o1 := o.Stages()
	if err := tr.close(); err != nil {
		return nil, err
	}
	rep.loadEndToEnd(traced, s0, s1)
	rep.overhead(plain.timed, traced.timed)
	rep.driver(plain.lags, plain.inflightMax)
	rep.fleetDelta(s0, s1)
	rep.layers = append(rep.layers, stageMetrics(o0, o1)...)
	if spec.slow >= 0 {
		rep.notef("fleet.eject_ms %.3f (slowdown onset to ejection; 0 = not ejected)", ms(eject))
	}
	lg, err := ledger(rc.seed, spec.side, mix, false)
	if err != nil {
		return nil, err
	}
	rep.addLedger(lg)
	rep.spans = sp
	return rep, nil
}

// runOpen runs an open-loop workload at the given rate.
func runOpen(rc runConfig, spec fleetSpec, rate float64) (*report, error) {
	domain := needleDomain(spec.side)
	warm := poissonPlan(rc.seed^0x3a3a, rate, rc.warmup(), domain, e25Mix)
	return runFleet(rc, spec, e25Mix, func(r *rig, or *oracle, dur time.Duration, sp *spanLog, eject *time.Duration) (*loadResult, fleet.Stats, fleet.Stats) {
		openPhase(r, warm, rc.warmup(), or, nil, 0, nil)
		var slowAt time.Duration
		if spec.slow >= 0 {
			slowAt = min(grayOnset, dur/2)
		}
		return openPhase(r, poissonPlan(rc.seed, rate, dur, domain, e25Mix), dur, or, sp, slowAt, eject)
	})
}

// httpClients is the closed-loop client count. One client leaves the
// second core to the serving goroutines, the mesh simulation and the
// collector, so per-request cost is measured rather than contention for
// the machine.
const httpClients = 1

// runHTTPClosed runs closed-loop HTTP clients, each on one keep-alive
// connection.
func runHTTPClosed(rc runConfig) (*report, error) {
	domain := needleDomain(httpFleet.side)
	return runFleet(rc, httpFleet, e25Mix, func(r *rig, or *oracle, dur time.Duration, sp *spanLog, _ *time.Duration) (*loadResult, fleet.Stats, fleet.Stats) {
		newCall := func() (lookupFn, func()) {
			c := newHTTPClient(r.srv.base)
			return func(ctx context.Context, q query, id int64) (serve.Result, error) {
				return c.search(ctx, q.kind, or.argsOf(q), id)
			}, c.close
		}
		closedLoop(httpClients, rc.seed^0x3a3a, rc.warmup(), domain, or, newCall, nil)
		s0 := r.f.Stats()
		lr := closedLoop(httpClients, rc.seed, dur, domain, or, newCall, sp)
		return lr, s0, r.f.Stats()
	})
}

// loadEndToEnd reports a driven phase against a fleet.
func (rep *report) loadEndToEnd(lr *loadResult, s0, s1 fleet.Stats) {
	lr.endToEnd(rep)
	steps, n := stepsPerQ(s0, s1)
	rep.add(endToEnd, "steps_per_q", "steps", steps, n)
	rep.notef("fleet: %d dispatched, %d rounds, %d hedges (%d won), %d failovers, %d ejections, %d readmissions, %d oracle answers",
		s1.Dispatched-s0.Dispatched, s1.Agg.Rounds-s0.Agg.Rounds, s1.Hedges-s0.Hedges, s1.HedgeWins-s0.HedgeWins,
		s1.Failovers-s0.Failovers, s1.Ejections-s0.Ejections, s1.Readmissions-s0.Readmissions, s1.OracleServed-s0.OracleServed)
	if why := lr.invalid(); why != "" {
		rep.invalid = why
	}
}
