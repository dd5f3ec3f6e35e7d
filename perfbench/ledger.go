package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/serve"
)

// meshClasses are the op classes reported as mesh.steps.<class>: those
// the five kinds' multisearch rounds charge. Broadcast, rotate, concentrate
// and RAW charge nothing on them.
var meshClasses = []mesh.OpClass{mesh.OpLocal, mesh.OpSort, mesh.OpScan, mesh.OpReduce, mesh.OpRoute, mesh.OpRAR}

const (
	// sweepRounds is how many rounds each (kind, batch) point of the core
	// sweep times; the point reports their median.
	sweepRounds = 15
	// chainQueries is how many queries the layer chain times per layer,
	// and chainAllocQueries how many it counts allocations over.
	chainQueries      = 300
	chainAllocQueries = 100
)

// ledgerResult is the cost ledger of one mesh side: the paper's round per
// kind and batch size, and the fixed cost each serving layer adds to one
// lookup, measured by subtraction on the same queries.
type ledgerResult struct {
	layers []metricVal
	notes  []string
	t      tally
}

func (lg *ledgerResult) notef(format string, args ...any) {
	lg.notes = append(lg.notes, fmt.Sprintf(format, args...))
}

func (lg *ledgerResult) add(name, unit string, v float64, n int64) {
	lg.layers = append(lg.layers, metricVal{name: name, unit: unit, value: v, n: n})
}

func (rep *report) addLedger(lg *ledgerResult) {
	rep.layers = append(rep.layers, lg.layers...)
	rep.notes = append(rep.notes, lg.notes...)
	rep.t.merge(&lg.t)
}

// ledger measures, at the given side:
//   - one pass of the rounds plan (full batches, every kind): per-class
//     steps per query, wall ns per simulated step, round time and
//     allocations per kind, MakeQueries and Extract time;
//   - each kind at batch 1 and n/4;
//   - the layer chain HTTP → Fleet.LookupKind → Instance.LookupKind → a
//     batch-1 round on the same queries, with linger 0.
//
// With stages set it also drives an instance with an Observer and reports
// its per-stage wall time (for the rounds workload, whose own run has no
// serving stages).
func ledger(seed int64, side int, mix []kindWeight, stages bool) (*ledgerResult, error) {
	lg := &ledgerResult{}
	b, err := buildRounds(side)
	if err != nil {
		return nil, err
	}
	or := newOracle(b.ss, needleDomain(side))
	plan := roundsPlan(seed, b, or)
	if err := lg.corePass(b, plan, or); err != nil {
		return nil, err
	}
	if err := lg.coreSweep(b, plan); err != nil {
		return nil, err
	}
	if err := lg.chain(b, or, seed, mix, stages); err != nil {
		return nil, err
	}
	return lg, nil
}

// corePass runs one pass of the plan, one round at a time, reading the
// allocator around each round.
func (lg *ledgerResult) corePass(b *roundsBench, plan []planRound, or *oracle) error {
	out := make([]serve.Answer, b.m.N())
	var prof mesh.Profile
	var steps, served int64
	var run time.Duration
	var makes, extracts []time.Duration
	bn := map[serve.Kind][]time.Duration{}
	allocs := map[serve.Kind]uint64{}
	var ms0, ms1 runtime.MemStats
	for _, pr := range plan {
		runtime.ReadMemStats(&ms0)
		rc, err := b.round(pr.kind, pr.args, out[:len(pr.args)], nil, 0)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return fmt.Errorf("%s round: %w", pr.kind, err)
		}
		for i, q := range pr.qs {
			a := out[i]
			oc := okMesh
			if !or.check(q, a.Found, a.Value, a.Aux, a.Steps) {
				oc = wrongAns
			}
			lg.t.add(sample{oc: oc, w: 1})
		}
		allocs[pr.kind] += ms1.Mallocs - ms0.Mallocs
		bn[pr.kind] = append(bn[pr.kind], rc.run)
		makes = append(makes, rc.make)
		extracts = append(extracts, rc.extract)
		prof.Add(rc.prof)
		steps += rc.steps
		served += int64(len(pr.qs))
		run += rc.run
	}
	for _, c := range meshClasses {
		lg.add("mesh.steps."+c.String(), "steps", ratio(float64(prof.Ops[c].Steps), float64(served)), served)
	}
	lg.add("mesh.ns_per_step", "ns", ratio(float64(run), float64(steps)), steps)
	for _, k := range b.ss.Kinds() {
		n := int64(len(bn[k]))
		lg.add("core.round_us."+k.String()+".bn", "us", us(median(bn[k])), n)
		lg.add("core.allocs_per_round."+k.String(), "count", ratio(float64(allocs[k]), float64(n)), n)
	}
	lg.add("kind.make_us", "us", us(median(makes)), int64(len(makes)))
	lg.add("kind.extract_us", "us", us(median(extracts)), int64(len(extracts)))
	return nil
}

// coreSweep times each kind at batch 1 and n/4 mesh queries, reusing the
// first plan round of the kind for arguments.
func (lg *ledgerResult) coreSweep(b *roundsBench, plan []planRound) error {
	out := make([]serve.Answer, b.m.N())
	for _, pr := range plan[:len(b.ss.Kinds())] {
		per := b.ss.Get(pr.kind).PerRequest()
		for _, pt := range []struct {
			name  string
			batch int
		}{{"b1", 1}, {"bq", max(1, b.m.N()/4/per)}} {
			times := make([]time.Duration, sweepRounds)
			for i := -1; i < sweepRounds; i++ { // round -1 warms the point
				rc, err := b.round(pr.kind, pr.args[:pt.batch], out, nil, 0)
				if err != nil {
					return fmt.Errorf("%s round: %w", pr.kind, err)
				}
				if i >= 0 {
					times[i] = rc.run
				}
			}
			lg.add("core.round_us."+pr.kind.String()+"."+pt.name, "us", us(median(times)), sweepRounds)
		}
	}
	return nil
}

// chainLayer is one rung of the layer chain: a way to answer one query.
type chainLayer struct {
	name string
	call func(q query) (serve.Result, error)
}

// chain times the same queries through each serving layer, interleaved so
// that drift in the machine hits every layer alike, and derives each
// layer's own cost by subtraction.
func (lg *ledgerResult) chain(b *roundsBench, or *oracle, seed int64, mix []kindWeight, stages bool) error {
	kinds := mixKinds(mix)
	icfg := serve.Config{Side: b.side, Kinds: kinds, Parallelism: nproc(), DisableOracle: true}
	inst, err := serve.New(icfg)
	if err != nil {
		return fmt.Errorf("building instance: %w", err)
	}
	defer inst.Shutdown(context.Background())
	f, err := fleet.New(fleet.Config{Replicas: 1, Instance: icfg})
	if err != nil {
		return fmt.Errorf("building fleet: %w", err)
	}
	defer f.Shutdown(context.Background())
	srv, err := startHTTP(f.Handler())
	if err != nil {
		return err
	}
	defer srv.close()
	client := newHTTPClient(srv.base)
	defer client.close()

	ctx := context.Background()
	var out [1]serve.Answer
	layers := []chainLayer{
		{"core", func(q query) (serve.Result, error) {
			_, err := b.round(q.kind, []serve.Args{or.argsOf(q)}, out[:], nil, 0)
			return serve.Result{Found: out[0].Found, Value: out[0].Value, Aux: out[0].Aux, Steps: out[0].Steps}, err
		}},
		{"instance", func(q query) (serve.Result, error) { return inst.LookupKind(ctx, q.kind, or.argsOf(q)) }},
		{"fleet", func(q query) (serve.Result, error) {
			r, err := f.LookupKind(ctx, q.kind, or.argsOf(q))
			return r.Result, err
		}},
		{"http", func(q query) (serve.Result, error) { return client.search(ctx, q.kind, or.argsOf(q), 0) }},
	}
	var o *obs.Observer
	if stages {
		o = obs.New(obs.Config{Classes: serve.KindNames()})
		ocfg := icfg
		ocfg.Obs = o
		oinst, err := serve.New(ocfg)
		if err != nil {
			return fmt.Errorf("building observed instance: %w", err)
		}
		defer oinst.Shutdown(context.Background())
		layers = append(layers, chainLayer{"instance+obs", func(q query) (serve.Result, error) {
			return oinst.LookupKind(ctx, q.kind, or.argsOf(q))
		}})
	}

	rng := rand.New(rand.NewSource(seed ^ 0xc4a1))
	qs := make([]query, chainQueries)
	for i := range qs {
		qs[i] = uniformQuery(rng, needleDomain(b.side), mix)
	}
	times := make([][]time.Duration, len(layers))
	for _, l := range layers { // warm every layer, connection included
		if _, err := l.call(qs[0]); err != nil {
			return fmt.Errorf("%s layer: %w", l.name, err)
		}
	}
	var o0 obs.StageSnapshot
	if o != nil {
		o0 = o.Stages()
	}
	for _, q := range qs {
		for i, l := range layers {
			t0 := time.Now()
			res, err := l.call(q)
			times[i] = append(times[i], time.Since(t0))
			lg.t.add(sample{oc: or.judge(q, res, err), w: 1})
		}
	}
	allocs := make([]float64, len(layers))
	var ms0, ms1 runtime.MemStats
	for i, l := range layers {
		runtime.ReadMemStats(&ms0)
		for _, q := range qs[:chainAllocQueries] {
			res, err := l.call(q)
			lg.t.add(sample{oc: or.judge(q, res, err), w: 1})
		}
		runtime.ReadMemStats(&ms1)
		allocs[i] = float64(ms1.Mallocs-ms0.Mallocs) / chainAllocQueries
	}
	// A layer's cost is the median over queries of its time minus the time
	// of the layer below on the same query: pairing cancels the spread of
	// round cost across kinds and arguments.
	above := func(i int) float64 {
		d := make([]time.Duration, len(qs))
		for j := range d {
			d[j] = times[i][j] - times[i-1][j]
		}
		return us(median(d))
	}
	n := int64(chainQueries)
	lg.add("serve.pipeline_us", "us", above(1), n)
	lg.add("fleet.dispatch_us", "us", above(2), n)
	lg.add("http.wire_us", "us", above(3), n)
	lg.add("http.allocs_per_req", "count", allocs[3]-allocs[2], chainAllocQueries)
	for i, l := range layers {
		lg.notef("chain %-12s median %8.1f us  %6.1f allocs per query", l.name, us(median(times[i])), allocs[i])
	}
	if o != nil {
		lg.layers = append(lg.layers, stageMetrics(o0, o.Stages())...)
	}
	return nil
}
