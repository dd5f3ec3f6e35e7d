package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/serve"
)

// planRounds is one pass of the rounds plan: ten full-batch rounds of each
// of the five kinds. The answer digest, steps_per_q and mesh.steps.* are
// taken over the first pass, so they are exact for a seed however many
// rounds the timed phase completes.
const planRounds = 50

// roundsBench is the paper's algorithm with no serving stack around it: one
// mesh holding the five kinds' structures, each with its own query
// registers, driven one round at a time by one caller.
type roundsBench struct {
	side int
	m    *mesh.Mesh
	ss   *serve.StructureSet
	ins  [serve.NumKinds]*core.Instance
}

func buildRounds(side int) (*roundsBench, error) {
	ss, err := serve.BuildStructures(side, defaultKeys(side), 2, 3, allKinds())
	if err != nil {
		return nil, fmt.Errorf("building structures: %w", err)
	}
	b := &roundsBench{side: side, ss: ss, m: mesh.New(side, mesh.WithParallelism(nproc()))}
	for _, k := range ss.Kinds() {
		st := ss.Get(k)
		b.ins[k] = core.NewInstance(b.m, st.Graph(), nil, st.Successor())
	}
	return b, nil
}

// roundCost is one round's timing split by layer, and its simulated steps.
type roundCost struct {
	make, run, extract time.Duration
	steps              int64
	prof               mesh.Profile
}

// round answers one batch of kind k along a serving round's path:
// Structure.MakeQueries → core.Run{ResetQueries; Structure.Search} →
// Extract. With a span log, each call gets a span under parent.
func (b *roundsBench) round(k serve.Kind, args []serve.Args, out []serve.Answer, sp *spanLog, parent int64) (roundCost, error) {
	st := b.ss.Get(k)
	in := b.ins[k]
	t0 := time.Now()
	qs := st.MakeQueries(args)
	t1 := time.Now()
	b.m.ResetSteps()
	err := core.Run("perfbench round", func() error {
		v := b.m.Root()
		in.ResetQueries(v, qs)
		st.Search(v, in)
		return nil
	})
	if err != nil {
		return roundCost{}, err
	}
	res := in.ResultQueries()
	t2 := time.Now()
	for i := range args {
		out[i] = st.Extract(res, i)
	}
	t3 := time.Now()
	sp.record(sp.id(), parent, "kind.MakeQueries", t0, t1)
	sp.record(sp.id(), parent, "core.Run", t1, t2)
	sp.record(sp.id(), parent, "kind.Extract", t2, t3)
	return roundCost{make: t1.Sub(t0), run: t2.Sub(t1), extract: t3.Sub(t2), steps: b.m.Steps(), prof: b.m.Profile()}, nil
}

// planRound is one round of the rounds plan.
type planRound struct {
	kind serve.Kind
	qs   []query
	args []serve.Args
}

// roundsPlan draws one pass: kinds in registry order, each round a full
// batch (n mesh queries) of uniform draws over the needle domain.
func roundsPlan(seed int64, b *roundsBench, or *oracle) []planRound {
	rng := rand.New(rand.NewSource(seed))
	domain := needleDomain(b.side)
	kinds := b.ss.Kinds()
	plan := make([]planRound, planRounds)
	for r := range plan {
		k := kinds[r%len(kinds)]
		pr := planRound{kind: k, qs: make([]query, b.m.N()/b.ss.Get(k).PerRequest())}
		pr.args = make([]serve.Args, len(pr.qs))
		for i := range pr.qs {
			pr.qs[i] = query{kind: k, draw: int32(rng.Intn(domain))}
			pr.args[i] = or.argsOf(pr.qs[i])
		}
		plan[r] = pr
	}
	return plan
}

// roundsPhase is what one timed stretch of back-to-back rounds measured.
type roundsPhase struct {
	*timed
	rounds int
	gaps   []time.Duration // driver time between one round's end and the next's start
	batch  int             // largest batch
	served int64           // requests in the first pass
	steps  int64           // simulated steps of the first pass
	digest uint64          // FNV-64a over the first pass's queries and answers
}

// phase runs the plan round after round for dur, and at least one full
// pass, checking every answer against the oracle. A query's latency is the
// wall time of the round that answered it.
func (b *roundsBench) phase(plan []planRound, or *oracle, dur time.Duration, sp *spanLog) (*roundsPhase, error) {
	ph := &roundsPhase{timed: newTimed(dur)}
	out := make([]serve.Answer, b.m.N())
	h := fnv.New64a()
	var buf []byte
	var prevEnd time.Time
	for r := 0; r < len(plan) || time.Since(ph.start) < dur; r++ {
		ph.poll()
		pr := &plan[r%len(plan)]
		id := sp.id()
		t0 := time.Now()
		if r > 0 {
			ph.gaps = append(ph.gaps, t0.Sub(prevEnd))
		}
		rc, err := b.round(pr.kind, pr.args, out[:len(pr.args)], sp, id)
		if err != nil {
			return nil, fmt.Errorf("%s round: %w", pr.kind, err)
		}
		wall := time.Since(t0)
		ok := int32(0)
		for i, q := range pr.qs {
			a := out[i]
			if or.check(q, a.Found, a.Value, a.Aux, a.Steps) {
				ok++
			} else {
				ph.add(sample{at: t0.Sub(ph.start), lat: wall, oc: wrongAns, w: 1})
			}
			if r < len(plan) {
				buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(q.kind))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(q.draw))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(a.Value))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(a.Aux))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(a.Steps))
				if a.Found {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
				h.Write(buf)
			}
		}
		if ok > 0 {
			ph.add(sample{at: t0.Sub(ph.start), lat: wall, oc: okMesh, w: ok})
		}
		if r < len(plan) {
			ph.served += int64(len(pr.qs))
			ph.steps += rc.steps
		}
		ph.batch = max(ph.batch, len(pr.qs))
		ph.rounds++
		prevEnd = time.Now()
		sp.record(id, 0, "driver.round", t0, prevEnd)
	}
	ph.finish()
	ph.digest = h.Sum64()
	return ph, nil
}

// setupRounds builds the rounds bench reps times, timing each build up to
// its first answered query, and keeps the last.
func setupRounds(side, reps int) (*roundsBench, []time.Duration, error) {
	var b *roundsBench
	times := make([]time.Duration, reps)
	for i := range times {
		runtime.GC()
		t0 := time.Now()
		nb, err := buildRounds(side)
		if err != nil {
			return nil, nil, err
		}
		var ans [1]serve.Answer
		if _, err := nb.round(serve.KindMembership, []serve.Args{{1}}, ans[:], nil, 0); err != nil {
			return nil, nil, fmt.Errorf("first round: %w", err)
		}
		times[i] = time.Since(t0)
		b = nb
	}
	return b, times, nil
}

const roundsSide = 16

func runRounds(rc runConfig) (*report, error) {
	b, setups, err := setupRounds(roundsSide, setupReps)
	if err != nil {
		return nil, err
	}
	or := newOracle(b.ss, needleDomain(b.side))
	plan := roundsPlan(rc.seed, b, or)
	if _, err := b.phase(plan, or, rc.warmup(), nil); err != nil {
		return nil, err
	}
	rep := &report{}
	rep.add(endToEnd, "setup_s", "s", median(setups).Seconds(), int64(len(setups)))
	if !rc.trace {
		ph, err := b.phase(plan, or, rc.dur, nil)
		if err != nil {
			return nil, err
		}
		rep.roundsEndToEnd(ph)
		return rep, nil
	}

	plain, err := b.phase(plan, or, rc.dur/2, nil)
	if err != nil {
		return nil, err
	}
	sp := newSpanLog()
	traced, err := b.phase(plan, or, rc.dur/2, sp)
	if err != nil {
		return nil, err
	}
	rep.t.merge(&plain.total)
	rep.roundsEndToEnd(traced)
	rep.overhead(plain.timed, traced.timed)
	rep.driver(plain.gaps, int64(plain.batch))
	rep.batchMean(float64(traced.served)/float64(len(plan)), int64(len(plan)))
	rep.noFleet()
	lg, err := ledger(rc.seed, roundsSide, mixOf(b.ss.Kinds()), true)
	if err != nil {
		return nil, err
	}
	rep.addLedger(lg)
	rep.spans = sp
	return rep, nil
}

// roundsEndToEnd reports a rounds phase.
func (rep *report) roundsEndToEnd(ph *roundsPhase) {
	ph.endToEnd(rep)
	rep.add(endToEnd, "steps_per_q", "steps", ratio(float64(ph.steps), float64(ph.served)), ph.served)
	rep.notef("answer digest %016x over the first %d rounds (%d queries)", ph.digest, planRounds, ph.served)
	rep.notef("%d rounds, %.1f queries per round", ph.rounds, ratio(float64(ph.total.attempted()), float64(ph.rounds)))
	rep.digest = fmt.Sprintf("%016x", ph.digest)
}

// mixOf weighs kinds equally (the rounds workload cycles through them).
func mixOf(kinds []serve.Kind) []kindWeight {
	out := make([]kindWeight, len(kinds))
	for i, k := range kinds {
		out[i] = kindWeight{k, 1 / float64(len(kinds))}
	}
	return out
}
