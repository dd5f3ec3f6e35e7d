package main

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

type metricClass int

const (
	endToEnd metricClass = iota
	perLayer
)

// metricVal is one named measurement and the number of samples behind it.
type metricVal struct {
	name  string
	unit  string
	value float64
	n     int64
}

// report is everything one run measured: the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run), the outcomes of every query
// it checked, and free-form notes for the human-readable output.
type report struct {
	e2e     []metricVal
	layers  []metricVal
	t       tally
	notes   []string
	digest  string
	invalid string // non-empty: the run is not valid and reports nothing
	spans   *spanLog
}

func (r *report) add(c metricClass, name, unit string, v float64, n int64) {
	m := metricVal{name: name, unit: unit, value: v, n: n}
	if c == endToEnd {
		r.e2e = append(r.e2e, m)
	} else {
		r.layers = append(r.layers, m)
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// overhead reports what tracing cost: the traced half of the run against
// the untraced half on the same workload.
func (r *report) overhead(plain, traced *timed) {
	p50 := func(p *timed) float64 { return float64(p.total.latQuantile(0.5)) }
	cpu := func(p *timed) float64 { return cpuPerQ(p.cost(), p.total.answered()) }
	r.add(perLayer, "obs.overhead.p50_frac", "fraction", ratio(p50(traced), p50(plain))-1, traced.total.answered())
	r.add(perLayer, "obs.overhead.cpu_frac", "fraction", ratio(cpu(traced), cpu(plain))-1, traced.total.answered())
}

func cpuPerQ(c cost, answered int64) float64 {
	return ratio(us(c.cpu), float64(answered))
}

// driver reports the benchmark driver's own health: how late it sent
// (open loop: dispatch after due time; closed loop: time between one
// answer and the next send) and the most queries it had in flight.
func (r *report) driver(lags []time.Duration, inflightMax int64) {
	sortDurations(lags)
	r.add(perLayer, "driver.lag_p99_ms", "ms", ms(quantile(lags, 0.99)), int64(len(lags)))
	r.add(perLayer, "driver.inflight_max", "count", float64(inflightMax), 1)
}

func (r *report) batchMean(v float64, rounds int64) {
	r.add(perLayer, "serve.batch_mean", "count", v, rounds)
}

// noFleet stands in for the serve and fleet counters on the rounds
// workload, which runs no serving pipeline and no fleet.
func (r *report) noFleet() {
	for _, m := range []struct{ name, unit string }{
		{"serve.retry_frac", "fraction"},
		{"serve.shed_frac", "fraction"},
		{"serve.reject_frac", "fraction"},
		{"fleet.hedge_per_kq", "count"},
		{"fleet.hedge_win_frac", "fraction"},
		{"fleet.failover_frac", "fraction"},
		{"fleet.ejections", "count"},
	} {
		r.add(perLayer, m.name, m.unit, 0, 0)
	}
}

// fleetDelta reports the serve and fleet counters that moved between two
// Stats snapshots of one phase.
func (r *report) fleetDelta(s0, s1 fleet.Stats) {
	d := func(a, b int64) float64 { return float64(b - a) }
	dispatched := d(s0.Dispatched, s1.Dispatched)
	rounds := d(s0.Agg.Rounds, s1.Agg.Rounds)
	served := d(s0.Agg.Served, s1.Agg.Served)
	hedges := d(s0.Hedges, s1.Hedges)
	r.batchMean(ratio(served, rounds), int64(rounds))
	r.add(perLayer, "serve.retry_frac", "fraction", ratio(d(s0.Agg.Retries, s1.Agg.Retries), rounds), int64(rounds))
	r.add(perLayer, "serve.shed_frac", "fraction",
		ratio(d(s0.BudgetShed, s1.BudgetShed)+d(s0.Agg.BudgetShed, s1.Agg.BudgetShed), dispatched), int64(dispatched))
	r.add(perLayer, "serve.reject_frac", "fraction", ratio(d(s0.Agg.Rejected, s1.Agg.Rejected), dispatched), int64(dispatched))
	r.add(perLayer, "fleet.hedge_per_kq", "count", 1000*ratio(hedges, dispatched), int64(dispatched))
	r.add(perLayer, "fleet.hedge_win_frac", "fraction", ratio(d(s0.HedgeWins, s1.HedgeWins), hedges), int64(hedges))
	r.add(perLayer, "fleet.failover_frac", "fraction", ratio(d(s0.Failovers, s1.Failovers), dispatched), int64(dispatched))
	r.add(perLayer, "fleet.ejections", "count", d(s0.Ejections, s1.Ejections), 1)
}

// stepsPerQ is simulated mesh steps per lookup a replica answered from a
// mesh round.
func stepsPerQ(s0, s1 fleet.Stats) (float64, int64) {
	served := s1.Agg.Served - s0.Agg.Served
	return ratio(float64(s1.Agg.SimSteps-s0.Agg.SimSteps), float64(served)), served
}

// stageNames are the serving stages reported as serve.stage_ms.<stage>. The
// retry, failover and oracle stages are left out: they stay empty unless
// rounds fail.
var stageNames = []obs.Stage{obs.StageAdmit, obs.StageQueue, obs.StageLinger, obs.StageMesh, obs.StageDeliver}

// stageMetrics is the mean wall time per stage between two Observer
// snapshots.
func stageMetrics(s0, s1 obs.StageSnapshot) []metricVal {
	var out []metricVal
	for _, st := range stageNames {
		n := s1.Count[st] - s0.Count[st]
		sum := s1.SumNS[st] - s0.SumNS[st]
		out = append(out, metricVal{name: "serve.stage_ms." + st.String(), unit: "ms", value: ratio(float64(sum), float64(n)) / 1e6, n: n})
	}
	return out
}
