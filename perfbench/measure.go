package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// usage is one process-wide resource reading: wall clock, user+sys CPU time
// (getrusage) and the allocator's cumulative counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// cost is the difference between two usage readings.
type cost struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
}

func (u usage) since(prev usage) cost {
	return cost{
		wall:    u.wall.Sub(prev.wall),
		cpu:     u.cpu - prev.cpu,
		mallocs: u.mallocs - prev.mallocs,
		bytes:   u.bytes - prev.bytes,
	}
}

// quantile returns the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortDurations(xs []time.Duration) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// median sorts xs in place and returns its median.
func median(xs []time.Duration) time.Duration {
	sortDurations(xs)
	return quantile(xs, 0.5)
}

// medianF sorts xs in place and returns its median.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[(len(xs)-1)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a counter that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// ------------------------------------------------------------- outcomes

// outcome classifies one attempted query.
type outcome uint8

const (
	okMesh     outcome = iota // answered by a mesh round, answer correct
	okDegraded                // answered by an oracle rung, answer correct
	wrongAns                  // answered, but not what serve.HostAnswer says
	rejected                  // refused with serve.ErrOverloaded (HTTP 429)
	shed                      // refused with serve.ErrBudgetExhausted (HTTP 504)
	errored                   // any other error
	numOutcomes
)

func classifyErr(err error) outcome {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		return rejected
	case errors.Is(err, serve.ErrBudgetExhausted):
		return shed
	default:
		return errored
	}
}

// sample is the fate of w identical queries (w > 1 only for a round's
// batch): when they were sent or due, from the phase start; their latency,
// meaningful only when answered; and their outcome.
type sample struct {
	at, lat time.Duration
	oc      outcome
	w       int32
}

// weighted is one latency standing for w queries.
type weighted struct {
	d time.Duration
	w int64
}

// tally aggregates samples: outcome counts and the latencies of correct
// answers.
type tally struct {
	n   [numOutcomes]int64
	lat []weighted
}

func (t *tally) add(s sample) {
	t.n[s.oc] += int64(s.w)
	if s.oc == okMesh || s.oc == okDegraded {
		t.lat = append(t.lat, weighted{s.lat, int64(s.w)})
	}
}

func (t *tally) merge(o *tally) {
	for i := range t.n {
		t.n[i] += o.n[i]
	}
	t.lat = append(t.lat, o.lat...)
}

func (t *tally) attempted() int64 {
	var s int64
	for _, v := range t.n {
		s += v
	}
	return s
}

func (t *tally) answered() int64 { return t.n[okMesh] + t.n[okDegraded] }

// failed counts every attempt that did not end in a correct answer: errors,
// overload refusals, budget sheds and wrong answers.
func (t *tally) failed() int64 { return t.attempted() - t.answered() }

// latQuantile is the nearest-rank q-quantile of the answered latencies.
func (t *tally) latQuantile(q float64) time.Duration {
	sort.Slice(t.lat, func(i, j int) bool { return t.lat[i].d < t.lat[j].d })
	var total int64
	for _, l := range t.lat {
		total += l.w
	}
	rank := int64(math.Ceil(q * float64(total)))
	var seen int64
	for _, l := range t.lat {
		if seen += l.w; seen >= rank {
			return l.d
		}
	}
	return 0
}

// ------------------------------------------------------------- windows

// window is the width the timed phase is cut into: every end-to-end
// metric is the median of its per-window values, so a burst of
// interference from outside the process moves one window, not the result.
const window = time.Second

// timed is one timed phase: its outcomes bucketed into windows by the time
// each query was sent or due, and a resource reading at every window
// boundary.
type timed struct {
	width time.Duration
	start time.Time
	marks []usage // marks[i] is read at start + i·width; the last at the end
	wins  []tally
	total tally
}

func newTimed(dur time.Duration) *timed {
	n := max(1, int(math.Round(float64(dur)/float64(window))))
	u := readUsage()
	return &timed{width: dur / time.Duration(n), start: u.wall, marks: []usage{u}, wins: make([]tally, n)}
}

// poll takes the resource readings of every window boundary that has
// passed. One goroutine calls it, as often as it likes.
func (p *timed) poll() {
	for len(p.marks) < len(p.wins) && time.Since(p.start) >= time.Duration(len(p.marks))*p.width {
		p.marks = append(p.marks, readUsage())
	}
}

// finish takes the closing reading once every query has been accounted.
func (p *timed) finish() {
	p.poll()
	p.marks = append(p.marks, readUsage())
}

func (p *timed) add(s sample) {
	i := min(max(int(s.at/p.width), 0), len(p.wins)-1)
	p.wins[i].add(s)
	p.total.add(s)
}

// cost is the resource use of the whole phase.
func (p *timed) cost() cost { return p.marks[len(p.marks)-1].since(p.marks[0]) }

// endToEnd reports the median over windows of each window's throughput,
// latency percentiles and per-query CPU and allocation.
func (p *timed) endToEnd(rep *report) {
	var qps, p50, p99, cpu, allocs, bytes []float64
	for i := range p.wins {
		if i+1 >= len(p.marks) {
			break
		}
		w, c := &p.wins[i], p.marks[i+1].since(p.marks[i])
		a := float64(w.answered())
		if a == 0 || c.wall <= 0 {
			continue
		}
		qps = append(qps, a/c.wall.Seconds())
		p50 = append(p50, ms(w.latQuantile(0.50)))
		p99 = append(p99, ms(w.latQuantile(0.99)))
		cpu = append(cpu, us(c.cpu)/a)
		allocs = append(allocs, float64(c.mallocs)/a)
		bytes = append(bytes, float64(c.bytes)/a)
	}
	rep.notef("end-to-end values are medians over %d windows of %v; per window:", len(qps), p.width)
	rep.notef("  qps %s", fmtList(qps, "%.0f"))
	rep.notef("  p50_ms %s", fmtList(p50, "%.3f"))
	rep.notef("  p99_ms %s", fmtList(p99, "%.3f"))
	rep.notef("  cpu_us_per_q %s", fmtList(cpu, "%.1f"))
	n := p.total.answered()
	rep.add(endToEnd, "qps", "1/s", medianF(qps), n)
	rep.add(endToEnd, "p50_ms", "ms", medianF(p50), n)
	rep.add(endToEnd, "p99_ms", "ms", medianF(p99), n)
	rep.add(endToEnd, "cpu_us_per_q", "us", medianF(cpu), n)
	rep.add(endToEnd, "allocs_per_q", "count", medianF(allocs), n)
	rep.add(endToEnd, "bytes_per_q", "B", medianF(bytes), n)
	t := &p.total
	attempted := t.attempted()
	rep.notef("fail_frac %.6f (%d of %d attempted: %d wrong, %d rejected, %d shed, %d errors)",
		ratio(float64(t.failed()), float64(attempted)), t.failed(), attempted,
		t.n[wrongAns], t.n[rejected], t.n[shed], t.n[errored])
	rep.notef("degraded_frac %.6f (%d of %d answered)",
		ratio(float64(t.n[okDegraded]), float64(n)), t.n[okDegraded], n)
	rep.t.merge(t)
}

// ------------------------------------------------------------- inputs

// kindWeight is one entry of a kind mix.
type kindWeight struct {
	kind serve.Kind
	w    float64
}

// e25Mix is the mixed-kind workload of experiment E25.
var e25Mix = []kindWeight{
	{serve.KindMembership, 0.6},
	{serve.KindPointLoc, 0.3},
	{serve.KindInterval, 0.1},
}

func mixKinds(mix []kindWeight) []serve.Kind {
	out := make([]serve.Kind, len(mix))
	for i, kw := range mix {
		out[i] = kw.kind
	}
	return out
}

func allKinds() []serve.Kind {
	out := make([]serve.Kind, serve.NumKinds)
	for k := range out {
		out[k] = serve.Kind(k)
	}
	return out
}

func drawKind(rng *rand.Rand, mix []kindWeight) serve.Kind {
	u := rng.Float64()
	for _, kw := range mix {
		if u < kw.w {
			return kw.kind
		}
		u -= kw.w
	}
	return mix[len(mix)-1].kind
}

// query is one generated query: its kind and the draw that ArgsFor maps to
// its arguments. The draw domain is [0, 2·keys), the serving stack's needle
// domain, so the oracle table below covers every query the benchmark sends.
type query struct {
	kind serve.Kind
	draw int32
}

// arrival is one open-loop query and the time, from the phase start, at
// which it is due.
type arrival struct {
	due time.Duration
	q   query
}

// poissonPlan generates the open-loop arrival plan: exponential gaps at the
// given rate, kinds from the mix, draws Zipf(s=1.2) over the needle domain.
func poissonPlan(seed int64, rate float64, dur time.Duration, domain int, mix []kindWeight) []arrival {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed^0x5eed)), 1.2, 1, uint64(domain-1))
	plan := make([]arrival, 0, int(rate*dur.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return plan
		}
		plan = append(plan, arrival{due: due, q: query{kind: drawKind(rng, mix), draw: int32(zipf.Uint64())}})
	}
}

// uniformQuery draws one closed-loop query: its kind from the mix, its draw
// uniform over the needle domain.
func uniformQuery(rng *rand.Rand, domain int, mix []kindWeight) query {
	return query{kind: drawKind(rng, mix), draw: int32(rng.Intn(domain))}
}

// defaultKeys is the serving stack's default dictionary: n/4 odd keys.
func defaultKeys(side int) []int64 {
	keys := make([]int64, side*side/4)
	for i := range keys {
		keys[i] = int64(2*i + 1)
	}
	return keys
}

// needleDomain is the draw domain for a mesh side: [0, 2·keys).
func needleDomain(side int) int { return 2 * len(defaultKeys(side)) }

// ------------------------------------------------------------- oracle

// oracle holds, for every kind and every draw of the needle domain, the
// query's arguments and its expected answer from serve.HostAnswer — the
// sequential host descent every served answer is checked against. The table
// is built before timing starts, so checking an answer costs one lookup.
type oracle struct {
	args [serve.NumKinds][]serve.Args
	want [serve.NumKinds][]serve.Answer
}

func newOracle(ss *serve.StructureSet, domain int) *oracle {
	o := &oracle{}
	for _, k := range ss.Kinds() {
		st := ss.Get(k)
		o.args[k] = make([]serve.Args, domain)
		o.want[k] = make([]serve.Answer, domain)
		for d := range o.args[k] {
			a := st.ArgsFor(int64(d))
			o.args[k][d] = a
			o.want[k][d] = serve.HostAnswer(st, a)
		}
	}
	return o
}

func (o *oracle) argsOf(q query) serve.Args { return o.args[q.kind][q.draw] }

// check reports whether an answer matches the host oracle on every field a
// served answer carries: hit bit, primary and secondary value, and the
// search-path length.
func (o *oracle) check(q query, found bool, value, aux int64, steps int32) bool {
	w := o.want[q.kind][q.draw]
	return found == w.Found && value == w.Value && aux == w.Aux && steps == w.Steps
}

// judge turns one served result (or error) into an outcome.
func (o *oracle) judge(q query, res serve.Result, err error) outcome {
	switch {
	case err != nil:
		return classifyErr(err)
	case !o.check(q, res.Found, res.Value, res.Aux, res.Steps):
		return wrongAns
	case res.Degraded:
		return okDegraded
	default:
		return okMesh
	}
}
