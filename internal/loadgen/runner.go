package loadgen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Config drives one open-loop run.
type Config struct {
	// LookupKind is the target: one typed query against whatever is being
	// driven — an in-process fleet (fleet.Fleet.LookupKind) or a remote
	// server over HTTP (HTTPTarget.LookupKind).
	LookupKind func(ctx context.Context, kind serve.Kind, args serve.Args) (serve.Result, error)
	// Stats samples the target's serving counters at window boundaries for
	// the per-window sim-steps gauge. Optional (nil reports sim-steps as 0).
	Stats func() serve.Stats
	// Events is the materialized arrival plan (GenerateMix or a replayed
	// trace). Run fills each event's answer fields in place.
	Events []TraceEvent
	// Window is the reporting bucket width (default 1s).
	Window time.Duration
	// Deadline bounds each lookup (default 5s; ≤0 keeps the default —
	// an open-loop run must never block forever on one query).
	Deadline time.Duration
	// Stages samples the target observer's per-stage wall-clock counters at
	// window boundaries (obs.Observer.Stages), so each reporting window
	// decomposes its latency by lifecycle stage — queue wait vs linger vs
	// mesh vs backoff vs failover. Optional; nil leaves the breakdown empty.
	Stages func() obs.StageSnapshot
	// Check is the per-kind answer check (true = the answer matches the
	// host oracle); StructureChecker builds one from a serve.StructureSet.
	// Nil disables checks.
	Check func(kind serve.Kind, args serve.Args, res serve.Result) bool
}

// maxInFlight caps a run's concurrent outstanding lookups. When the cap is
// hit the arrival is shed client-side and counted — blocking would silently
// turn the generator closed-loop.
const maxInFlight = 4096

// Outcome classifies one arrival's fate.
type outcome struct {
	status   uint8
	latNS    int64
	pathLen  int32
	mismatch bool
}

const (
	outcomeOK       = iota // answered by a mesh round
	outcomeDegraded        // answered by the host oracle (still correct)
	outcomeRejected        // ErrOverloaded from admission
	outcomeShed            // shed client-side at maxInFlight or server-side on budget
	outcomeFailed          // any other error (round fault, deadline)
)

// outcomeNames are the wire names recorded on v2 trace events and folded
// into the answer digest.
var outcomeNames = [...]string{
	outcomeOK:       "ok",
	outcomeDegraded: "degraded",
	outcomeRejected: "rejected",
	outcomeShed:     "shed",
	outcomeFailed:   "failed",
}

// WindowStats aggregates one reporting window (and, for Total, the whole
// run). Quantiles come from the shared fixed-boundary histogram
// (obs.Histogram); offered is by arrival time, so a query is attributed
// to the window that offered it even if it completed later.
type WindowStats struct {
	Start      time.Duration `json:"start_ns"`
	Offered    int64         `json:"offered"`
	Answered   int64         `json:"answered"` // mesh-served + degraded
	Rejected   int64         `json:"rejected"`
	Shed       int64         `json:"shed"`
	Failed     int64         `json:"failed"`
	Degraded   int64         `json:"degraded"`
	Mismatched int64         `json:"mismatched"`

	OfferedQPS  float64 `json:"offered_qps"`
	AchievedQPS float64 `json:"achieved_qps"`

	P50  time.Duration `json:"p50_ns"`
	P95  time.Duration `json:"p95_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	Max  time.Duration `json:"max_ns"`

	// MeanPathSteps is the mean search-path length of answered queries (the
	// per-query cost the paper's tree height bounds); SimStepsPerQuery is
	// simulated mesh steps per mesh-served query over the window, from the
	// server's own counters sampled at window boundaries.
	MeanPathSteps    float64 `json:"mean_path_steps"`
	SimStepsPerQuery float64 `json:"sim_steps_per_query"`

	// StageNS decomposes the window's latency by lifecycle stage: mean
	// wall-clock nanoseconds spent per answered query in each stage (from
	// the observer's counters sampled at window boundaries; only stages with
	// time in this window appear). Requires Config.Stages.
	StageNS map[string]float64 `json:"stage_ns,omitempty"`
}

// Report is the result of one open-loop run.
type Report struct {
	Windows []WindowStats `json:"windows"`
	Total   WindowStats   `json:"total"`
	// Kinds aggregates the whole run per query kind — the split the mixed-
	// workload SLO clauses evaluate, so one slow or wrong family cannot
	// hide inside the combined totals.
	Kinds map[string]*WindowStats `json:"kinds,omitempty"`
	// Digest is a v2 SHA-256 over every event in arrival order — kind,
	// typed arguments, outcome, and the answer (found, leaf, value, aux,
	// steps). Folding the outcome in means two runs that produced the same
	// answers by different paths (mesh vs degraded, rejected vs shed) no
	// longer hash identically, which the pre-v2 answers-only digest
	// silently allowed.
	Digest string        `json:"answer_digest"`
	Wall   time.Duration `json:"wall_ns"`
}

func (cfg Config) check() error {
	if cfg.LookupKind == nil {
		return fmt.Errorf("loadgen: Config needs a target (LookupKind)")
	}
	if len(cfg.Events) == 0 {
		return fmt.Errorf("loadgen: no events to run")
	}
	return nil
}

// Run plays the arrival plan against the server: open loop, each arrival
// fired at its scheduled offset regardless of outstanding queries. The hot
// path does no per-query allocation beyond the one goroutine per in-flight
// lookup — outcomes land in a preallocated slice, latency quantiles come
// from fixed-boundary histograms built at report time.
func Run(cfg Config) (*Report, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	window := cfg.Window
	if window <= 0 {
		window = time.Second
	}
	deadline := cfg.Deadline
	if deadline <= 0 {
		deadline = 5 * time.Second
	}

	stats := cfg.Stats
	if stats == nil {
		stats = func() serve.Stats { return serve.Stats{} }
	}
	events := cfg.Events
	outcomes := make([]outcome, len(events))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup

	// Sample the target's counters at window boundaries so per-window
	// sim-steps/query can be computed from deltas (the counters are global;
	// boundary samples attribute them to windows to histogram precision).
	lastAt := time.Duration(events[len(events)-1].AtNS)
	numWindows := int(lastAt/window) + 1
	sampleStages := cfg.Stages
	if sampleStages == nil {
		sampleStages = func() obs.StageSnapshot { return obs.StageSnapshot{} }
	}
	boundarySamples := make([]serve.Stats, 0, numWindows+1)
	boundarySamples = append(boundarySamples, stats())
	stageSamples := make([]obs.StageSnapshot, 0, numWindows+1)
	stageSamples = append(stageSamples, sampleStages())
	samplerDone := make(chan struct{})
	samplerStop := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(window)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if len(boundarySamples) <= numWindows {
					boundarySamples = append(boundarySamples, stats())
					stageSamples = append(stageSamples, sampleStages())
				}
			case <-samplerStop:
				return
			}
		}
	}()

	start := time.Now()
	for i := range events {
		ev := &events[i]
		if wait := time.Duration(ev.AtNS) - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case sem <- struct{}{}:
		default:
			outcomes[i].status = outcomeShed
			continue
		}
		wg.Add(1)
		go func(ev *TraceEvent, o *outcome) {
			defer wg.Done()
			defer func() { <-sem }()
			qctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			args := ev.Args
			if ev.Kind == serve.KindMembership {
				// The needle is canonical for membership — hand-built and v1
				// event slices carry it without the typed-args mirror.
				args = serve.Args{ev.Needle}
			}
			qstart := time.Now()
			res, err := cfg.LookupKind(qctx, ev.Kind, args)
			o.latNS = time.Since(qstart).Nanoseconds()
			switch {
			case errors.Is(err, serve.ErrOverloaded):
				o.status = outcomeRejected
			case errors.Is(err, serve.ErrBudgetExhausted):
				// Server-side budget shed: the same outcome class as a
				// client-side maxInFlight shed — deliberately dropped load,
				// not a failure (§3.11).
				o.status = outcomeShed
			case err != nil:
				o.status = outcomeFailed
			default:
				ev.OK, ev.Found, ev.Steps = true, res.Found, res.Steps
				ev.Leaf, ev.Value, ev.Aux = res.LeafKey, res.Value, res.Aux
				o.pathLen = res.Steps
				if cfg.Check != nil {
					o.mismatch = !cfg.Check(ev.Kind, args, res)
				}
				if res.Degraded {
					o.status = outcomeDegraded
				} else {
					o.status = outcomeOK
				}
			}
		}(ev, &outcomes[i])
	}
	wg.Wait()
	wall := time.Since(start)
	close(samplerStop)
	<-samplerDone
	boundarySamples = append(boundarySamples, stats())
	stageSamples = append(stageSamples, sampleStages())

	return buildReport(events, outcomes, boundarySamples, stageSamples, window, wall), nil
}

func buildReport(events []TraceEvent, outcomes []outcome, samples []serve.Stats, stageSamples []obs.StageSnapshot, window time.Duration, wall time.Duration) *Report {
	lastAt := time.Duration(events[len(events)-1].AtNS)
	numWindows := int(lastAt/window) + 1
	hists := make([]*obs.Histogram, numWindows)
	var totalHist obs.Histogram
	wins := make([]WindowStats, numWindows)
	var total WindowStats
	var totalPath int64
	winPath := make([]int64, numWindows)
	kinds := make(map[string]*WindowStats)
	kindHists := make(map[string]*obs.Histogram)
	kindPath := make(map[string]int64)
	for i := range events {
		ev := &events[i]
		w := int(time.Duration(ev.AtNS) / window)
		ws := &wins[w]
		o := &outcomes[i]
		ev.Outcome = outcomeNames[o.status]
		kname := ev.Kind.String()
		ks := kinds[kname]
		if ks == nil {
			ks = &WindowStats{}
			kinds[kname] = ks
			kindHists[kname] = &obs.Histogram{}
		}
		ws.Offered++
		total.Offered++
		ks.Offered++
		switch o.status {
		case outcomeOK, outcomeDegraded:
			ws.Answered++
			total.Answered++
			ks.Answered++
			if o.status == outcomeDegraded {
				ws.Degraded++
				total.Degraded++
				ks.Degraded++
			}
			if hists[w] == nil {
				hists[w] = &obs.Histogram{}
			}
			hists[w].Observe(time.Duration(o.latNS))
			totalHist.Observe(time.Duration(o.latNS))
			kindHists[kname].Observe(time.Duration(o.latNS))
			winPath[w] += int64(o.pathLen)
			totalPath += int64(o.pathLen)
			kindPath[kname] += int64(o.pathLen)
		case outcomeRejected:
			ws.Rejected++
			total.Rejected++
			ks.Rejected++
		case outcomeShed:
			ws.Shed++
			total.Shed++
			ks.Shed++
		case outcomeFailed:
			ws.Failed++
			total.Failed++
			ks.Failed++
		}
		if o.mismatch {
			ws.Mismatched++
			total.Mismatched++
			ks.Mismatched++
		}
	}

	winSecs := window.Seconds()
	for w := range wins {
		ws := &wins[w]
		ws.Start = time.Duration(w) * window
		ws.OfferedQPS = float64(ws.Offered) / winSecs
		ws.AchievedQPS = float64(ws.Answered) / winSecs
		if hists[w] != nil {
			fillQuantiles(ws, hists[w].Snapshot())
		}
		if ws.Answered > 0 {
			ws.MeanPathSteps = float64(winPath[w]) / float64(ws.Answered)
		}
		// Per-window mesh steps from the boundary samples: sample w is the
		// state at the window's start, w+1 at its end (clamped — the run
		// tail may outlive the last full window).
		lo, hi := w, w+1
		if hi >= len(samples) {
			hi = len(samples) - 1
		}
		if lo < hi {
			dSteps := samples[hi].SimSteps - samples[lo].SimSteps
			if dServed := samples[hi].Served - samples[lo].Served; dServed > 0 {
				ws.SimStepsPerQuery = float64(dSteps) / float64(dServed)
			}
			if hi < len(stageSamples) {
				ws.StageNS = stageBreakdown(stageSamples[lo], stageSamples[hi], ws.Answered)
			}
		}
	}

	wallSecs := wall.Seconds()
	if wallSecs <= 0 {
		wallSecs = winSecs
	}
	total.OfferedQPS = float64(total.Offered) / wallSecs
	total.AchievedQPS = float64(total.Answered) / wallSecs
	fillQuantiles(&total, totalHist.Snapshot())
	if total.Answered > 0 {
		total.MeanPathSteps = float64(totalPath) / float64(total.Answered)
	}
	first, last := samples[0], samples[len(samples)-1]
	if dServed := last.Served - first.Served; dServed > 0 {
		total.SimStepsPerQuery = float64(last.SimSteps-first.SimSteps) / float64(dServed)
	}
	if len(stageSamples) > 0 {
		total.StageNS = stageBreakdown(stageSamples[0], stageSamples[len(stageSamples)-1], total.Answered)
	}

	// Per-kind run aggregates: offered-rate shares use the full run's wall
	// clock (a kind's arrivals spread over the whole schedule).
	for kname, ks := range kinds {
		ks.OfferedQPS = float64(ks.Offered) / wallSecs
		ks.AchievedQPS = float64(ks.Answered) / wallSecs
		fillQuantiles(ks, kindHists[kname].Snapshot())
		if ks.Answered > 0 {
			ks.MeanPathSteps = float64(kindPath[kname]) / float64(ks.Answered)
		}
	}

	return &Report{Windows: wins, Total: total, Kinds: kinds, Digest: Digest(events), Wall: wall}
}

// stageBreakdown turns two boundary samples of the observer's per-stage
// counters into mean nanoseconds per answered query for each stage that
// accumulated time in between. Stage time is attributed to windows at
// boundary-sample precision, same as SimStepsPerQuery.
func stageBreakdown(lo, hi obs.StageSnapshot, answered int64) map[string]float64 {
	if answered <= 0 {
		return nil
	}
	var out map[string]float64
	for i, name := range obs.StageNames() {
		d := hi.SumNS[i] - lo.SumNS[i]
		if d <= 0 {
			continue
		}
		if out == nil {
			out = make(map[string]float64, len(obs.StageNames()))
		}
		out[name] = float64(d) / float64(answered)
	}
	return out
}

func fillQuantiles(ws *WindowStats, snap obs.HistSnapshot) {
	ws.P50 = snap.Quantile(0.50)
	ws.P95 = snap.Quantile(0.95)
	ws.P99 = snap.Quantile(0.99)
	ws.P999 = snap.Quantile(0.999)
	ws.Max = time.Duration(snap.Max)
}

// Digest hashes every event in arrival order — kind, typed arguments, the
// arrival's outcome, and its answer fields. Two runs over the same plan with
// equal digests produced byte-identical answer *and outcome* streams; the
// pre-v2 digest skipped unanswered events and hashed answers only, so a run
// that degraded (or shed) half its traffic could hash identically to a clean
// one. The "v2" prefix keys the format so digests from the two schemes can
// never collide silently.
func Digest(events []TraceEvent) string {
	h := sha256.New()
	fmt.Fprintln(h, "v2")
	for i := range events {
		ev := &events[i]
		fmt.Fprintf(h, "%d:%s:%d,%d,%d:%s:%t:%d:%d:%d:%d\n",
			ev.I, ev.Kind, ev.Args[0], ev.Args[1], ev.Args[2],
			ev.Outcome, ev.Found, ev.Leaf, ev.Value, ev.Aux, ev.Steps)
	}
	return hex.EncodeToString(h.Sum(nil))
}
