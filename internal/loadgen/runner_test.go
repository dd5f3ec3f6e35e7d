package loadgen

import (
	"context"
	"testing"
	"time"

	"repro/internal/serve"
)

func newRunServer(t *testing.T) *serve.Instance {
	t.Helper()
	s, err := serve.New(serve.Config{Side: 8, Linger: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// TestRunRecordReplayIdenticalAnswers is the harness's core contract: a
// seeded Poisson run against a live server produces an answer stream that a
// replay of its recorded trace reproduces exactly — same digest, zero
// comparison mismatches — on a *fresh* server.
func TestRunRecordReplayIdenticalAnswers(t *testing.T) {
	sched := Schedule{{Rate: 400, Dur: 800 * time.Millisecond}}
	arr, err := Poisson(sched, 42)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := UniformKeys(16, 42)
	if err != nil {
		t.Fatal(err)
	}
	events, err := Generate(arr, keys, 0)
	if err != nil {
		t.Fatal(err)
	}

	s1 := newRunServer(t)
	rep1, err := Run(Config{LookupKind: s1.LookupKind, Stats: s1.Stats, Events: events, Window: 200 * time.Millisecond, Check: StructureChecker(s1.Structures())})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Total.Mismatched > 0 || rep1.Total.Failed > 0 {
		t.Fatalf("clean run had %d mismatches, %d failures", rep1.Total.Mismatched, rep1.Total.Failed)
	}
	if rep1.Total.Answered == 0 {
		t.Fatal("run answered nothing")
	}

	replayEvents := StripAnswers(events)
	s2 := newRunServer(t)
	rep2, err := Run(Config{LookupKind: s2.LookupKind, Stats: s2.Stats, Events: replayEvents, Window: 200 * time.Millisecond, Check: StructureChecker(s2.Structures())})
	if err != nil {
		t.Fatal(err)
	}
	if n, ferr := CompareAnswers(events, replayEvents); n != 0 {
		t.Fatalf("replay diverged on %d events: %v", n, ferr)
	}
	if rep1.Digest != rep2.Digest {
		t.Fatalf("digests differ: %s vs %s", rep1.Digest, rep2.Digest)
	}
}

// TestRunWindowAccounting checks the per-window report: offered counts
// partition the events by arrival time, quantiles are populated and
// monotone, and offered ≈ achieved on an unsaturated run.
func TestRunWindowAccounting(t *testing.T) {
	sched := Schedule{{Rate: 300, Dur: 900 * time.Millisecond}}
	arr, _ := Poisson(sched, 7)
	keys, _ := UniformKeys(16, 7)
	events, err := Generate(arr, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newRunServer(t)
	rep, err := Run(Config{LookupKind: s.LookupKind, Stats: s.Stats, Events: events, Window: 300 * time.Millisecond, Check: StructureChecker(s.Structures())})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) < 2 || len(rep.Windows) > 4 {
		t.Fatalf("%d windows for a 900ms run at 300ms windows", len(rep.Windows))
	}
	var offered int64
	for i, w := range rep.Windows {
		offered += w.Offered
		if w.Offered != w.Answered+w.Rejected+w.Shed+w.Failed {
			t.Fatalf("window %d outcomes don't partition offered: %+v", i, w)
		}
		if w.Answered > 0 {
			if w.P50 <= 0 || w.P50 > w.P95 || w.P95 > w.P99 || w.P99 > w.P999 || w.P999 > w.Max {
				t.Fatalf("window %d quantiles not monotone: %+v", i, w)
			}
			if w.MeanPathSteps <= 0 {
				t.Fatalf("window %d lacks path-length accounting: %+v", i, w)
			}
		}
	}
	if offered != int64(len(events)) {
		t.Fatalf("windows offered %d, want %d", offered, len(events))
	}
	tot := rep.Total
	if tot.Offered != int64(len(events)) || tot.Answered != int64(len(events)) {
		t.Fatalf("unsaturated run should answer everything: %+v", tot)
	}
	if tot.SimStepsPerQuery <= 0 {
		t.Fatalf("total sim-steps/query not derived from server stats: %+v", tot)
	}
	if tot.P99 <= 0 || tot.AchievedQPS <= 0 {
		t.Fatalf("total summary not populated: %+v", tot)
	}
}

// TestSaturateFindsKnee drives the binary search against a synthetic probe
// whose SLO breaks above a known capacity, checking bracketing, the knee,
// and the capped path.
func TestSaturateFindsKnee(t *testing.T) {
	const capacity = 400.0
	fakeRun := func(rate float64) (*Report, error) {
		rep := &Report{}
		rep.Total.Offered = 1000
		rep.Total.Answered = 1000
		rep.Total.AchievedQPS = rate
		if rate <= capacity {
			rep.Total.P99 = 10 * time.Millisecond
		} else {
			rep.Total.P99 = 500 * time.Millisecond
		}
		return rep, nil
	}
	slo := SLO{P99: 50 * time.Millisecond, MaxDegraded: 0.01, MaxRejected: 0.01}
	kr, err := Saturate(fakeRun, 50, 100_000, 8, slo)
	if err != nil {
		t.Fatal(err)
	}
	if kr.Capped {
		t.Fatalf("search capped despite a breakable SLO: %+v", kr)
	}
	if kr.Knee < capacity*0.85 || kr.Knee > capacity {
		t.Fatalf("knee %.1f, want within (%.1f, %.1f]", kr.Knee, capacity*0.85, capacity)
	}
	if len(kr.Probes) < 4 {
		t.Fatalf("only %d probes recorded", len(kr.Probes))
	}
	for _, p := range kr.Probes {
		if p.Pass != (p.Rate <= capacity) {
			t.Fatalf("probe at %.1f recorded pass=%v", p.Rate, p.Pass)
		}
		if !p.Pass && p.Reason == "" {
			t.Fatalf("failing probe at %.1f lacks a reason", p.Rate)
		}
	}
	// Capped: the SLO never breaks below max.
	kr, err = Saturate(fakeRun, 50, 200, 8, slo)
	if err != nil {
		t.Fatal(err)
	}
	if !kr.Capped || kr.Knee != 200 {
		t.Fatalf("uncappable search: %+v", kr)
	}
	if _, err := Saturate(fakeRun, 0, 100, 3, slo); err == nil {
		t.Fatal("non-positive start accepted")
	}
}

// TestSLOPassClauses unit-tests every SLO clause and its reason string.
func TestSLOPassClauses(t *testing.T) {
	slo := SLO{P99: 100 * time.Millisecond, MaxDegraded: 0.05, MaxRejected: 0.10}
	base := func() *Report {
		r := &Report{}
		r.Total.Offered = 1000
		r.Total.Answered = 990
		r.Total.Rejected = 10
		r.Total.P99 = 20 * time.Millisecond
		return r
	}
	if ok, reason := slo.Pass(base()); !ok {
		t.Fatalf("healthy report failed SLO: %s", reason)
	}
	cases := []struct {
		name   string
		mutate func(*Report)
	}{
		{"mismatch", func(r *Report) { r.Total.Mismatched = 1 }},
		{"failed", func(r *Report) { r.Total.Failed = 1 }},
		{"rejected", func(r *Report) { r.Total.Rejected = 200 }},
		{"shed", func(r *Report) { r.Total.Shed = 200 }},
		{"degraded", func(r *Report) { r.Total.Degraded = 100 }},
		{"p99", func(r *Report) { r.Total.P99 = time.Second }},
	}
	for _, tc := range cases {
		r := base()
		tc.mutate(r)
		ok, reason := slo.Pass(r)
		if ok || reason == "" {
			t.Fatalf("%s violation not caught (reason %q)", tc.name, reason)
		}
	}
}

// TestGenerateBounds pins the arrival cap and the empty-schedule error.
func TestGenerateBounds(t *testing.T) {
	sched := Schedule{{Rate: 100_000, Dur: time.Second}}
	arr, _ := Poisson(sched, 1)
	keys, _ := UniformKeys(16, 1)
	if _, err := Generate(arr, keys, 1000); err == nil {
		t.Fatal("oversized plan accepted")
	}
	if err := (Config{}).check(); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Run(Config{Events: []TraceEvent{{}}}); err == nil {
		t.Fatal("config without a target accepted")
	}
}
