package main

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

// shortRun is a seeded poisson plan of a few hundred milliseconds against
// an in-process one-replica fleet: the flag set meshserve -workload poisson
// builds, minus what a test does not need.
func shortRun() (serve.Config, workloadFlags) {
	cfg := serve.Config{Side: 8, Linger: 500 * time.Microsecond}
	f := workloadFlags{
		mode: "poisson", rate: "300", dur: 300 * time.Millisecond,
		window: 100 * time.Millisecond, seed: 7, deadline: 5 * time.Second,
		replicas: 1, policy: "round-robin", probeEvery: fleet.DefaultProbeInterval,
	}
	return cfg, f
}

// TestWorkloadRecordReplay records a seeded run with -trace-out and replays
// it with -trace-in: the replay must reproduce every recorded answer, or
// runWorkload fails.
func TestWorkloadRecordReplay(t *testing.T) {
	cfg, rec := shortRun()
	rec.traceOut = filepath.Join(t.TempDir(), "run.jsonl")
	if err := runWorkload(cfg, rec); err != nil {
		t.Fatalf("recording run: %v", err)
	}
	_, rep := shortRun()
	rep.mode, rep.traceIn = "replay", rec.traceOut
	if err := runWorkload(cfg, rep); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// TestOutageCompareAnswersIdentically runs -outage-compare on a mild gray
// failure: both fleets must answer every query, and with identical digests.
func TestOutageCompareAnswersIdentically(t *testing.T) {
	cfg, f := shortRun()
	const spec = "slow:r1:4x@100ms"
	f.replicas = 3
	plan, err := parseOutage(spec, f.replicas, f.seed)
	if err != nil {
		t.Fatal(err)
	}
	f.outage, f.outagePlan, f.outageCompare = spec, plan, true
	f.makeInjector = plan.makeInjector(nil)
	if err := runWorkload(cfg, f); err != nil {
		t.Fatal(err)
	}
}
