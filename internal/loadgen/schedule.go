// Package loadgen is the open-loop workload generator and SLO harness for
// the serve layer (DESIGN.md §3.7). Unlike the closed-loop sweep in
// cmd/meshserve (-loadgen), which can only offer as much load as the server
// absorbs, loadgen fires queries on an arrival clock that does not wait for
// responses — the only way to observe saturation, queueing delay, and the
// offered-vs-achieved gap Theorem 2's amortized throughput bound is about.
//
// The pieces compose:
//
//   - Schedule: a multi-period rate(t) plan (diurnal-style segments).
//   - Arrivals: a seeded Poisson or ON/OFF-bursty arrival process over a
//     Schedule (exact piecewise-constant thinning-free inversion).
//   - KeyDraw: uniform or Zipfian(s) hot-key popularity over the resident
//     dictionary's needle domain.
//   - Generate → []TraceEvent: a materialized, replayable arrival plan;
//     WriteTrace/ReadTrace round-trip it (with answers) through JSONL.
//   - Run: drives a target (an in-process fleet, or HTTPTarget for a remote
//     server) through Config.LookupKind, reporting per-window percentiles
//     (fixed-boundary histogram — no per-query allocation on the hot path),
//     offered vs achieved qps, steps/query, rejected/degraded fractions.
//   - Saturate: binary-searches the max sustainable rate under an SLO
//     predicate and emits a knee report.
package loadgen

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Phase is one segment of a rate schedule: offer Rate arrivals/second for
// Dur. Rate 0 is a silence (valid inside a schedule).
type Phase struct {
	Rate float64       `json:"rate_qps"`
	Dur  time.Duration `json:"dur_ns"`
}

// Schedule is a piecewise-constant offered-rate plan, played once.
type Schedule []Phase

// Total is the schedule's full length.
func (s Schedule) Total() time.Duration {
	var t time.Duration
	for _, p := range s {
		t += p.Dur
	}
	return t
}

// Validate rejects schedules the arrival process cannot play.
func (s Schedule) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("loadgen: empty schedule")
	}
	anyRate := false
	for i, p := range s {
		if p.Dur <= 0 {
			return fmt.Errorf("loadgen: schedule phase %d has non-positive duration %v", i, p.Dur)
		}
		if p.Rate < 0 {
			return fmt.Errorf("loadgen: schedule phase %d has negative rate %g", i, p.Rate)
		}
		if p.Rate > 0 {
			anyRate = true
		}
	}
	if !anyRate {
		return fmt.Errorf("loadgen: schedule offers zero load everywhere")
	}
	return nil
}

// ParseSchedule parses a rate plan from its flag syntax: a comma-separated
// list of RATE or RATExDUR entries, e.g. "400" (constant, defaultDur long)
// or "200x2s,800x500ms,200x2s" (a burst window between two baseline
// periods). Bare RATE entries get defaultDur.
func ParseSchedule(spec string, defaultDur time.Duration) (Schedule, error) {
	var out Schedule
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		rateStr, durStr, explicit := strings.Cut(f, "x")
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil {
			return nil, fmt.Errorf("loadgen: bad rate in schedule entry %q", f)
		}
		dur := defaultDur
		if explicit {
			if dur, err = time.ParseDuration(durStr); err != nil {
				return nil, fmt.Errorf("loadgen: bad duration in schedule entry %q", f)
			}
		}
		out = append(out, Phase{Rate: rate, Dur: dur})
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
