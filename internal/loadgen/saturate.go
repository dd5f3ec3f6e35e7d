package loadgen

import (
	"fmt"
	"sort"
	"time"
)

// SLO is the predicate a sustainable rate must satisfy over a whole probe
// run: answered-query p99 latency under P99, degraded fraction (of answered)
// at most MaxDegraded, rejected+shed fraction (of offered) at most
// MaxRejected, and no failed or oracle-mismatched queries at all. Under a
// mixed-kind workload every clause is also evaluated against each kind's own
// aggregate — a minority kind's blown p99 must fail the probe even when the
// majority kind drags the combined percentile under the target.
type SLO struct {
	P99         time.Duration `json:"p99_ns"`
	MaxDegraded float64       `json:"max_degraded_frac"`
	MaxRejected float64       `json:"max_rejected_frac"`
}

// Pass evaluates the SLO against a run's aggregate — and, per kind, against
// each kind's slice of it — returning the first violated clause for the
// knee report.
func (slo SLO) Pass(r *Report) (bool, string) {
	if ok, reason := slo.passWindow("", r.Total); !ok {
		return false, reason
	}
	if len(r.Kinds) > 1 {
		for _, kname := range sortedKindNames(r.Kinds) {
			if ok, reason := slo.passWindow(kname, *r.Kinds[kname]); !ok {
				return false, reason
			}
		}
	}
	return true, ""
}

// passWindow checks one aggregate (the run total, or one kind's slice —
// label prefixes the violation for the knee report).
func (slo SLO) passWindow(label string, t WindowStats) (bool, string) {
	pfx := ""
	if label != "" {
		pfx = label + ": "
	}
	if t.Mismatched > 0 {
		return false, fmt.Sprintf("%s%d answers disagreed with the host oracle", pfx, t.Mismatched)
	}
	if t.Failed > 0 {
		return false, fmt.Sprintf("%s%d queries failed", pfx, t.Failed)
	}
	if t.Offered > 0 {
		if frac := float64(t.Rejected+t.Shed) / float64(t.Offered); frac > slo.MaxRejected {
			return false, fmt.Sprintf("%srejected %.2f%% > %.2f%%", pfx, 100*frac, 100*slo.MaxRejected)
		}
	}
	if t.Answered > 0 {
		if frac := float64(t.Degraded) / float64(t.Answered); frac > slo.MaxDegraded {
			return false, fmt.Sprintf("%sdegraded %.2f%% > %.2f%%", pfx, 100*frac, 100*slo.MaxDegraded)
		}
	}
	if slo.P99 > 0 && t.P99 > slo.P99 {
		return false, fmt.Sprintf("%sp99 %v > %v", pfx, t.P99, slo.P99)
	}
	return true, ""
}

// sortedKindNames gives deterministic clause-evaluation (and so violation-
// reporting) order.
func sortedKindNames(m map[string]*WindowStats) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Probe is one saturation measurement: the offered rate and how the run
// fared against the SLO.
type Probe struct {
	Rate        float64       `json:"rate_qps"`
	Pass        bool          `json:"pass"`
	Reason      string        `json:"reason,omitempty"`
	AchievedQPS float64       `json:"achieved_qps"`
	P50         time.Duration `json:"p50_ns"`
	P95         time.Duration `json:"p95_ns"`
	P99         time.Duration `json:"p99_ns"`
	P999        time.Duration `json:"p999_ns"`
	Degraded    float64       `json:"degraded_frac"`
	Rejected    float64       `json:"rejected_frac"`
}

// KneeReport is the saturation search's result: every probe in order, and
// the knee — the highest probed rate that still met the SLO.
type KneeReport struct {
	SLO    SLO     `json:"slo"`
	Probes []Probe `json:"probes"`
	Knee   float64 `json:"knee_qps"`
	// Capped means the search hit maxRate while still passing: the true
	// knee is at or above Knee, not bracketed.
	Capped bool `json:"capped,omitempty"`
}

// Saturate binary-searches the maximum sustainable offered rate under the
// SLO. run executes one probe at the given rate (fresh arrival plan, same
// server) and returns its report. The search doubles from start until the
// SLO breaks (or max is reached), then bisects the bracket `bisections`
// times; the knee is the highest passing rate observed.
func Saturate(run func(rate float64) (*Report, error), start, max float64, bisections int, slo SLO) (*KneeReport, error) {
	if start <= 0 || max < start {
		return nil, fmt.Errorf("loadgen: saturation needs 0 < start ≤ max (got start=%g max=%g)", start, max)
	}
	if bisections < 0 {
		bisections = 0
	}
	out := &KneeReport{SLO: slo}
	probe := func(rate float64) (bool, error) {
		rep, err := run(rate)
		if err != nil {
			return false, fmt.Errorf("loadgen: probe at %g qps: %w", rate, err)
		}
		pass, reason := slo.Pass(rep)
		t := rep.Total
		p := Probe{
			Rate: rate, Pass: pass, Reason: reason,
			AchievedQPS: t.AchievedQPS,
			P50:         t.P50, P95: t.P95, P99: t.P99, P999: t.P999,
		}
		if t.Offered > 0 {
			p.Rejected = float64(t.Rejected+t.Shed) / float64(t.Offered)
		}
		if t.Answered > 0 {
			p.Degraded = float64(t.Degraded) / float64(t.Answered)
		}
		out.Probes = append(out.Probes, p)
		return pass, nil
	}

	// Exponential growth phase: find a failing bracket [lo passing, hi failing].
	lo, hi := 0.0, 0.0
	rate := start
	for {
		pass, err := probe(rate)
		if err != nil {
			return nil, err
		}
		if !pass {
			hi = rate
			break
		}
		lo = rate
		if rate >= max {
			out.Knee = lo
			out.Capped = true
			return out, nil
		}
		rate *= 2
		if rate > max {
			rate = max
		}
	}

	// Bisection phase. A relative gap under 5% is inside measurement noise.
	for i := 0; i < bisections && hi-lo > 0.05*hi; i++ {
		mid := (lo + hi) / 2
		pass, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	out.Knee = lo
	return out, nil
}
