package obs

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// PromWriter builds a Prometheus text-format (version 0.0.4) exposition.
// It is a plain builder, not a registry: the HTTP handlers snapshot their
// counters/histograms per scrape and replay them through it, which keeps the
// hot path free of any metrics-library bookkeeping. HELP/TYPE headers are
// emitted once per family even when samples interleave label sets.
type PromWriter struct {
	buf    bytes.Buffer
	headed map[string]bool
}

// NewPromWriter returns an empty exposition builder.
func NewPromWriter() *PromWriter {
	return &PromWriter{headed: make(map[string]bool)}
}

// ContentType is the scrape response content type for the text format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

func (w *PromWriter) head(name, help, typ string) {
	if w.headed[name] {
		return
	}
	w.headed[name] = true
	fmt.Fprintf(&w.buf, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// labels renders {k="v",...} from alternating key/value pairs.
func promLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(promEscape(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func promEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter emits one counter sample (kv = alternating label key/value pairs).
func (w *PromWriter) Counter(name, help string, v float64, kv ...string) {
	w.head(name, help, "counter")
	fmt.Fprintf(&w.buf, "%s%s %s\n", name, promLabels(kv), promFloat(v))
}

// Gauge emits one gauge sample.
func (w *PromWriter) Gauge(name, help string, v float64, kv ...string) {
	w.head(name, help, "gauge")
	fmt.Fprintf(&w.buf, "%s%s %s\n", name, promLabels(kv), promFloat(v))
}

// Histogram emits a HistSnapshot as a classic Prometheus histogram in
// seconds. The 960 internal buckets are downsampled to one cumulative
// `le` bound per power-of-two octave (≈60 worst case, far fewer in
// practice: octaves past the slowest observation collapse into +Inf), which
// keeps scrape size sane while preserving quantile error ≤ one octave —
// tighter bounds come from the JSON summaries, which use the full buckets.
func (w *PromWriter) Histogram(name, help string, s HistSnapshot, kv ...string) {
	w.head(name, help, "histogram")
	ls := promLabels(kv)
	var cum int64
	if len(s.Counts) != 0 {
		for i, c := range s.Counts {
			cum += c
			last := i == len(s.Counts)-1
			if !last && (i < 15 || i%16 != 15) {
				continue // not an octave boundary
			}
			if cum >= s.Count && int64(s.Max) <= histUpper(i) {
				// Every observation is at or below this bound; the
				// remaining octaves add nothing but scrape bytes.
				last = true
			}
			le := promFloat(float64(histUpper(i)) / 1e9)
			w.bucket(name, ls, le, cum)
			if last {
				break
			}
		}
	}
	w.bucket(name, ls, "+Inf", s.Count)
	fmt.Fprintf(&w.buf, "%s_sum%s %s\n", name, ls, promFloat(float64(s.Sum)/1e9))
	fmt.Fprintf(&w.buf, "%s_count%s %d\n", name, ls, s.Count)
}

func (w *PromWriter) bucket(name, ls, le string, cum int64) {
	if ls == "" {
		fmt.Fprintf(&w.buf, "%s_bucket{le=%q} %d\n", name, le, cum)
		return
	}
	// ls is `{k="v",...}`; splice the le label in before the closing brace.
	fmt.Fprintf(&w.buf, "%s_bucket%s,le=%q} %d\n", name, ls[:len(ls)-1], le, cum)
}

// Bytes returns the exposition body.
func (w *PromWriter) Bytes() []byte { return w.buf.Bytes() }

// WriteObserver emits the observer's own families under the given prefix
// (e.g. "meshserve"): per-stage wall-clock histograms, per-outcome counters,
// and the SLO burn-rate gauges. Shared by the serve and fleet handlers.
func (w *PromWriter) WriteObserver(prefix string, o *Observer) {
	// One stage-histogram family; when the observer tracks more than one
	// request class (query kinds, in the serving stack) each class gets its
	// own label set so a slow point-location round cannot hide inside the
	// membership aggregate. Single-class observers keep the unlabeled shape
	// existing dashboards scrape.
	classes := o.Classes()
	for st := Stage(0); st < numStages; st++ {
		if len(classes) > 1 {
			for c, name := range classes {
				w.Histogram(prefix+"_stage_duration_seconds",
					"Wall-clock time per request lifecycle stage.",
					o.StageHistClass(c, st), "stage", st.String(), "kind", name)
			}
		} else {
			w.Histogram(prefix+"_stage_duration_seconds",
				"Wall-clock time per request lifecycle stage.",
				o.StageHist(st), "stage", st.String())
		}
	}
	var answered int64
	for oc := Outcome(0); oc < numOutcomes; oc++ {
		n := o.OutcomeCount(oc)
		w.Counter(prefix+"_requests_total",
			"Finished requests by outcome.",
			float64(n), "outcome", oc.String())
		if oc.answered() {
			answered += n
		}
	}
	w.Counter(prefix+"_traces_abandoned_total",
		"Traces dropped because the client abandoned the request mid-flight.",
		float64(o.Abandoned()))

	// SLO burn rates: 1.0 = burning exactly at the SLO's error budget,
	// >1 = out of budget. The latency burn gauge needs the caller's
	// end-to-end histogram, so it is emitted via WriteLatencyBurn.
	p99, maxDeg := o.SLO()
	w.Gauge(prefix+"_slo_p99_target_seconds",
		"Configured latency SLO target (at most 1% of answered requests may exceed it).",
		float64(p99)/1e9)
	if answered > 0 {
		frac := float64(o.OutcomeCount(OutcomeOracle)) / float64(answered)
		w.Gauge(prefix+"_slo_degraded_burn_rate",
			"Degraded-answer fraction over its SLO budget (>1 = out of budget).",
			frac/maxDeg)
	} else {
		w.Gauge(prefix+"_slo_degraded_burn_rate",
			"Degraded-answer fraction over its SLO budget (>1 = out of budget).", 0)
	}
}

// WriteLatencyBurn emits the latency burn-rate gauge for an end-to-end
// latency snapshot against the observer's p99 SLO: the fraction of requests
// over the target, divided by the 1% budget.
func (w *PromWriter) WriteLatencyBurn(prefix string, o *Observer, e2e HistSnapshot) {
	p99, _ := o.SLO()
	burn := 0.0
	if e2e.Count > 0 {
		burn = (float64(e2e.CountAbove(p99)) / float64(e2e.Count)) / 0.01
	}
	w.Gauge(prefix+"_slo_latency_burn_rate",
		"Fraction of requests over the p99 SLO target, divided by the 1% budget (>1 = out of budget).",
		burn)
}

// SortedKeys is a small helper for deterministic map iteration in handlers.
func SortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
