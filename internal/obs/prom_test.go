package obs

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var promSample = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9.eE+-]+(Inf|NaN)?$`)

// checkPromText validates an exposition body against the text-format 0.0.4
// grammar the CI smoke job also enforces: every non-comment line is a sample,
// every sample's family has HELP and TYPE emitted before it, histogram
// buckets are cumulative with a terminal +Inf equal to _count.
func checkPromText(t *testing.T, body string) {
	t.Helper()
	typed := map[string]string{}
	helped := map[string]bool{}
	type bstate struct {
		last   int64
		sawInf bool
	}
	buckets := map[string]*bstate{} // family+labels(without le)
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Errorf("line %d: empty line", ln+1)
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Errorf("line %d: bare HELP: %q", ln+1, line)
				continue
			}
			helped[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("line %d: bad TYPE: %q", ln+1, line)
				continue
			}
			if typed[f[2]] != "" {
				t.Errorf("line %d: TYPE for %s emitted twice", ln+1, f[2])
			}
			typed[f[2]] = f[3]
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("line %d: not a valid sample: %q", ln+1, line)
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suf); ok && typed[f] == "histogram" {
				family = f
			}
		}
		if !helped[family] || typed[family] == "" {
			t.Errorf("line %d: sample %s before its HELP/TYPE", ln+1, name)
		}
		if strings.HasSuffix(name, "_bucket") && typed[family] == "histogram" {
			series, le := splitLE(t, line)
			st := buckets[series]
			if st == nil {
				st = &bstate{}
				buckets[series] = st
			}
			v, _ := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if v < st.last {
				t.Errorf("line %d: bucket counts not cumulative (%d after %d): %q", ln+1, v, st.last, line)
			}
			st.last = v
			if le == "+Inf" {
				st.sawInf = true
			}
		}
	}
	for series, st := range buckets {
		if !st.sawInf {
			t.Errorf("histogram series %s has no +Inf bucket", series)
		}
	}
}

// splitLE splits a _bucket sample line into its series key (labels minus le)
// and the le value.
func splitLE(t *testing.T, line string) (series, le string) {
	t.Helper()
	open := strings.Index(line, "{")
	if open < 0 {
		t.Fatalf("bucket sample without le: %q", line)
	}
	close := strings.LastIndex(line, "}")
	name, labels := line[:open], line[open+1:close]
	var kept []string
	for _, kv := range strings.Split(labels, ",") {
		if v, ok := strings.CutPrefix(kv, `le="`); ok {
			le = strings.TrimSuffix(v, `"`)
			continue
		}
		kept = append(kept, kv)
	}
	if le == "" {
		t.Fatalf("bucket sample without le: %q", line)
	}
	return name + "{" + strings.Join(kept, ",") + "}", le
}

// TestPromWriterFormat runs real observer traffic through the full exposition
// and validates the result with the same checks the CI smoke job applies.
func TestPromWriterFormat(t *testing.T) {
	o := New(Config{})
	start := time.Now()
	for i := 0; i < 50; i++ {
		oc := OutcomeMesh
		if i%10 == 0 {
			oc = OutcomeOracle
		}
		mk(o, int64(i), start, oc,
			[]Stage{StageAdmit, StageQueue, StageMesh},
			[]time.Duration{time.Microsecond, time.Duration(i) * 100 * time.Microsecond, time.Millisecond})
	}
	var e2e Histogram
	for i := 0; i < 50; i++ {
		e2e.Observe(time.Duration(i) * time.Millisecond)
	}
	pw := NewPromWriter()
	pw.Counter("x_total", "A counter.", 3, "label", `quoted "value" with \ and`+"\n")
	pw.Gauge("x_up", "A gauge.", 1)
	pw.Histogram("x_latency_seconds", "A histogram.", e2e.Snapshot())
	pw.WriteObserver("meshserve", o)
	pw.WriteLatencyBurn("meshserve", o, e2e.Snapshot())
	body := string(pw.Bytes())
	checkPromText(t, body)

	for _, want := range []string{
		`meshserve_stage_duration_seconds_bucket{stage="mesh_round",le="+Inf"} 50`,
		`meshserve_requests_total{outcome="mesh"} 45`,
		`meshserve_requests_total{outcome="oracle"} 5`,
		"meshserve_slo_p99_target_seconds 0.05",
		"meshserve_slo_degraded_burn_rate 10", // 5/50 oracle answers over a 1% budget
		"meshserve_slo_latency_burn_rate",
		"meshserve_traces_abandoned_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestHistogramBucketDownsampling pins the octave downsampling: the +Inf
// bucket always equals _count, and the bucket count stays far below the 960
// internal buckets.
func TestHistogramBucketDownsampling(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i) * 37 * time.Microsecond)
	}
	pw := NewPromWriter()
	pw.Histogram("d_seconds", "Downsampled.", h.Snapshot())
	body := string(pw.Bytes())
	checkPromText(t, body)
	n := strings.Count(body, "d_seconds_bucket")
	if n > 70 {
		t.Errorf("%d buckets emitted, want ≤ 70 (octave downsampling)", n)
	}
	if !strings.Contains(body, `d_seconds_bucket{le="+Inf"} 1000`) {
		t.Error("+Inf bucket must equal the observation count")
	}
}

// TestHistogramMergeExact: fixed boundaries make fleet aggregation lossless —
// merged quantiles equal the quantiles of the union stream.
func TestHistogramMergeExact(t *testing.T) {
	var a, b, union Histogram
	for i := 1; i <= 400; i++ {
		d := time.Duration(i*i) * time.Microsecond
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
		union.Observe(d)
	}
	m := a.Snapshot().Merge(b.Snapshot())
	u := union.Snapshot()
	if m.Count != u.Count || m.Sum != u.Sum || m.Max != u.Max {
		t.Fatalf("merge: count/sum/max = %d/%d/%d, want %d/%d/%d",
			m.Count, m.Sum, m.Max, u.Count, u.Sum, u.Max)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if m.Quantile(q) != u.Quantile(q) {
			t.Errorf("q%g: merged %s, union %s", q, m.Quantile(q), u.Quantile(q))
		}
	}
	// Merging with an empty snapshot is the identity, both ways.
	if got := (HistSnapshot{}).Merge(u); got.Count != u.Count {
		t.Error("empty.Merge(u) lost observations")
	}
	if got := u.Merge(HistSnapshot{}); got.Count != u.Count {
		t.Error("u.Merge(empty) lost observations")
	}
}

// TestCountAbove pins the SLO burn numerator's bucket-granular contract:
// exact for values far from the threshold, never overcounting at it.
func TestCountAbove(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond) // all well below threshold
	}
	for i := 0; i < 7; i++ {
		h.Observe(time.Second) // all well above
	}
	s := h.Snapshot()
	if got := s.CountAbove(50 * time.Millisecond); got != 7 {
		t.Errorf("CountAbove(50ms) = %d, want 7", got)
	}
	if got := s.CountAbove(2 * time.Second); got != 0 {
		t.Errorf("CountAbove(2s) = %d, want 0", got)
	}
	if got := s.CountAbove(0); got != int64(s.Count) {
		// Bucket 0 holds only exact zeros; everything observed is above.
		t.Errorf("CountAbove(0) = %d, want %d", got, s.Count)
	}
}

// TestSortedKeys covers the deterministic-iteration helper.
func TestSortedKeys(t *testing.T) {
	got := SortedKeys(map[string]int{"b": 1, "a": 2, "c": 3})
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("SortedKeys = %v", got)
	}
}
