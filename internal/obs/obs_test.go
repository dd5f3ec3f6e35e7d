package obs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// mk builds a finished trace with deterministic, caller-chosen stage
// boundaries: stages[i] lasts durs[i], then Finish closes the deliver span.
func mk(o *Observer, needle int64, start time.Time, outcome Outcome, stages []Stage, durs []time.Duration) *ReqTrace {
	tr := o.Begin(TraceID{}, needle, start)
	now := start
	for i, st := range stages {
		now = now.Add(durs[i])
		tr.MarkAt(st, now)
	}
	o.Finish(tr, outcome, nil)
	return tr
}

// TestTraceSpansPartitionExactly is the §3.9 analogue of the step-partition
// invariant: a finished trace's spans are contiguous — each starts where the
// previous ended, the first at 0 — and sum exactly to the end-to-end
// duration, with no gap and no overlap.
func TestTraceSpansPartitionExactly(t *testing.T) {
	o := New(Config{})
	start := time.Now()
	tr := mk(o, 7, start, OutcomeMesh,
		[]Stage{StageAdmit, StageQueue, StageLinger, StageMesh, StageBackoff, StageMesh},
		[]time.Duration{time.Microsecond, 2 * time.Millisecond, 500 * time.Microsecond,
			3 * time.Millisecond, time.Millisecond, 4 * time.Millisecond})
	checkPartition(t, tr)
	if got := tr.StageTotal(StageMesh); got != 7*time.Millisecond {
		t.Errorf("StageMesh total %s, want 7ms (two attempts summed)", got)
	}
	if !tr.HasStage(StageBackoff) || tr.HasStage(StageOracle) {
		t.Errorf("HasStage wrong: backoff=%v oracle=%v", tr.HasStage(StageBackoff), tr.HasStage(StageOracle))
	}
	if len(tr.Spans) != 7 { // 6 marks + the deliver span Finish appends
		t.Errorf("got %d spans, want 7", len(tr.Spans))
	}
}

// checkPartition asserts the span-partition invariant on one finished trace.
func checkPartition(t *testing.T, tr *ReqTrace) {
	t.Helper()
	if len(tr.Spans) == 0 {
		t.Fatalf("trace %s finished with no spans", tr.ID)
	}
	if tr.Spans[0].Start != 0 {
		t.Errorf("trace %s: first span starts at %s, want 0", tr.ID, tr.Spans[0].Start)
	}
	var sum time.Duration
	for i, s := range tr.Spans {
		if s.End < s.Start {
			t.Errorf("trace %s span %d (%s): negative duration [%s, %s]", tr.ID, i, s.Stage, s.Start, s.End)
		}
		if i > 0 && s.Start != tr.Spans[i-1].End {
			t.Errorf("trace %s span %d (%s): starts at %s, previous ended at %s (gap/overlap)",
				tr.ID, i, s.Stage, s.Start, tr.Spans[i-1].End)
		}
		sum += s.Dur()
	}
	if last := tr.Spans[len(tr.Spans)-1]; last.End != tr.Dur() {
		t.Errorf("trace %s: last span ends at %s, e2e is %s", tr.ID, last.End, tr.Dur())
	}
	if sum != tr.Dur() {
		t.Errorf("trace %s: spans sum to %s, e2e is %s", tr.ID, sum, tr.Dur())
	}
}

// TestMarkClampsClockSkew pins the cross-goroutine skew rule: a mark whose
// clock reading precedes the cursor yields a zero-length span, never a
// negative one, and the partition stays exact.
func TestMarkClampsClockSkew(t *testing.T) {
	o := New(Config{})
	start := time.Now()
	tr := o.Begin(TraceID{}, 1, start)
	tr.MarkAt(StageAdmit, start.Add(time.Millisecond))
	tr.MarkAt(StageQueue, start.Add(500*time.Microsecond)) // earlier than cursor
	tr.MarkAt(StageMesh, start.Add(2*time.Millisecond))
	o.Finish(tr, OutcomeMesh, nil)
	if d := tr.Spans[1].Dur(); d != 0 {
		t.Errorf("skewed span lasted %s, want clamped 0", d)
	}
	checkPartition(t, tr)
}

// TestObserverCountsOutcomesAndStages checks the aggregate side: per-outcome
// counters, per-stage histogram sums, and the begun/abandoned ledger.
func TestObserverCountsOutcomesAndStages(t *testing.T) {
	o := New(Config{})
	start := time.Now()
	mk(o, 1, start, OutcomeMesh, []Stage{StageAdmit, StageMesh}, []time.Duration{time.Millisecond, time.Millisecond})
	mk(o, 2, start, OutcomeMesh, []Stage{StageAdmit, StageMesh}, []time.Duration{time.Millisecond, time.Millisecond})
	mk(o, 3, start, OutcomeOracle, []Stage{StageAdmit, StageOracle}, []time.Duration{time.Millisecond, time.Millisecond})
	o.Abandon(o.Begin(TraceID{}, 4, start))

	if got := o.OutcomeCount(OutcomeMesh); got != 2 {
		t.Errorf("mesh outcomes %d, want 2", got)
	}
	if got := o.OutcomeCount(OutcomeOracle); got != 1 {
		t.Errorf("oracle outcomes %d, want 1", got)
	}
	if o.Begun() != 4 || o.Abandoned() != 1 {
		t.Errorf("begun %d abandoned %d, want 4/1", o.Begun(), o.Abandoned())
	}
	snap := o.Stages()
	if snap.Count[StageAdmit] != 3 || snap.SumNS[StageAdmit] != 3*int64(time.Millisecond) {
		t.Errorf("admit stage count=%d sum=%d, want 3 / 3ms", snap.Count[StageAdmit], snap.SumNS[StageAdmit])
	}
	if snap.Count[StageOracle] != 1 {
		t.Errorf("oracle stage count=%d, want 1", snap.Count[StageOracle])
	}
	// The abandoned trace was dropped, not retained.
	if got := len(o.Traces()); got != 3 {
		t.Errorf("retained %d traces, want 3 (abandoned not retained)", got)
	}
}

// TestRingTailBias pins the retention policy: churning the recent ring with
// healthy traffic must not evict the interesting traces or the slowest-N.
func TestRingTailBias(t *testing.T) {
	o := New(Config{Ring: 4, SlowN: 2})
	start := time.Now()

	slow := mk(o, 100, start, OutcomeMesh, []Stage{StageMesh}, []time.Duration{time.Second})
	bad := mk(o, 101, start, OutcomeFailover, []Stage{StageMesh}, []time.Duration{time.Millisecond})
	// 40 fast healthy traces — 10× the recent ring.
	for i := 0; i < 40; i++ {
		mk(o, int64(i), start.Add(time.Duration(i)*time.Millisecond), OutcomeMesh,
			[]Stage{StageMesh}, []time.Duration{time.Microsecond})
	}

	if o.Find(slow.ID) == nil {
		t.Error("slowest trace evicted by recent-ring churn")
	}
	if o.Find(bad.ID) == nil {
		t.Error("failover trace evicted by recent-ring churn")
	}
	got := o.Traces()
	// recent(4) + interesting(bad) + slowest(slow, bad or another) — bounded,
	// deduplicated, newest first.
	if len(got) > 4+2+2 {
		t.Errorf("snapshot has %d traces, want ≤ 8 (bounded)", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].End.After(got[i-1].End) {
			t.Errorf("snapshot not newest-first at %d", i)
		}
	}
}

// TestFindReturnsRetainedTrace covers lookup by ID and the miss path.
func TestFindReturnsRetainedTrace(t *testing.T) {
	o := New(Config{})
	tr := mk(o, 5, time.Now(), OutcomeMesh, []Stage{StageMesh}, []time.Duration{time.Millisecond})
	if got := o.Find(tr.ID); got != tr {
		t.Fatalf("Find(%s) = %v, want the retained trace", tr.ID, got)
	}
	if got := o.Find(NewTraceID()); got != nil {
		t.Fatalf("Find(unknown) = %v, want nil", got)
	}
}

// TestBeginAdoptsParentID pins W3C propagation: a non-zero parent becomes the
// trace's ID; a zero parent mints a fresh one.
func TestBeginAdoptsParentID(t *testing.T) {
	o := New(Config{})
	parent := NewTraceID()
	tr := o.Begin(parent, 1, time.Now())
	if tr.ID != parent {
		t.Errorf("trace ID %s, want adopted parent %s", tr.ID, parent)
	}
	tr2 := o.Begin(TraceID{}, 1, time.Now())
	if tr2.ID.IsZero() || tr2.ID == parent {
		t.Errorf("zero parent minted ID %s (parent %s)", tr2.ID, parent)
	}
}

// TestFinishRecordsErrAndOutcome covers the error-path bookkeeping.
func TestFinishRecordsErrAndOutcome(t *testing.T) {
	o := New(Config{})
	tr := o.Begin(TraceID{}, 9, time.Now())
	tr.Mark(StageAdmit)
	o.Finish(tr, OutcomeError, errors.New("mesh step budget exhausted"))
	if tr.Outcome != OutcomeError || tr.Err != "mesh step budget exhausted" {
		t.Errorf("outcome=%s err=%q", tr.Outcome, tr.Err)
	}
	if o.Find(tr.ID) == nil {
		t.Error("errored trace is interesting; must be retained")
	}
}

// TestContextCarriesTraceAndParent covers both context channels: the live
// *ReqTrace handoff (fleet → instance) and the propagated parent ID
// (HTTP handler → Lookup).
func TestContextCarriesTraceAndParent(t *testing.T) {
	o := New(Config{})
	ctx := context.Background()
	if FromContext(ctx) != nil || !ParentFromContext(ctx).IsZero() {
		t.Fatal("empty context must carry neither trace nor parent")
	}
	tr := o.Begin(TraceID{}, 1, time.Now())
	if got := FromContext(NewContext(ctx, tr)); got != tr {
		t.Errorf("FromContext = %v, want %v", got, tr)
	}
	id := NewTraceID()
	if got := ParentFromContext(ContextWithParent(ctx, id)); got != id {
		t.Errorf("ParentFromContext = %s, want %s", got, id)
	}
}

// TestStageAndOutcomeNames pins the wire names (Prometheus label values and
// JSON fields are built from them — renames are breaking changes).
func TestStageAndOutcomeNames(t *testing.T) {
	wantStages := []string{"admit", "queue_wait", "batch_linger", "mesh_round",
		"retry_backoff", "failover_hop", "oracle_fallback", "deliver"}
	for i, w := range wantStages {
		if got := Stage(i).String(); got != w {
			t.Errorf("Stage(%d) = %q, want %q", i, got, w)
		}
	}
	if got := StageNames(); len(got) != int(numStages) {
		t.Errorf("StageNames has %d entries, want %d", len(got), numStages)
	}
	wantOutcomes := []string{"mesh", "failover", "oracle", "rejected", "error", "closed"}
	for i, w := range wantOutcomes {
		if got := Outcome(i).String(); got != w {
			t.Errorf("Outcome(%d) = %q, want %q", i, got, w)
		}
	}
	if Stage(200).String() != "unknown" || Outcome(200).String() != "unknown" {
		t.Error("out-of-range enums must stringify as unknown")
	}
}

// TestConfigDefaults pins New's zero-value defaulting.
func TestConfigDefaults(t *testing.T) {
	o := New(Config{})
	p99, maxDeg := o.SLO()
	if p99 != 50*time.Millisecond || maxDeg != 0.01 {
		t.Errorf("default SLO = (%s, %g), want (50ms, 0.01)", p99, maxDeg)
	}
	o2 := New(Config{Ring: 2, SlowN: 100})
	if o2.ring.slowN > 2 {
		t.Errorf("SlowN %d not clamped to Ring", o2.ring.slowN)
	}
}

// TestRingConcurrentOffer exercises the collector under parallel Finish —
// run with -race.
func TestRingConcurrentOffer(t *testing.T) {
	o := New(Config{Ring: 8, SlowN: 4})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			start := time.Now()
			for i := 0; i < 200; i++ {
				oc := OutcomeMesh
				if i%17 == 0 {
					oc = OutcomeFailover
				}
				mk(o, int64(g*1000+i), start, oc, []Stage{StageMesh},
					[]time.Duration{time.Duration(i%7+1) * time.Millisecond})
				if i%13 == 0 {
					o.Traces()
					o.Stages()
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if got := o.OutcomeCount(OutcomeMesh) + o.OutcomeCount(OutcomeFailover); got != 800 {
		t.Errorf("counted %d finishes, want 800", got)
	}
}

// TestLinkRun pins the step-clock cross-link fields.
func TestLinkRun(t *testing.T) {
	o := New(Config{})
	tr := o.Begin(TraceID{}, 1, time.Now())
	tr.LinkRun(3, "serve round 3 [retry 1]")
	if tr.RunSeq != 3 || tr.RunLabel != "serve round 3 [retry 1]" {
		t.Errorf("LinkRun stored seq=%d label=%q", tr.RunSeq, tr.RunLabel)
	}
}

func ExampleReqTrace_partition() {
	o := New(Config{})
	start := time.Unix(0, 0)
	tr := o.Begin(TraceID{}, 42, start)
	tr.MarkAt(StageAdmit, start.Add(1*time.Millisecond))
	tr.MarkAt(StageQueue, start.Add(3*time.Millisecond))
	tr.MarkAt(StageMesh, start.Add(10*time.Millisecond))
	var sum time.Duration
	for _, s := range tr.Spans {
		sum += s.Dur()
	}
	fmt.Println(sum == 10*time.Millisecond)
	// Output: true
}
