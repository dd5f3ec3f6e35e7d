package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/mesh"
)

// int64Key is the order-preserving sort word of a signed test value.
func int64Key(x int64) uint64 { return uint64(x) ^ 1<<63 }

// tracedWorkload runs a fully-instrumented workload with two levels of
// nested RunParallel plus a RunSequential, so the span tree exercises every
// fork/merge path the mesh has.
func tracedWorkload(m *mesh.Mesh) {
	v := m.Root()
	r := mesh.NewReg[int64](m)
	done := Span(v, "workload")
	func() {
		defer Span(v, "setup")()
		mesh.Apply(v, r, func(i int, cur *int64) { *cur = int64(i % 13) })
		mesh.Sort(v, r, int64Key)
	}()
	func() {
		defer Span(v, "parallel")()
		v.RunParallel(v.Partition(2, 2), func(idx int, sub mesh.View) {
			defer Span(sub, "quadrant")()
			mesh.Sort(sub, r, int64Key)
			sub.RunParallel(sub.Partition(2, 2), func(j int, ss mesh.View) {
				defer Span(ss, "tile")()
				mesh.Scan(ss, r, func(a, b int64) int64 { return a + b })
				if idx == 0 && j == 0 {
					// Extra work: make one inner tile the critical path.
					mesh.Sort(ss, r, int64Key)
				}
			})
		})
	}()
	func() {
		defer Span(v, "sequential")()
		v.RunSequential(v.Partition(4, 1), func(_ int, sub mesh.View) {
			defer Span(sub, "stripe")()
			mesh.Scan(sub, r, func(a, b int64) int64 { return a + b })
		})
	}()
	done()
}

// checkTree verifies the structural invariant: children lie inside their
// parent's window, in non-overlapping clock order.
func checkTree(t *testing.T, s *Node, path string) {
	t.Helper()
	if s.End < s.Start {
		t.Errorf("%s/%s: End %d < Start %d", path, s.Name, s.End, s.Start)
	}
	cursor := s.Start
	var subSteps int64
	for _, c := range s.Sub {
		if c.Start < cursor {
			t.Errorf("%s/%s: child %s starts at %d before cursor %d (overlap)", path, s.Name, c.Name, c.Start, cursor)
		}
		if c.End > s.End {
			t.Errorf("%s/%s: child %s ends at %d after parent end %d", path, s.Name, c.Name, c.End, s.End)
		}
		cursor = c.End
		subSteps += c.Steps()
		checkTree(t, c, path+"/"+s.Name)
	}
	if subSteps > s.Steps() {
		t.Errorf("%s/%s: children total %d > span %d", path, s.Name, subSteps, s.Steps())
	}
	if prof := s.Prof.TotalSteps(); prof != s.Steps() {
		t.Errorf("%s/%s: profile delta %d steps != span duration %d", path, s.Name, prof, s.Steps())
	}
}

// The acceptance invariant: the root span covers exactly Mesh.Steps(), and
// child spans partition their parents along the critical path.
func TestSpanTotalsSumToStepsUnderNestedRunParallel(t *testing.T) {
	tr := New()
	m := mesh.New(16, mesh.WithTracer(tr))
	tracedWorkload(m)

	runs := tr.Runs()
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	r := runs[0]
	if r.End != m.Steps() {
		t.Fatalf("run end %d != Mesh.Steps() %d", r.End, m.Steps())
	}
	if len(r.Spans) != 1 || r.Spans[0].Name != "workload" {
		t.Fatalf("top-level spans %v, want single workload span", r.Spans)
	}
	root := r.Spans[0]
	if root.Steps() != m.Steps() {
		t.Fatalf("root span %d steps != Mesh.Steps() %d", root.Steps(), m.Steps())
	}
	checkTree(t, root, "")

	// The phase table's self column partitions the clock exactly.
	var selfSum int64
	for _, row := range PhaseRows(r) {
		selfSum += row.Self
	}
	if selfSum != m.Steps() {
		t.Fatalf("phase self sum %d != Mesh.Steps() %d", selfSum, m.Steps())
	}
}

// Only the critical-path (max-cost) submesh's spans may survive a
// RunParallel merge; spans from cheaper submeshes are discarded.
func TestCriticalPathMergeDiscardsCheapSubmeshSpans(t *testing.T) {
	tr := New()
	m := mesh.New(16, mesh.WithTracer(tr))
	v := m.Root()
	r := mesh.NewReg[int64](m)
	v.RunParallel(v.Partition(2, 2), func(idx int, sub mesh.View) {
		if idx == 1 {
			defer Span(sub, "expensive")()
			mesh.Sort(sub, r, int64Key)
		} else {
			defer Span(sub, "cheap")()
			sub.Charge(1)
		}
	})
	runs := tr.Runs()
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	var names []string
	for _, s := range runs[0].Spans {
		names = append(names, s.Name)
	}
	if len(names) != 1 || names[0] != "expensive" {
		t.Fatalf("surviving spans %v, want [expensive]", names)
	}
	if got := runs[0].Spans[0].Steps(); got != m.Steps() {
		t.Fatalf("surviving span %d steps, want Steps() %d", got, m.Steps())
	}
}

// ResetSteps starts a fresh run: spans before the reset stay with the old
// clock, and the new run's spans start from zero again.
func TestResetStepsStartsFreshRun(t *testing.T) {
	tr := New()
	m := mesh.New(8, mesh.WithTracer(tr))
	v := m.Root()
	func() {
		defer Span(v, "before")()
		v.Charge(7)
	}()
	m.ResetSteps()
	v = m.Root() // the old view's sink was replaced by the reset
	func() {
		defer Span(v, "after")()
		v.Charge(3)
	}()
	runs := tr.Runs()
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	if runs[0].Spans[0].Name != "before" || runs[0].End != 7 {
		t.Fatalf("run 1: %s end %d, want before/7", runs[0].Spans[0].Name, runs[0].End)
	}
	if runs[1].Spans[0].Name != "after" || runs[1].End != 3 || runs[1].Spans[0].Start != 0 {
		t.Fatalf("run 2: %+v, want after starting at 0 ending at 3", runs[1].Spans[0])
	}
}

// A Handle obtained from the mesh's current run must tag that run and only
// that run — the serving layer's marker for retry and canary rounds — and
// survive a following reset.
func TestHandleTagsItsOwnRun(t *testing.T) {
	tr := New()
	m := mesh.New(8, mesh.WithTracer(tr))
	v := m.Root()
	func() {
		defer Span(v, "round")()
		v.Charge(2)
	}()
	m.ResetSteps()
	h, ok := HandleFor(m.TraceRun())
	if !ok {
		t.Fatal("HandleFor failed on a traced mesh")
	}
	h.Tag("retry 1 audited")
	v = m.Root()
	func() {
		defer Span(v, "round")()
		v.Charge(2)
	}()
	m.ResetSteps() // a later attach must not steal the tag target
	runs := tr.Runs()
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	if strings.Contains(runs[0].Label, "[retry 1 audited]") {
		t.Fatalf("tag leaked onto the pre-reset run: %q", runs[0].Label)
	}
	if !strings.Contains(runs[1].Label, "[retry 1 audited]") {
		t.Fatalf("tag missing from the tagged run: %q", runs[1].Label)
	}
	if h.Seq() != 2 || runs[1].Seq != 2 {
		t.Fatalf("handle seq %d / run seq %d, want 2", h.Seq(), runs[1].Seq)
	}
	if h.Label() != runs[1].Label {
		t.Fatalf("handle label %q != run label %q", h.Label(), runs[1].Label)
	}
}

// The zero Handle (no tracer installed) must be inert, and HandleFor must
// reject foreign contexts.
func TestHandleZeroValueInert(t *testing.T) {
	var h Handle
	h.Tag("ignored") // must not panic
	if h.Seq() != 0 || h.Label() != "" {
		t.Fatalf("zero handle leaked state: seq=%d label=%q", h.Seq(), h.Label())
	}
	if _, ok := HandleFor(nil); ok {
		t.Fatal("HandleFor(nil) succeeded")
	}
}

// The race the Handle API exists to kill: two goroutines tagging the runs of
// two meshes that share one Tracer, interleaved with fresh attaches. Under
// the old most-recently-attached heuristic the tags land on whichever run
// attached last (and -race flags the label append); with handles each tag
// must land on its own goroutine's run. Run with -race.
func TestHandleTagConcurrentRuns(t *testing.T) {
	tr := New()
	const rounds = 50
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := mesh.New(8, mesh.WithTracer(tr))
			for i := 0; i < rounds; i++ {
				m.ResetSteps()
				h, ok := HandleFor(m.TraceRun())
				if !ok {
					t.Error("HandleFor failed")
					return
				}
				tag := fmt.Sprintf("g%d-%d", g, i)
				h.Tag(tag)
				v := m.Root()
				func() {
					defer Span(v, "round")()
					v.Charge(1)
				}()
				if lbl := h.Label(); !strings.Contains(lbl, "["+tag+"]") {
					t.Errorf("tag %q landed elsewhere: run label %q", tag, lbl)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Every tagged run retained exactly its own tag.
	tagged := 0
	for _, r := range tr.Runs() {
		if n := strings.Count(r.Label, "["); n > 1 {
			t.Fatalf("run %q carries %d tags, want ≤1", r.Label, n)
		} else if n == 1 {
			tagged++
		}
	}
	if tagged != 2*rounds {
		t.Fatalf("%d tagged runs retained, want %d", tagged, 2*rounds)
	}
}

// The Chrome export must be valid JSON in trace-event format with one
// complete event per span and durations in step time.
func TestWriteChromeProducesValidTraceEvents(t *testing.T) {
	tr := New()
	m := mesh.New(16, mesh.WithTracer(tr))
	tracedWorkload(m)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   *int64 `json:"ts"`
			Dur  *int64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var complete, meta int
	var rootDur int64
	for _, e := range decoded.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			if e.Dur == nil || e.Ts == nil {
				t.Fatalf("complete event %q missing ts/dur", e.Name)
			}
			if e.Name == "workload" {
				rootDur = *e.Dur
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	if complete == 0 || meta == 0 {
		t.Fatalf("complete=%d meta=%d, want both > 0", complete, meta)
	}
	if rootDur != m.Steps() {
		t.Fatalf("workload event dur %d != Steps() %d", rootDur, m.Steps())
	}
}

func TestPhaseTableRendering(t *testing.T) {
	tr := New()
	tr.SetPrefix("T1")
	m := mesh.New(16, mesh.WithTracer(tr))
	tracedWorkload(m)
	var buf bytes.Buffer
	WritePhaseTable(&buf, tr.Runs())
	out := buf.String()
	for _, want := range []string{"T1 run#1 16x16", "workload", "workload/parallel/quadrant", "TOTAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("phase table missing %q:\n%s", want, out)
		}
	}
	var csvBuf bytes.Buffer
	WritePhaseCSV(&csvBuf, tr.Runs())
	if !strings.Contains(csvBuf.String(), "run,phase,calls,steps,self,top_op") {
		t.Errorf("phase CSV missing header:\n%s", csvBuf.String())
	}
}

// The live snapshot must be readable mid-run and reflect the span path.
func TestLiveSnapshot(t *testing.T) {
	tr := New()
	m := mesh.New(8, mesh.WithTracer(tr))
	v := m.Root()
	end := Span(v, "outer")
	v.Charge(5)
	inner := Span(v, "inner")
	live := tr.Live()
	if live.Runs != 1 || live.SpansOpen != 2 {
		t.Fatalf("live %+v, want 1 run / 2 spans", live)
	}
	if !strings.HasSuffix(live.SpanPath, "outer/inner") {
		t.Fatalf("span path %q, want .../outer/inner", live.SpanPath)
	}
	if live.StepClock != 5 {
		t.Fatalf("step clock %d, want 5", live.StepClock)
	}
	inner()
	end()
	if got := tr.Live().StepClock; got != m.Steps() {
		t.Fatalf("final clock %d != Steps() %d", got, m.Steps())
	}
}
