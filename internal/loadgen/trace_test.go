package loadgen

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func sampleEvents() []TraceEvent {
	return []TraceEvent{
		{I: 0, AtNS: 0, Needle: 3, OK: true, Found: true, Leaf: 3, Steps: 4},
		{I: 1, AtNS: 1500, Needle: 8, OK: true, Found: false, Leaf: 7, Steps: 4},
		{I: 2, AtNS: 4000, Needle: 5}, // rejected: no answer recorded
	}
}

// TestTraceRoundTrip: WriteTrace → ReadTrace is the identity on header and
// events, byte-stable across repeated writes.
func TestTraceRoundTrip(t *testing.T) {
	h := TraceHeader{Workload: "poisson", Side: 8, Keys: 16, Seed: 42}
	events := sampleEvents()
	var buf1, buf2 bytes.Buffer
	if err := WriteTrace(&buf1, h, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&buf2, h, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("trace serialization is not byte-stable")
	}
	gotH, gotE, err := ReadTrace(&buf1)
	if err != nil {
		t.Fatal(err)
	}
	if gotH.Workload != "poisson" || gotH.Side != 8 || gotH.Keys != 16 || gotH.Seed != 42 || gotH.Events != len(events) {
		t.Fatalf("header mangled: %+v", gotH)
	}
	if len(gotE) != len(events) {
		t.Fatalf("read %d events, want %d", len(gotE), len(events))
	}
	for i := range events {
		if gotE[i] != events[i] {
			t.Fatalf("event %d mangled: %+v vs %+v", i, gotE[i], events[i])
		}
	}
}

// TestTraceValidation: wrong kind, truncation, broken ordering all refuse.
func TestTraceValidation(t *testing.T) {
	if _, _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, _, err := ReadTrace(strings.NewReader(`{"kind":"other","version":1}` + "\n")); err == nil {
		t.Fatal("foreign kind accepted")
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, TraceHeader{}, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	truncated := strings.Join(lines[:len(lines)-2], "")
	if _, _, err := ReadTrace(strings.NewReader(truncated)); err == nil {
		t.Fatal("truncated trace accepted")
	}
	// Non-monotone arrival clock.
	events := sampleEvents()
	events[2].AtNS = 100
	buf.Reset()
	if err := WriteTrace(&buf, TraceHeader{}, events); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadTrace(&buf); err == nil {
		t.Fatal("non-monotone trace accepted")
	}
}

// TestReadTraceHeaderCounts: the header's event count comes from the file,
// so a count that no events can match is refused with an error — it must
// not size memory. A negative count used to panic in makeslice, and a
// trillion events used to end the process out of memory.
func TestReadTraceHeaderCounts(t *testing.T) {
	event := `{"i":0,"at_ns":0,"kind":"membership","needle":3,"args":[3,0,0]}` + "\n"
	for _, tc := range []struct {
		name   string
		events int64
		body   string
	}{
		{"negative", -1, ""},
		{"negative with events", -1, event},
		{"a trillion", 1_000_000_000_000, event},
		{"one more than written", 2, event},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := fmt.Sprintf(`{"kind":%q,"version":%d,"events":%d}`, traceKind, traceVersion, tc.events) + "\n" + tc.body
			if _, _, err := ReadTrace(strings.NewReader(in)); err == nil {
				t.Fatalf("trace claiming %d events accepted", tc.events)
			}
		})
	}
}

// TestStripAndCompareAnswers: StripAnswers clears only answers; Compare
// detects every divergence class and passes on the identity.
func TestStripAndCompareAnswers(t *testing.T) {
	rec := sampleEvents()
	stripped := StripAnswers(rec)
	for i, ev := range stripped {
		if ev.OK || ev.Found || ev.Leaf != 0 || ev.Steps != 0 {
			t.Fatalf("stripped event %d keeps answers: %+v", i, ev)
		}
		if ev.I != rec[i].I || ev.AtNS != rec[i].AtNS || ev.Needle != rec[i].Needle {
			t.Fatalf("stripped event %d lost its arrival: %+v", i, ev)
		}
	}
	if n, err := CompareAnswers(rec, rec); n != 0 || err != nil {
		t.Fatalf("identity comparison: %d mismatches, %v", n, err)
	}
	// Recorded-but-unanswered replay event diverges.
	rep := append([]TraceEvent(nil), rec...)
	rep[1].OK = false
	if n, err := CompareAnswers(rec, rep); n != 1 || err == nil {
		t.Fatalf("dropped answer not flagged: %d, %v", n, err)
	}
	// Different membership diverges.
	rep = append([]TraceEvent(nil), rec...)
	rep[0].Found = false
	if n, _ := CompareAnswers(rec, rep); n != 1 {
		t.Fatalf("wrong membership not flagged: %d", n)
	}
	// Different arrival plan diverges even without answers.
	rep = append([]TraceEvent(nil), rec...)
	rep[2].Needle = 999
	if n, _ := CompareAnswers(rec, rep); n != 1 {
		t.Fatalf("changed needle not flagged: %d", n)
	}
	if n, _ := CompareAnswers(rec, rec[:2]); n == 0 {
		t.Fatal("length divergence not flagged")
	}
	// A replay that answered a query the recording could not (e.g. the
	// recording rejected it) is not a divergence: nothing was recorded.
	rep = append([]TraceEvent(nil), rec...)
	rep[2].OK, rep[2].Found = true, true
	if n, err := CompareAnswers(rec, rep); n != 0 || err != nil {
		t.Fatalf("extra replay answer flagged: %d, %v", n, err)
	}
	dig1, dig2 := Digest(rec), Digest(rep)
	if dig1 == dig2 {
		t.Fatal("digest ignores the answered set")
	}
	if Digest(rec) != Digest(append([]TraceEvent(nil), rec...)) {
		t.Fatal("digest not deterministic")
	}
}
