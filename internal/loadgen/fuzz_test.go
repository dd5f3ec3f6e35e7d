package loadgen

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// FuzzParseSchedule feeds a -rate value to ParseSchedule. It must never
// panic, and an accepted schedule must validate, offer only finite rates
// and last a positive time. The seed corpus (testdata/fuzz/FuzzParseSchedule)
// covers constant and multi-phase plans, silences, malformed entries, NaN
// and infinite rates, and totals past time.Duration's range.
func FuzzParseSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec, time.Second)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%q: accepted schedule does not validate: %v", spec, err)
		}
		for i, p := range s {
			if math.IsNaN(p.Rate) || math.IsInf(p.Rate, 0) {
				t.Fatalf("%q: phase %d has rate %g", spec, i, p.Rate)
			}
		}
		if s.Total() <= 0 {
			t.Fatalf("%q: accepted schedule lasts %v", spec, s.Total())
		}
	})
}

// FuzzParseKindMix feeds a -kinds value to ParseKindMix. It must never
// panic; an accepted mix must have finite, nondecreasing cumulative weights
// ending at 1, and its String form must parse back to the same kinds in the
// same order. The seed corpus (testdata/fuzz/FuzzParseKindMix) covers bare
// names, aliases, unnormalized weights, NaN and infinite weights, and sums
// that overflow or swamp a weight.
func FuzzParseKindMix(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseKindMix(spec)
		if err != nil {
			return
		}
		prev := 0.0
		for i, c := range m.cum {
			if math.IsNaN(c) || math.IsInf(c, 0) || c < prev {
				t.Fatalf("%q: cumulative weights %v are not finite and nondecreasing at %d", spec, m.cum, i)
			}
			prev = c
		}
		if prev != 1 {
			t.Fatalf("%q: cumulative weights %v end at %g, want 1", spec, m.cum, prev)
		}
		back, err := ParseKindMix(m.String())
		if err != nil {
			t.Fatalf("%q: String() %q does not parse: %v", spec, m.String(), err)
		}
		if !slices.Equal(back.Kinds(), m.Kinds()) {
			t.Fatalf("%q: String() %q parses to kinds %v, want %v", spec, m.String(), back.Kinds(), m.Kinds())
		}
	})
}

// FuzzReadTrace feeds a trace file to ReadTrace, as meshserve -trace-in
// reads one from outside the program. It must never panic, and a trace it
// accepts must round-trip: WriteTrace of what was read reads back to the
// same header (at the current version) and the same events. The seed
// corpus (testdata/fuzz/FuzzReadTrace) holds v1 and v2 traces, negative
// and huge event counts, blank lines, out-of-order indices, a
// non-monotone arrival clock and an unknown kind; the line past the
// reader's 1 MiB limit is added here rather than committed.
func FuzzReadTrace(f *testing.F) {
	f.Add(`{"kind":"meshserve-workload-trace","version":2,"events":1}` + "\n" +
		`{"i":0,"at_ns":0,"needle":1,"args":[1,0,0],"note":"` + strings.Repeat("x", 1<<20) + `"}` + "\n")
	f.Fuzz(func(t *testing.T, in string) {
		h, events, err := ReadTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, h, events); err != nil {
			t.Fatalf("accepted trace does not write: %v", err)
		}
		h2, events2, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("written trace does not read back: %v\n%s", err, buf.Bytes())
		}
		want := h
		want.Version = traceVersion
		if h2 != want {
			t.Fatalf("header read back as %+v, want %+v", h2, want)
		}
		if !slices.Equal(events, events2) {
			t.Fatalf("events read back as %+v, want %+v", events2, events)
		}
	})
}
