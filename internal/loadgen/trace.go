package loadgen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/serve"
)

// TraceHeader is the first JSONL line of a workload trace: enough context to
// refuse a replay against the wrong server shape.
type TraceHeader struct {
	Kind     string `json:"kind"` // always traceKind
	Version  int    `json:"version"`
	Workload string `json:"workload"` // poisson | burst
	Side     int    `json:"side"`
	Keys     int    `json:"keys"`
	Seed     int64  `json:"seed"`
	Events   int    `json:"events"`
	// Kinds is the query-kind mix the trace was generated with (v2; empty
	// means membership only — which is what every v1 trace was).
	Kinds string `json:"kinds,omitempty"`
}

const (
	traceKind = "meshserve-workload-trace"
	// traceVersion is the version WriteTrace emits. v1 recorded membership
	// queries and answers only; v2 adds the query kind, its typed arguments,
	// the kind-generic Value/Aux answer, and the per-query outcome. ReadTrace
	// accepts both — a v1 trace reads back as membership-kind events.
	traceVersion   = 2
	traceVersionV1 = 1
)

// TraceEvent is one arrival: its offset on the open-loop clock, its query
// kind and arguments, and — once the run has answered it — the recorded
// answer plus how the arrival fared. Replay re-fires the same queries on the
// same clock and compares its answers to these.
type TraceEvent struct {
	I      int        `json:"i"`
	AtNS   int64      `json:"at_ns"`
	Kind   serve.Kind `json:"kind,omitempty"` // zero value = membership (v1 traces)
	Needle int64      `json:"needle"`
	Args   serve.Args `json:"args"`

	// Answer fields, filled by Run. OK means the query was answered by the
	// server (mesh-served or degraded); rejected/shed/failed arrivals keep
	// OK=false and are excluded from the answer stream. Value is the kind's
	// primary answer (for membership it equals Leaf, kept for v1 traces).
	OK    bool  `json:"ok,omitempty"`
	Found bool  `json:"found,omitempty"`
	Leaf  int64 `json:"leaf,omitempty"`
	Value int64 `json:"value,omitempty"`
	Aux   int64 `json:"aux,omitempty"`
	Steps int32 `json:"steps,omitempty"`
	// Outcome is the arrival's fate (ok | degraded | rejected | shed |
	// failed), folded into the v2 digest so two runs that produced the same
	// answers by different paths no longer hash identically.
	Outcome string `json:"outcome,omitempty"`
}

// WriteTrace emits the header and one event per line as JSONL (always the
// current trace version).
func WriteTrace(w io.Writer, h TraceHeader, events []TraceEvent) error {
	h.Kind = traceKind
	h.Version = traceVersion
	h.Events = len(events)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("loadgen: write trace header: %w", err)
	}
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("loadgen: write trace event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSONL trace written by WriteTrace. Both trace versions
// are readable: a v1 trace (membership only, no outcomes) comes back as
// membership-kind events with Args and Value filled from its needle/leaf
// fields, so replay and digesting work uniformly downstream.
func ReadTrace(r io.Reader) (TraceHeader, []TraceEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		return TraceHeader{}, nil, fmt.Errorf("loadgen: empty trace")
	}
	var h TraceHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return TraceHeader{}, nil, fmt.Errorf("loadgen: bad trace header: %w", err)
	}
	if h.Kind != traceKind || (h.Version != traceVersion && h.Version != traceVersionV1) {
		return TraceHeader{}, nil, fmt.Errorf("loadgen: not a v%d/v%d %s (got kind %q version %d)",
			traceVersionV1, traceVersion, traceKind, h.Kind, h.Version)
	}
	if h.Events < 0 {
		return TraceHeader{}, nil, fmt.Errorf("loadgen: bad trace header: %d events", h.Events)
	}
	// The header's count is checked against the events read, never trusted
	// to size memory: a file from outside the program can claim any count.
	var events []TraceEvent
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return TraceHeader{}, nil, fmt.Errorf("loadgen: bad trace event %d: %w", len(events), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return TraceHeader{}, nil, fmt.Errorf("loadgen: read trace: %w", err)
	}
	if len(events) != h.Events {
		return TraceHeader{}, nil, fmt.Errorf("loadgen: trace truncated: header says %d events, read %d", h.Events, len(events))
	}
	for i := range events {
		ev := &events[i]
		if ev.I != i {
			return TraceHeader{}, nil, fmt.Errorf("loadgen: trace event order broken at %d (got index %d)", i, ev.I)
		}
		if ev.AtNS < 0 || (i > 0 && ev.AtNS < events[i-1].AtNS) {
			return TraceHeader{}, nil, fmt.Errorf("loadgen: trace arrival clock not monotone at event %d", i)
		}
		if h.Version == traceVersionV1 {
			// Normalize v1 shape to v2 semantics: membership kind, the
			// needle as the single typed argument, the leaf as Value, and
			// the outcome reconstructed from the answer bit (v1 did not
			// distinguish degraded; ok is the faithful upper bound).
			ev.Kind = serve.KindMembership
			ev.Args = serve.Args{ev.Needle}
			if ev.OK {
				ev.Value = ev.Leaf
				if ev.Outcome == "" {
					ev.Outcome = "ok"
				}
			}
		}
	}
	return h, events, nil
}

// StripAnswers returns a copy of events with the answer fields cleared — the
// replay input, leaving the recorded answers untouched for comparison.
func StripAnswers(events []TraceEvent) []TraceEvent {
	out := make([]TraceEvent, len(events))
	for i, ev := range events {
		out[i] = TraceEvent{I: ev.I, AtNS: ev.AtNS, Kind: ev.Kind, Needle: ev.Needle, Args: ev.Args}
	}
	return out
}

// CompareAnswers checks a replayed answer stream against the recorded one,
// returning the number of diverging events and a description of the first.
// Every recorded answer must be reproduced exactly (kind, arguments, found,
// value, path length); an arrival the replay failed to get answered counts
// as a divergence too. Outcomes are deliberately not compared — a recorded
// mesh answer replayed through the fleet's oracle rung is the same answer
// (that difference lives in the digest, not in replay verification).
func CompareAnswers(recorded, replayed []TraceEvent) (int, error) {
	if len(recorded) != len(replayed) {
		return 1, fmt.Errorf("event count differs: recorded %d, replayed %d", len(recorded), len(replayed))
	}
	mismatches := 0
	var first error
	for i := range recorded {
		rec, rep := recorded[i], replayed[i]
		if rec.Kind != rep.Kind || rec.Args != rep.Args || rec.Needle != rep.Needle || rec.AtNS != rep.AtNS {
			mismatches++
			if first == nil {
				first = fmt.Errorf("event %d: arrival differs (%s %v@%dns vs %s %v@%dns)",
					i, rec.Kind, rec.Args, rec.AtNS, rep.Kind, rep.Args, rep.AtNS)
			}
			continue
		}
		if !rec.OK {
			continue // nothing recorded to reproduce
		}
		if !rep.OK || rec.Found != rep.Found || rec.Value != rep.Value || rec.Leaf != rep.Leaf || rec.Steps != rep.Steps {
			mismatches++
			if first == nil {
				first = fmt.Errorf("event %d (%s %v): recorded ok=%v found=%v value=%d steps=%d, replayed ok=%v found=%v value=%d steps=%d",
					i, rec.Kind, rec.Args, rec.OK, rec.Found, rec.Value, rec.Steps,
					rep.OK, rep.Found, rep.Value, rep.Steps)
			}
		}
	}
	return mismatches, first
}
