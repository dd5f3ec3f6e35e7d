package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the in-memory span log of one traced run; spans past it
// are counted as dropped rather than recorded.
const maxSpans = 1 << 20

// span is one benchmark-side interval around a call into a layer's public
// API: its name (the layer and function), its start and end from the log's
// origin, and the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced runs pay one pointer check per call.
type spanLog struct {
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// id reserves a span ID, so a parent can hand its ID to children before it
// has ended. Returns 0 on a nil log.
func (l *spanLog) id() int64 {
	if l == nil {
		return 0
	}
	return l.nextID.Add(1)
}

// record stores one finished span.
func (l *spanLog) record(id, parent int64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))}
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// layerSelf is one span name's aggregate: how many spans, their total
// duration, and their total self time — duration minus the part of the
// interval covered by child spans.
type layerSelf struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	SelfUS float64 `json:"self_mean_us"`
}

// selfTimes derives each span name's mean duration and mean self time.
func (l *spanLog) selfTimes() []layerSelf {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type acc struct {
		n         int64
		dur, self int64
	}
	by := map[string]*acc{}
	for _, s := range l.spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.n++
		a.dur += s.End - s.Start
		a.self += s.End - s.Start - covered(s, children[s.ID])
	}
	out := make([]layerSelf, 0, len(by))
	for name, a := range by {
		out = append(out, layerSelf{
			Name:   name,
			Count:  a.n,
			MeanUS: float64(a.dur) / float64(a.n) / 1e3,
			SelfUS: float64(a.self) / float64(a.n) / 1e3,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// write stores the spans as JSON lines, preceded by one header line holding
// the run's provenance and the per-layer self times.
func (l *spanLog) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	if err := l.encode(f, header); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func (l *spanLog) encode(w io.Writer, header any) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
