package obs

import (
	"sort"
	"sync"
)

// collector retains completed traces with a tail-biased policy: a bounded
// ring of the most recent traces (whatever their outcome), a second bounded
// ring of "interesting" traces (failovered / oracle-answered / errored —
// the ones a debugging session is actually after), and the slowest-N traces
// seen since start. Healthy high-throughput traffic churns only the recent
// ring; the evidence for an incident survives it.
type collector struct {
	mu      sync.Mutex
	recent  []*ReqTrace // ring, len == cap once warm
	rpos    int
	intr    []*ReqTrace // ring of interesting traces
	ipos    int
	slowest []*ReqTrace // ascending by Dur, ≤ slowN
	slowN   int
}

func (c *collector) init(ring, slowN int) {
	c.recent = make([]*ReqTrace, 0, ring)
	c.intr = make([]*ReqTrace, 0, ring)
	c.slowN = slowN
	c.slowest = make([]*ReqTrace, 0, slowN)
}

// offer admits a finished (immutable) trace.
func (c *collector) offer(tr *ReqTrace, interesting bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.push(&c.recent, &c.rpos, tr)
	if interesting {
		c.push(&c.intr, &c.ipos, tr)
	}
	d := tr.Dur()
	if len(c.slowest) < c.slowN {
		i := sort.Search(len(c.slowest), func(i int) bool { return c.slowest[i].Dur() >= d })
		c.slowest = append(c.slowest, nil)
		copy(c.slowest[i+1:], c.slowest[i:])
		c.slowest[i] = tr
	} else if len(c.slowest) > 0 && d > c.slowest[0].Dur() {
		i := sort.Search(len(c.slowest), func(i int) bool { return c.slowest[i].Dur() >= d })
		copy(c.slowest[:i-1], c.slowest[1:i]) // evict the current fastest
		c.slowest[i-1] = tr
	}
}

func (c *collector) push(ring *[]*ReqTrace, pos *int, tr *ReqTrace) {
	if len(*ring) < cap(*ring) {
		*ring = append(*ring, tr)
		return
	}
	(*ring)[*pos] = tr
	*pos = (*pos + 1) % len(*ring)
}

// snapshot returns the union of the three retention sets, newest first,
// deduplicated (a trace can sit in all three).
func (c *collector) snapshot() []*ReqTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[*ReqTrace]bool, len(c.recent)+len(c.intr)+len(c.slowest))
	out := make([]*ReqTrace, 0, len(c.recent)+len(c.intr)+len(c.slowest))
	for _, set := range [][]*ReqTrace{c.recent, c.intr, c.slowest} {
		for _, tr := range set {
			if tr != nil && !seen[tr] {
				seen[tr] = true
				out = append(out, tr)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].End.After(out[j].End) })
	return out
}

// find returns the retained trace with the given ID, or nil. IDs propagated
// across fleet → replica reuse the same trace object, so first match wins.
func (c *collector) find(id TraceID) *ReqTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, set := range [][]*ReqTrace{c.recent, c.intr, c.slowest} {
		for _, tr := range set {
			if tr != nil && tr.ID == id {
				return tr
			}
		}
	}
	return nil
}
