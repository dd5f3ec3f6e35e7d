package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestTraceparentRoundTrip: every minted ID survives header encode/decode.
func TestTraceparentRoundTrip(t *testing.T) {
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		h := id.Traceparent()
		if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
			t.Fatalf("bad traceparent shape: %q", h)
		}
		got, err := ParseTraceparent(h)
		if err != nil {
			t.Fatalf("ParseTraceparent(%q): %v", h, err)
		}
		if got != id {
			t.Fatalf("round trip: %s → %q → %s", id, h, got)
		}
	}
}

// TestNewTraceIDConcurrentFirstUse mints a fresh generator's first IDs from
// several goroutines at once, as a server's first concurrent requests do:
// under -race the seeding must be ordered before every read of it, and the
// IDs must still be unique.
func TestNewTraceIDConcurrentFirstUse(t *testing.T) {
	idState.once = sync.Once{} // an unseeded generator
	const n = 8
	ids := make(chan TraceID, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids <- NewTraceID()
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[TraceID]bool, n)
	for id := range ids {
		if id.IsZero() || seen[id] {
			t.Fatalf("concurrent first mints produced zero or duplicate ID %s", id)
		}
		seen[id] = true
	}
}

// TestNewTraceIDUnique: the counter derivation must never repeat or zero.
func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[TraceID]bool, 1000)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("minted the reserved all-zero ID")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %s after %d mints", id, i)
		}
		seen[id] = true
	}
}

// TestParseTraceparentMalformed: per W3C, malformed headers are rejected (the
// caller then mints a fresh ID rather than failing the request).
func TestParseTraceparentMalformed(t *testing.T) {
	valid := NewTraceID().Traceparent()
	cases := map[string]string{
		"empty":             "",
		"short":             "00-abc",
		"no dashes":         strings.ReplaceAll(valid, "-", "_"),
		"version ff":        "ff" + valid[2:],
		"zero trace id":     "00-00000000000000000000000000000000-0000000000000001-01",
		"uppercase hex":     "00-" + strings.ToUpper(valid[3:35]) + valid[35:],
		"non-hex trace id":  "00-zz" + valid[5:],
		"non-hex parent id": valid[:36] + "zzzzzzzzzzzzzzzz" + valid[52:],
		"non-hex flags":     valid[:53] + "zz",
		"non-hex version":   "0x" + valid[2:],
	}
	for name, h := range cases {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted", name, h)
		}
	}
	// Unknown-but-legal versions are accepted if the layout matches.
	if _, err := ParseTraceparent("42" + valid[2:]); err != nil {
		t.Errorf("version 42 rejected: %v", err)
	}
	// Longer headers (future versions append fields) parse too.
	if _, err := ParseTraceparent(valid + "-extrafield"); err != nil {
		t.Errorf("extended header rejected: %v", err)
	}
}

// TestTraceparentParentIDsDiffer: each header render gets a fresh parent-id
// (the hop identifier), while the trace-id part stays fixed.
func TestTraceparentParentIDsDiffer(t *testing.T) {
	id := NewTraceID()
	h1, h2 := id.Traceparent(), id.Traceparent()
	if h1[:36] != h2[:36] {
		t.Errorf("trace-id part changed between renders: %q vs %q", h1, h2)
	}
	if h1[36:52] == h2[36:52] {
		t.Errorf("parent-id did not rotate: %q vs %q", h1, h2)
	}
}
