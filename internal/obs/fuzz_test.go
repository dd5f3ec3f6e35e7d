package obs

import (
	"errors"
	"testing"
)

// FuzzParseTraceparent feeds a traceparent header to ParseTraceparent. It
// must never panic and must fail only with ErrBadTraceparent; an accepted
// header must give a nonzero ID whose own Traceparent parses back to it.
// The seed corpus (testdata/fuzz/FuzzParseTraceparent) covers a valid
// header, a future version with extra fields, the forbidden version ff,
// the all-zero IDs, uppercase hex, and truncated or misplaced dashes.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string) {
		id, err := ParseTraceparent(h)
		if err != nil {
			if !errors.Is(err, ErrBadTraceparent) {
				t.Fatalf("%q: error %v is not ErrBadTraceparent", h, err)
			}
			return
		}
		if id.IsZero() {
			t.Fatalf("%q: accepted with the all-zero trace ID", h)
		}
		back, err := ParseTraceparent(id.Traceparent())
		if err != nil || back != id {
			t.Fatalf("%q: ID %s renders as %q, which parses to %s, %v", h, id, id.Traceparent(), back, err)
		}
	})
}
