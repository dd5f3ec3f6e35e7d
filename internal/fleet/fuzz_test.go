package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"repro/internal/serve"
)

// FuzzParseSearch feeds a raw /search query string through the handler's
// parse path (url.ParseQuery, serve.ParseKind, ParseSearchArgs). It must
// never panic, and whatever parses must re-encode through SearchParams and
// parse back to the same kind and arguments. The seed corpus
// (testdata/fuzz/FuzzParseSearch) covers every kind, aliases, the int64
// extremes, signs, missing and duplicated parameters, and bad escapes.
func FuzzParseSearch(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as r.URL.Query(): bad pairs are dropped
		kind, err := serve.ParseKind(q.Get("kind"))
		if err != nil {
			return
		}
		args, err := ParseSearchArgs(kind, q)
		if err != nil {
			return
		}
		enc := url.Values{"kind": {kind.String()}}
		for i, name := range SearchParams[kind] {
			enc.Set(name, strconv.FormatInt(args[i], 10))
		}
		q2, err := url.ParseQuery(enc.Encode())
		if err != nil {
			t.Fatalf("re-encoded query %q does not parse: %v", enc.Encode(), err)
		}
		kind2, err := serve.ParseKind(q2.Get("kind"))
		if err != nil || kind2 != kind {
			t.Fatalf("%q: kind %s re-parsed as %v (err %v)", raw, kind, kind2, err)
		}
		args2, err := ParseSearchArgs(kind2, q2)
		if err != nil || args2 != args {
			t.Fatalf("%q: args %v re-parsed as %v (err %v)", raw, args, args2, err)
		}
	})
}

// FuzzDeadlineBudget feeds an X-Deadline-Budget value to WithDeadlineBudget.
// It must never panic, must always return a non-nil cancel, and must set a
// deadline exactly when time.ParseDuration yields a positive duration. The
// seed corpus (testdata/fuzz/FuzzDeadlineBudget) covers empty, zero,
// negative, fractional, overflowing and malformed values.
func FuzzDeadlineBudget(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		r := httptest.NewRequest(http.MethodGet, "/search?key=1", nil)
		r.Header.Set(DeadlineBudgetHeader, v)
		ctx, cancel := WithDeadlineBudget(context.Background(), r)
		if cancel == nil {
			t.Fatalf("%q: nil cancel", v)
		}
		defer cancel()
		d, err := time.ParseDuration(v)
		want := err == nil && d > 0
		if _, got := ctx.Deadline(); got != want {
			t.Fatalf("%q: deadline set = %v, want %v (ParseDuration %v, %v)", v, got, want, d, err)
		}
	})
}
