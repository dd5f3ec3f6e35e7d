package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"repro/internal/serve"
)

// FuzzParseSearch feeds a raw /search query string through the handler's
// parse path (queryGet, serve.ParseKind, parseSearchQuery). It must never
// panic, and whatever parses must re-encode through SearchParams and parse
// back to the same kind and arguments. The seed corpus
// (testdata/fuzz/FuzzParseSearch) covers every kind, aliases, the int64
// extremes, signs, missing and duplicated parameters, and bad escapes.
func FuzzParseSearch(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		kind, err := serve.ParseKind(queryGet(raw, "kind"))
		if err != nil {
			return
		}
		args, err := parseSearchQuery(kind, raw)
		if err != nil {
			return
		}
		enc := url.Values{"kind": {kind.String()}}
		for i, name := range SearchParams[kind] {
			enc.Set(name, strconv.FormatInt(args[i], 10))
		}
		kind2, err := serve.ParseKind(queryGet(enc.Encode(), "kind"))
		if err != nil || kind2 != kind {
			t.Fatalf("%q: kind %s re-parsed as %v (err %v)", raw, kind, kind2, err)
		}
		args2, err := parseSearchQuery(kind2, enc.Encode())
		if err != nil || args2 != args {
			t.Fatalf("%q: args %v re-parsed as %v (err %v)", raw, args, args2, err)
		}
	})
}

// FuzzSearchQuery checks the handler's raw-query parser against the
// url.Values one it replaced: for any query string, queryGet and
// parseSearchQuery give what url.ParseQuery, Values.Get and
// ParseSearchArgs give — the same kind parameter, and the same arguments
// or the same error. The seed corpus (testdata/fuzz/FuzzSearchQuery)
// covers %-escapes, '+', ';', bad escapes in keys and values, and
// duplicate and empty keys.
func FuzzSearchQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as r.URL.Query(): bad pairs are dropped
		for _, name := range []string{"kind", "key", "x", "y", "lo", "hi", "dx", "dy", "dz", ""} {
			if got, want := queryGet(raw, name), q.Get(name); got != want {
				t.Fatalf("%q: queryGet(%q) = %q, url.Values says %q", raw, name, got, want)
			}
		}
		for kind := serve.Kind(0); kind < serve.NumKinds; kind++ {
			want, werr := ParseSearchArgs(kind, q)
			got, gerr := parseSearchQuery(kind, raw)
			if (werr == nil) != (gerr == nil) || got != want ||
				(werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("%q: %s parsed as %v (err %v), url.Values gives %v (err %v)", raw, kind, got, gerr, want, werr)
			}
		}
	})
}

// FuzzSearchJSON checks the /search answer encoder against encoding/json:
// appendResult must write exactly what a json.Encoder with SetIndent("",
// " ") writes for the same Result — every field, aux and degraded set and
// unset, negative and extreme values, and replica −1 for an oracle
// answer. The seed corpus (testdata/fuzz/FuzzSearchJSON) holds those
// cases for every kind.
func FuzzSearchJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, needle, leaf, value, aux int64, found, degraded bool, steps int32, round int64, replica int) {
		res := Result{
			Result: serve.Result{
				Kind: serve.Kind(kind), Needle: needle, Found: found, LeafKey: leaf, Value: value,
				Aux: aux, Steps: steps, Round: round, Degraded: degraded,
			},
			Replica: replica,
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", " ")
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		if got := appendResult(nil, &res); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendResult wrote\n%s\nencoding/json writes\n%s", got, want.Bytes())
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
