package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

// HTTPTarget drives a remote meshserve over its HTTP surface (the fleet
// handler), so the open-loop harness can measure a server it does not share
// a process (or machine) with. LookupKind and Stats satisfy the Config seam;
// the status→error mapping inverts the /search handler's, so the harness's
// outcome accounting (rejected vs failed vs answered) means the same thing
// in-process and over the wire.
type HTTPTarget struct {
	Base   string // e.g. http://127.0.0.1:8845, no trailing slash
	Client *http.Client
	// Trace enables W3C traceparent propagation: each Lookup mints a trace
	// ID and sends it, so the server-side trace at /debug/traces carries an
	// ID the client chose — the hook for correlating a slow client-side
	// sample with its server-side stage decomposition.
	Trace bool
}

// NewHTTPTarget returns a target for the given base URL. The client pools
// connections with enough idle capacity that the measured path is request
// latency, not handshake latency.
func NewHTTPTarget(base string) *HTTPTarget {
	return &HTTPTarget{
		Base: strings.TrimRight(base, "/"),
		Client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4096,
			MaxIdleConnsPerHost: 4096,
			IdleConnTimeout:     90 * time.Second,
		}},
	}
}

// searchURL renders the kind-typed /search URL from the handler's own
// parameter table (fleet.SearchParams); membership keeps the bare ?key=
// shape so a v1 server can still be driven.
func searchURL(base string, kind serve.Kind, args serve.Args) string {
	var b strings.Builder
	b.WriteString(base)
	b.WriteString("/search?")
	if kind != serve.KindMembership {
		b.WriteString("kind=")
		b.WriteString(kind.String())
		b.WriteByte('&')
	}
	for i, name := range fleet.SearchParams[kind] {
		if i > 0 {
			b.WriteByte('&')
		}
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(args[i], 10))
	}
	return b.String()
}

// LookupKind fires one typed /search query. Statuses map back to the
// serve-layer errors the harness classifies on: 429 → ErrOverloaded
// (rejected), 503 → ErrClosed, 504 → ErrBudgetExhausted (shed), 2xx → the
// decoded Result. Context expiry surfaces as the context's own error so
// deadline accounting matches in-process runs.
func (t *HTTPTarget) LookupKind(ctx context.Context, kind serve.Kind, args serve.Args) (serve.Result, error) {
	url := searchURL(t.Base, kind, args)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return serve.Result{}, err
	}
	if t.Trace {
		req.Header.Set("Traceparent", obs.NewTraceID().Traceparent())
	}
	// Deadline-budget propagation (§3.11): the context deadline travels as an
	// explicit header, so the server-side ladder — fleet budget rung,
	// admission, linger, retries, hedges — sheds work this client would have
	// abandoned anyway, instead of discovering that at response-write time.
	if dl, ok := ctx.Deadline(); ok {
		if budget := time.Until(dl); budget > 0 {
			req.Header.Set(fleet.DeadlineBudgetHeader, budget.String())
		}
	}
	resp, err := t.Client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return serve.Result{}, ctx.Err()
		}
		return serve.Result{}, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return serve.Result{}, serve.ErrOverloaded
	case resp.StatusCode == http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		return serve.Result{}, serve.ErrClosed
	case resp.StatusCode == http.StatusGatewayTimeout:
		// The server shed the lookup with the deadline budget exhausted.
		io.Copy(io.Discard, resp.Body)
		return serve.Result{}, serve.ErrBudgetExhausted
	case resp.StatusCode != http.StatusOK:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return serve.Result{}, fmt.Errorf("loadgen: %s → %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var res serve.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return serve.Result{}, fmt.Errorf("loadgen: bad /search body: %w", err)
	}
	return res, nil
}

// metricsDoc is the slice of /metrics the harness reads.
type metricsDoc struct {
	Serve    serve.Stats `json:"serve"`
	Side     int         `json:"side"`
	Keys     int         `json:"keys"`
	MaxBatch int         `json:"max_batch"`
}

// Stats samples the remote serving counters from /metrics (the "serve"
// document: the fleet's aggregate over its replicas). Best-effort: a failed scrape returns zero stats rather than
// failing the run — the harness then reports sim-steps as 0 for that
// window, which is visible, not silent.
func (t *HTTPTarget) Stats() serve.Stats {
	doc, err := t.scrape(context.Background())
	if err != nil {
		return serve.Stats{}
	}
	return doc.Serve
}

// Probe fetches the remote server's shape — mesh side and key count — which
// gates trace replay (a trace records the shape it was captured against)
// and sizes the popularity draw.
func (t *HTTPTarget) Probe(ctx context.Context) (side, keys int, err error) {
	doc, err := t.scrape(ctx)
	if err != nil {
		return 0, 0, err
	}
	if doc.Side <= 0 || doc.Keys <= 0 {
		return 0, 0, fmt.Errorf("loadgen: %s/metrics reports no side/keys (old server?)", t.Base)
	}
	return doc.Side, doc.Keys, nil
}

func (t *HTTPTarget) scrape(ctx context.Context) (metricsDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.Base+"/metrics", nil)
	if err != nil {
		return metricsDoc{}, err
	}
	resp, err := t.Client.Do(req)
	if err != nil {
		return metricsDoc{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return metricsDoc{}, fmt.Errorf("loadgen: %s/metrics → %d", t.Base, resp.StatusCode)
	}
	var doc metricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return metricsDoc{}, fmt.Errorf("loadgen: bad /metrics body: %w", err)
	}
	return doc, nil
}
