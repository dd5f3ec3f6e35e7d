package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// StatusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the client disconnected before the round answered. There is no
// standard code for it, and 500 would charge a client disconnect to the
// server's error accounting.
const StatusClientClosedRequest = 499

// DeadlineBudgetHeader carries the client's remaining deadline budget as a
// Go duration string (e.g. "250ms"): loadgen.HTTPTarget sets it from its
// per-query context, the /search handler parses it into a server-side
// deadline, and every budget rung below — fleet failover, admission,
// linger, retry ladder — then sees the same budget the client is holding
// (DESIGN.md §3.11). Without it a remote server cannot shed doomed work:
// the client's deadline is invisible across the wire.
const DeadlineBudgetHeader = "X-Deadline-Budget"

// WithDeadlineBudget applies an incoming deadline-budget header to ctx.
// Absent or malformed headers leave ctx unchanged (the returned cancel is
// then a no-op but always non-nil, so callers can defer it unconditionally).
func WithDeadlineBudget(ctx context.Context, r *http.Request) (context.Context, context.CancelFunc) {
	if v := r.Header.Get(DeadlineBudgetHeader); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			return context.WithTimeout(ctx, d)
		}
	}
	return ctx, func() {}
}

// RetryAfterSeconds renders a retry hint as a Retry-After header value,
// clamped up to the header's one-second resolution.
func RetryAfterSeconds(hint time.Duration) string {
	secs := int64((hint + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// SearchParams names each kind's /search query parameters, in Args order.
// It is the wire contract's parameter table: ParseSearchArgs reads it and
// loadgen.HTTPTarget encodes with it. Read-only.
var SearchParams = [serve.NumKinds][]string{
	serve.KindMembership: {"key"},
	serve.KindPointLoc:   {"x", "y"},
	serve.KindInterval:   {"lo", "hi"},
	serve.KindLinePoly:   {"x", "y"},
	serve.KindTangent:    {"dx", "dy", "dz"},
}

// ParseSearchArgs extracts one kind's typed arguments from a /search query
// string.
func ParseSearchArgs(kind serve.Kind, q url.Values) (serve.Args, error) {
	return searchArgs(kind, q.Get)
}

// parseSearchQuery is ParseSearchArgs over the raw query string, as the
// /search handler reads it: the same arguments and errors, without
// building the url.Values map.
func parseSearchQuery(kind serve.Kind, raw string) (serve.Args, error) {
	return searchArgs(kind, func(name string) string { return queryGet(raw, name) })
}

// searchArgs reads one kind's arguments through get, which returns a
// parameter's first value.
func searchArgs(kind serve.Kind, get func(name string) string) (serve.Args, error) {
	var a serve.Args
	for i, name := range SearchParams[kind] {
		v, err := strconv.ParseInt(get(name), 10, 64)
		if err != nil {
			return a, fmt.Errorf("fleet: /search kind=%s needs an integer ?%s=", kind, name)
		}
		a[i] = v
	}
	return a, nil
}

// queryGet returns url.ParseQuery(raw).Get(key): the value of the first
// pair whose key unescapes to key, skipping every pair ParseQuery drops
// (empty, holding a ';', or with a bad escape in its key or value). It
// builds no map, and unescaping allocates only for a '%' or a '+'.
func queryGet(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// Handler returns the HTTP surface — the only one: a standalone server is a
// one-replica fleet.
//
//	GET /search?key=K — one lookup through the router and failover ladder;
//	                    the JSON answer carries the serving replica index
//	                    (-1 for a fleet-oracle answer). ?kind= selects the
//	                    query family (membership when absent, so pre-kind
//	                    clients keep working); each kind has its own integer
//	                    parameters (SearchParams):
//	                      membership  ?key=K
//	                      pointloc    ?x=X&y=Y
//	                      interval    ?lo=L&hi=H
//	                      linepoly    ?x=X&y=Y
//	                      tangent     ?dx=DX&dy=DY&dz=DZ
//	                    400 for an unknown kind, missing/malformed
//	                    parameters, or a kind the fleet does not serve. 429
//	                    only when every routable replica rejected with
//	                    overload, 503 after Shutdown; the Retry-After on both
//	                    is the *least-loaded healthy* replica's estimate —
//	                    the soonest the fleet could accept work — not
//	                    whichever instance happened to reject. 504 means the
//	                    X-Deadline-Budget ran out before any replica could
//	                    answer (§3.11); 499/408 are the client's own
//	                    disconnect/deadline; 500 is a failed round that no
//	                    rung absorbed (only reachable with DisableOracle).
//	GET /healthz      — 200 while at least one replica is healthy and not
//	                    latency-ejected; 503 only when none is (all
//	                    degraded/crashed/ejected) or the fleet is draining.
//	                    A single replica loss is the fleet working as
//	                    designed, not an incident.
//	GET /metrics      — fleet stats (routing, failover, crash/restart,
//	                    time-to-healthy), per-replica state, and the summed
//	                    per-instance serving counters under "serve" (what
//	                    loadgen.HTTPTarget scrapes). ?format=prometheus
//	                    switches to the Prometheus text exposition.
//	GET /debug/traces — retained wall-clock request traces (requires
//	                    Config.Obs; see obs.Observer.DebugHandler).
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", f.handleSearch)
	mux.HandleFunc("/healthz", f.handleHealthz)
	mux.HandleFunc("/metrics", f.handleMetrics)
	if f.obs != nil {
		mux.Handle("/debug/traces", f.obs.DebugHandler())
	} else {
		mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "fleet: request tracing disabled (Config.Obs is nil)", http.StatusNotFound)
		})
	}
	return mux
}

// traceCtx threads an incoming W3C traceparent into the lookup context —
// minting a fresh trace ID when the request carries none (or a malformed
// one, which the spec says to ignore) — so the fleet trace adopts the wire
// ID and the response echoes it: a loadgen client can correlate its samples
// with /debug/traces records.
func (f *Fleet) traceCtx(w http.ResponseWriter, r *http.Request) context.Context {
	ctx := r.Context()
	if f.obs == nil {
		return ctx
	}
	id, err := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if err != nil {
		id = obs.NewTraceID()
	}
	w.Header().Set("Traceparent", id.Traceparent())
	return obs.ContextWithParent(ctx, id)
}

func (f *Fleet) handleSearch(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.RawQuery
	kind, err := serve.ParseKind(queryGet(raw, "kind"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	args, err := parseSearchQuery(kind, raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The X-Deadline-Budget header becomes a real context deadline here, so
	// the whole ladder below — fleet budget rung, instance admission, batch
	// linger, retries, hedges — sees one consistent remaining budget.
	ctx, cancel := WithDeadlineBudget(f.traceCtx(w, r), r)
	defer cancel()
	res, err := f.LookupKind(ctx, kind, args)
	switch {
	case errors.Is(err, serve.ErrKindNotServed):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, serve.ErrOverloaded):
		w.Header().Set("Retry-After", RetryAfterSeconds(f.RetryAfterHint()))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, serve.ErrClosed):
		w.Header().Set("Retry-After", RetryAfterSeconds(f.RetryAfterHint()))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, serve.ErrBudgetExhausted):
		// Doomed work shed by a budget rung: the client's own deadline was
		// about to lapse, so 504 (the server gave up on its behalf) rather
		// than a 5xx that reads as a server fault.
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return
	case r.Context().Err() == nil && errors.Is(err, context.DeadlineExceeded):
		// A deadline fired that the client's own context did not carry: the
		// X-Deadline-Budget header's server-side deadline ran out mid-flight.
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return
	case r.Context().Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		// The *request's* context fired: the client disconnected (Canceled)
		// or its per-request deadline lapsed (DeadlineExceeded). That is a
		// client-side outcome, not a server error — map it to the 4xx class
		// so disconnect storms don't read as a 500 spike.
		status := StatusClientClosedRequest
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusRequestTimeout
		}
		http.Error(w, err.Error(), status)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	f.writeResult(w, &res)
}

// jsonContentType is /search's Content-Type header value. writeResult
// assigns it to the header map instead of calling Set, which would make a
// new one-value slice per response; net/http copies header values before
// it writes them, so the shared slice is never changed.
var jsonContentType = []string{"application/json"}

// writeResult writes one /search answer: the bytes writeJSON writes for
// it, from a reused buffer, in one Write.
func (f *Fleet) writeResult(w http.ResponseWriter, res *Result) {
	buf, ok := f.jsonBufs.Get()
	if !ok {
		buf = new([]byte)
	}
	*buf = appendResult((*buf)[:0], res)
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(*buf)
	f.jsonBufs.Put(buf)
}

// appendResult appends res as encoding/json writes it with one-space
// indentation (json.Encoder with SetIndent("", " ")): the fields in
// declaration order, aux and degraded only when set, and a final newline.
func appendResult(b []byte, res *Result) []byte {
	b = append(b, "{\n \"kind\": \""...)
	b = append(b, res.Kind.String()...)
	b = append(b, '"')
	b = appendInt(b, "needle", res.Needle)
	b = append(b, ",\n \"found\": "...)
	b = strconv.AppendBool(b, res.Found)
	b = appendInt(b, "leaf_key", res.LeafKey)
	b = appendInt(b, "value", res.Value)
	if res.Aux != 0 {
		b = appendInt(b, "aux", res.Aux)
	}
	b = appendInt(b, "steps", int64(res.Steps))
	b = appendInt(b, "round", res.Round)
	if res.Degraded {
		b = append(b, ",\n \"degraded\": true"...)
	}
	b = appendInt(b, "replica", int64(res.Replica))
	return append(b, "\n}\n"...)
}

// appendInt appends one more integer field to appendResult's object.
func appendInt(b []byte, name string, v int64) []byte {
	b = append(b, ",\n \""...)
	b = append(b, name...)
	b = append(b, "\": "...)
	return strconv.AppendInt(b, v, 10)
}

func (f *Fleet) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := f.Health()
	st := f.Stats()
	doc := map[string]any{
		"health":                  h.String(),
		"replicas":                st.Replicas,
		"healthy_replicas":        st.HealthyReplicas,
		"degraded_replicas":       st.DegradedReplicas,
		"down_replicas":           st.DownReplicas,
		"ejected_replicas":        st.EjectedReplicas,
		"crashes":                 st.Crashes,
		"restarts":                st.Restarts,
		"last_time_to_healthy_ns": st.LastTimeToHealthy,
	}
	w.Header().Set("Content-Type", "application/json")
	if h != Healthy {
		w.Header().Set("Retry-After", RetryAfterSeconds(f.RetryAfterHint()))
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(doc)
}

func (f *Fleet) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		f.promMetrics(w)
		return
	}
	st := f.Stats()
	doc := map[string]any{
		"fleet":     st,
		"serve":     st.Agg, // instance-shaped aggregate for shared scrapers
		"health":    st.Health,
		"side":      f.Side(),
		"keys":      len(f.bt.Keys),
		"max_batch": f.MaxBatch(),
	}
	doc["kinds"] = st.ByKind
	if st.Dispatched > 0 {
		doc["failover_fraction"] = float64(st.FailoverServed) / float64(st.Dispatched)
		doc["oracle_fraction"] = float64(st.OracleServed) / float64(st.Dispatched)
	}
	writeJSON(w, doc)
}

// promMetrics renders the fleet's Prometheus text exposition: routing and
// failover counters, per-replica gauges, the replicas' summed serving
// counters, outcome-split dispatch latency, the bucket-exact merge of every
// live replica's serving histograms, and (with Config.Obs) the shared
// per-stage decomposition and SLO burn gauges.
func (f *Fleet) promMetrics(w http.ResponseWriter) {
	st := f.Stats()
	pw := obs.NewPromWriter()

	pw.Counter("meshfleet_dispatched_total", "Lookups dispatched through the router.", float64(st.Dispatched))
	pw.Counter("meshfleet_failovers_total", "Re-dispatch attempts after a failed pick.", float64(st.Failovers))
	pw.Counter("meshfleet_answers_total", "Answered lookups by serving rung.", float64(st.Dispatched-st.FailoverServed-st.OracleServed-st.OverloadedAll-st.Unrouted), "rung", "first_pick")
	pw.Counter("meshfleet_answers_total", "Answered lookups by serving rung.", float64(st.FailoverServed), "rung", "failover")
	pw.Counter("meshfleet_answers_total", "Answered lookups by serving rung.", float64(st.OracleServed), "rung", "oracle")
	pw.Counter("meshfleet_overloaded_total", "Lookups rejected with every routable replica admission-full.", float64(st.OverloadedAll))
	pw.Counter("meshfleet_unrouted_total", "Lookups that found no routable replica.", float64(st.Unrouted))
	pw.Counter("meshfleet_crashes_total", "Replica crashes.", float64(st.Crashes))
	pw.Counter("meshfleet_restarts_total", "Replica restarts.", float64(st.Restarts))
	pw.Counter("meshfleet_budget_shed_total", "Dispatches skipped: deadline budget below the replica's expected round time.", float64(st.BudgetShed))
	pw.Counter("meshfleet_hedges_total", "Speculative second dispatches launched.", float64(st.Hedges))
	pw.Counter("meshfleet_hedge_wins_total", "Hedged dispatches whose answer arrived first.", float64(st.HedgeWins))
	pw.Counter("meshfleet_ejections_total", "Latency-outlier replica ejections.", float64(st.Ejections))
	pw.Counter("meshfleet_readmissions_total", "Ejections cleared by probes or operators.", float64(st.Readmissions))
	pw.Counter("meshfleet_eject_probes_total", "Canary probes sent to ejected replicas.", float64(st.EjectProbes))
	pw.Gauge("meshfleet_ejected_replicas", "Replicas currently latency-ejected.", float64(st.EjectedReplicas))

	pw.Gauge("meshfleet_replicas", "Configured replica count.", float64(st.Replicas))
	pw.Gauge("meshfleet_last_time_to_healthy_seconds", "Most recent crash-to-healthy duration.", float64(st.LastTimeToHealthy)/1e9)
	for i := range f.reps {
		rv := f.view(i)
		idx := strconv.Itoa(rv.Index)
		pw.Gauge("meshfleet_replica_up", "1 while the replica is routable.", boolGauge(rv.Up), "replica", idx)
		health := "down"
		if rv.Up {
			health = rv.Health.String()
		}
		pw.Gauge("meshfleet_replica_healthy", "1 while the replica reports healthy.", boolGauge(rv.Up && rv.Health == Healthy), "replica", idx, "health", health)
		pw.Gauge("meshfleet_replica_queue_depth", "Replica admission-queue depth.", float64(rv.QueueLen), "replica", idx)
		pw.Gauge("meshfleet_replica_latency_ewma_seconds", "Per-replica EWMA dispatch-latency score (the ejection signal).", float64(rv.LatencyEWMA)/1e9, "replica", idx)
		pw.Gauge("meshfleet_replica_ejected", "1 while the replica is latency-ejected.", boolGauge(rv.Ejected), "replica", idx)
		rep := f.reps[rv.Index]
		rep.mu.RLock()
		crashes := rep.crashes
		rep.mu.RUnlock()
		pw.Counter("meshfleet_replica_crashes_total", "Crashes of this replica slot.", float64(crashes), "replica", idx)
	}

	promServeCounters(pw, st.Agg)

	// Per-kind routing: lookups of each query family, how many fell through
	// to the fleet oracle, and the kind's dispatch latency.
	for _, kr := range st.ByKind {
		pw.Counter("meshfleet_kind_served_total", "Answered lookups by query kind.", float64(kr.Served), "kind", kr.Kind)
		pw.Counter("meshfleet_kind_oracle_total", "Fleet-oracle answers by query kind.", float64(kr.OracleServed), "kind", kr.Kind)
	}
	for _, k := range f.ss.Kinds() {
		pw.Histogram("meshfleet_kind_request_duration_seconds", "Dispatch-to-answer latency by query kind.", f.kindLat[k].Snapshot(), "kind", k.String())
	}

	// Fleet-level dispatch latency, combined + by rung.
	lat := f.lat.Snapshot()
	pw.Histogram("meshfleet_request_duration_seconds", "Dispatch-to-answer latency.", lat, "rung", "all")
	pw.Histogram("meshfleet_request_duration_seconds", "Dispatch-to-answer latency.", f.latFailover.Snapshot(), "rung", "failover")
	pw.Histogram("meshfleet_request_duration_seconds", "Dispatch-to-answer latency.", f.latOracle.Snapshot(), "rung", "oracle")

	// Replica-level serving latency, merged bucket-exact across live
	// replicas (fixed boundaries sum losslessly): every delivered response,
	// and the mesh-answered subset.
	var mAll, mMesh obs.HistSnapshot
	for i := range f.reps {
		inst := f.instance(i)
		if inst == nil {
			continue
		}
		mAll = mAll.Merge(inst.LatencySnapshot())
		mMesh = mMesh.Merge(inst.LatencyMeshSnapshot())
	}
	pw.Histogram("meshserve_request_duration_seconds", "Per-replica serving latency, merged across live replicas.", mAll, "outcome", "all")
	pw.Histogram("meshserve_request_duration_seconds", "Per-replica serving latency, merged across live replicas.", mMesh, "outcome", "mesh")

	if f.obs != nil {
		pw.WriteObserver("meshfleet", f.obs)
		pw.WriteLatencyBurn("meshfleet", f.obs, lat)
	}
	w.Header().Set("Content-Type", obs.ContentType)
	_, _ = w.Write(pw.Bytes())
}

// promServeCounters renders the serving counters of st — in a fleet, the
// aggregate over every replica incarnation — as the meshserve_* counter
// families.
func promServeCounters(pw *obs.PromWriter, st serve.Stats) {
	pw.Counter("meshserve_lookups_total", "Lookups by admission outcome.", float64(st.Accepted), "result", "accepted")
	pw.Counter("meshserve_lookups_total", "Lookups by admission outcome.", float64(st.Rejected), "result", "rejected")
	pw.Counter("meshserve_answers_total", "Answered lookups by serving path.", float64(st.Served), "path", "mesh")
	pw.Counter("meshserve_answers_total", "Answered lookups by serving path.", float64(st.Failed), "path", "error")
	pw.Counter("meshserve_rounds_total", "Serving rounds by kind.", float64(st.Rounds), "kind", "mesh")
	pw.Counter("meshserve_rounds_total", "Serving rounds by kind.", float64(st.CanaryRounds), "kind", "canary")
	pw.Counter("meshserve_sim_steps_total", "Simulated mesh steps across all rounds.", float64(st.SimSteps))
	pw.Counter("meshserve_retries_total", "Audited re-executions of failed rounds.", float64(st.Retries))
	pw.Counter("meshserve_budget_shed_total", "Lookups shed with the deadline budget exhausted.", float64(st.BudgetShed))
	pw.Counter("meshserve_recovered_rounds_total", "Rounds that failed, then succeeded on a retry.", float64(st.Recovered))
	pw.Counter("meshserve_faults_total", "Round attempts failed, by fault class.", float64(st.FaultsAudit), "class", "audit")
	pw.Counter("meshserve_faults_total", "Round attempts failed, by fault class.", float64(st.FaultsBudget), "class", "budget")
	pw.Counter("meshserve_faults_total", "Round attempts failed, by fault class.", float64(st.FaultsCanceled), "class", "canceled")
	pw.Counter("meshserve_faults_total", "Round attempts failed, by fault class.", float64(st.FaultsPanic), "class", "panic")
	pw.Counter("meshserve_faults_total", "Round attempts failed, by fault class.", float64(st.FaultsOther), "class", "other")
	pw.Counter("meshserve_circuit_transitions_total", "Circuit breaker transitions.", float64(st.CircuitOpens), "to", "open")
	pw.Counter("meshserve_circuit_transitions_total", "Circuit breaker transitions.", float64(st.CircuitCloses), "to", "closed")
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}
