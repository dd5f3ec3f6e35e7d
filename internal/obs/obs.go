// Package obs is the end-to-end query observability layer (DESIGN.md §3.9):
// wall-clock request traces, per-stage latency decomposition, Prometheus
// text exposition, and structured logging for the serving stack.
//
// Where internal/trace records *simulated* step-clock spans inside one mesh
// round, obs records *wall-clock* spans across a query's whole lifecycle —
// admission, queue wait, batch linger, mesh rounds, retry backoff, failover
// hops, oracle fallback, response delivery — so a p99 outlier can be
// attributed to the stage that produced it. The round span carries the
// sequence number of its step-clock trace.Run, joining simulated steps and
// wall time in one record.
//
// The design mirrors the mesh.Tracer/mesh.Injector seams: a nil *Observer
// disables everything at the cost of one pointer check per boundary — no
// clock reads, no allocation — so the serving hot path is byte-identical to
// the unobserved build. With an Observer installed, every request gets a
// ReqTrace whose spans are *contiguous by construction*: each Mark closes
// the span [cursor, now] and advances the cursor, so the spans of a finished
// trace always partition its end-to-end duration exactly (invariant-tested
// like the §3.4 step partition). Completed traces land in a bounded,
// tail-biased ring (ring.go) served at /debug/traces (http.go); stage
// histograms and outcome counters feed the Prometheus exposition (prom.go).
package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"
)

// Stage names one lifecycle interval of a served query. The enum order is
// the nominal lifecycle order; a trace may repeat Mesh/Backoff (retries) and
// Failover (multiple hops), and skips stages its path never entered.
type Stage uint8

const (
	// StageAdmit: Lookup entry → admission-queue enqueue (or rejection).
	StageAdmit Stage = iota
	// StageQueue: enqueue → the collector dequeues the request.
	StageQueue
	// StageLinger: dequeue → the executor starts serving the batch. Covers
	// the fill/linger window plus any wait in the one-slot pipeline channel.
	StageLinger
	// StageMesh: one mesh-round attempt (includes any canary probe run
	// immediately before it on the circuit-open path).
	StageMesh
	// StageBackoff: the jittered sleep between retry attempts.
	StageBackoff
	// StageFailover: one fleet-level re-dispatch hop — from a replica's
	// failure surfacing to the next replica's admission.
	StageFailover
	// StageOracle: the fleet's last rung, its host-side oracle answer.
	StageOracle
	// StageDeliver: response leaving the serving goroutine → the caller's
	// Lookup (or the fleet dispatch loop) observing it.
	StageDeliver

	numStages
)

var stageNames = [numStages]string{
	"admit", "queue_wait", "batch_linger", "mesh_round",
	"retry_backoff", "failover_hop", "oracle_fallback", "deliver",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Outcome classifies a finished trace.
type Outcome uint8

const (
	OutcomeMesh     Outcome = iota // answered by a mesh round, first-pick replica
	OutcomeFailover                // answered by a non-first replica's mesh round
	OutcomeOracle                  // answered by the fleet-level oracle rung
	OutcomeRejected                // refused with ErrOverloaded
	OutcomeError                   // a typed fault reached the caller
	OutcomeClosed                  // refused after Shutdown

	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	"mesh", "failover", "oracle", "rejected", "error", "closed",
}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// answered reports whether the outcome delivered a correct answer.
func (o Outcome) answered() bool {
	return o == OutcomeMesh || o == OutcomeFailover || o == OutcomeOracle
}

// Span is one closed wall-clock stage interval, stored as offsets from the
// trace start so a serialized trace is self-contained.
type Span struct {
	Stage Stage         `json:"-"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// ReqTrace is one request's lifecycle record. It is owned by exactly one
// goroutine at a time — ownership moves with the request along the serving
// pipeline's channel handoffs (Lookup → collector → executor → Lookup),
// which order all Marks without locks. After Finish the trace is immutable.
type ReqTrace struct {
	ID     TraceID
	Needle int64
	// Class is the request's class index (the serving layer's query kind):
	// stage marks land in the observer's per-class histograms. 0 when the
	// observer was built without classes.
	Class int
	Start time.Time
	Spans []Span

	// Cross-link to the step-clock run (internal/trace) that answered this
	// request: the run's stable sequence number and its (tagged) label.
	// Zero/empty until the serving round succeeds.
	RunSeq   int
	RunLabel string

	Replica  int // serving replica index; -1 = fleet oracle; -2 = unset
	Attempts int // mesh-round attempts across all replicas
	Outcome  Outcome
	Err      string // the delivered error's message, if any
	End      time.Time

	o      *Observer
	cursor time.Time
}

// Dur is the finished trace's end-to-end duration. The spans partition it
// exactly: sum(span.Dur()) == Dur() (see TestTracePartition*).
func (tr *ReqTrace) Dur() time.Duration { return tr.End.Sub(tr.Start) }

// Mark closes the stage span [cursor, now] and advances the cursor, feeding
// the observer's per-stage wall-clock histogram.
func (tr *ReqTrace) Mark(stage Stage) { tr.MarkAt(stage, time.Now()) }

// MarkAt is Mark with a caller-supplied clock reading, so a batch-wide
// boundary (the executor marking every request of a round) costs one clock
// read, and every request of the batch agrees on where the boundary fell.
func (tr *ReqTrace) MarkAt(stage Stage, now time.Time) {
	d := now.Sub(tr.cursor)
	if d < 0 { // clock skew across goroutines; clamp rather than corrupt
		d = 0
		now = tr.cursor
	}
	tr.Spans = append(tr.Spans, Span{Stage: stage, Start: tr.cursor.Sub(tr.Start), End: now.Sub(tr.Start)})
	tr.cursor = now
	tr.o.stages[tr.Class][stage].Observe(d)
	if l := tr.o.cfg.Logger; l != nil && l.Enabled(context.Background(), slog.LevelDebug) {
		l.LogAttrs(context.Background(), slog.LevelDebug, "stage",
			slog.String("trace", tr.ID.String()),
			slog.String("stage", stage.String()),
			slog.Duration("dur", d))
	}
}

// LinkRun attaches the step-clock run that served this request's answering
// round (trace.Handle.Seq/Label at the serve layer).
func (tr *ReqTrace) LinkRun(seq int, label string) {
	tr.RunSeq, tr.RunLabel = seq, label
}

// HasStage reports whether any span of the trace carries the stage.
func (tr *ReqTrace) HasStage(stage Stage) bool {
	for _, s := range tr.Spans {
		if s.Stage == stage {
			return true
		}
	}
	return false
}

// StageTotal sums the durations of every span with the given stage.
func (tr *ReqTrace) StageTotal(stage Stage) time.Duration {
	var d time.Duration
	for _, s := range tr.Spans {
		if s.Stage == stage {
			d += s.Dur()
		}
	}
	return d
}

// Config tunes an Observer. The zero value is usable.
type Config struct {
	// Ring bounds the recent-trace ring (default 256).
	Ring int
	// SlowN is how many slowest traces are always retained regardless of
	// ring churn (default 16).
	SlowN int
	// SLOP99 is the latency SLO the burn-rate gauge measures against:
	// at most 1% of answered requests may exceed it (default 50ms).
	SLOP99 time.Duration
	// Logger, when set, receives structured events: one per stage boundary
	// at Debug, one per interesting (failovered/oracle-answered/errored)
	// trace completion at Info. Nil disables logging entirely.
	Logger *slog.Logger
	// Classes are the label values of the request-class dimension — the
	// serving layer passes its query-kind names, so stage histograms and the
	// Prometheus exposition split by kind. Empty means one unnamed class
	// (the pre-kind layout, and what Begin without a class uses).
	Classes []string
}

// Observer is the per-server observability hub: it mints request traces,
// aggregates per-stage wall-clock histograms and per-outcome counters, and
// retains completed traces for /debug/traces. One Observer serves one
// instance — or one fleet together with all its replicas (the fleet installs
// itself on each instance config, so instance-side stage marks land in the
// fleet's histograms and the trace follows the request across replicas).
type Observer struct {
	cfg       Config
	stages    [][numStages]Histogram // indexed by class, then stage
	outcomes  [numOutcomes]atomic.Int64
	abandoned atomic.Int64 // traces dropped because the client gave up mid-flight
	begun     atomic.Int64
	ring      collector
}

// New returns an Observer with the config's zero values defaulted.
func New(cfg Config) *Observer {
	if cfg.Ring <= 0 {
		cfg.Ring = 256
	}
	if cfg.SlowN <= 0 {
		cfg.SlowN = 16
	}
	if cfg.SlowN > cfg.Ring {
		cfg.SlowN = cfg.Ring
	}
	if cfg.SLOP99 <= 0 {
		cfg.SLOP99 = 50 * time.Millisecond
	}
	classes := len(cfg.Classes)
	if classes == 0 {
		classes = 1
	}
	o := &Observer{cfg: cfg, stages: make([][numStages]Histogram, classes)}
	o.ring.init(cfg.Ring, cfg.SlowN)
	return o
}

// Classes returns the class label values (a single empty name when the
// observer was built classless).
func (o *Observer) Classes() []string {
	if len(o.cfg.Classes) == 0 {
		return []string{""}
	}
	return o.cfg.Classes
}

// SLOMaxDegraded is the degraded-fraction SLO: at most this fraction of
// answered requests may be oracle answers. The degraded burn gauge measures
// against it, and the saturation search enforces it.
const SLOMaxDegraded = 0.01

// SLO reports the latency/degraded-fraction SLO targets.
func (o *Observer) SLO() (p99 time.Duration, maxDegraded float64) {
	return o.cfg.SLOP99, SLOMaxDegraded
}

// Begin mints the trace for one request. start is the caller's own
// entry-time reading so the trace's end-to-end window matches the latency
// sample the caller records; parent is the W3C trace ID propagated from an
// upstream hop (zero = mint a fresh one).
func (o *Observer) Begin(parent TraceID, needle int64, start time.Time) *ReqTrace {
	return o.BeginClass(0, parent, needle, start)
}

// BeginClass is Begin for a specific request class (query kind): the
// trace's stage marks land in that class's histograms. Out-of-range class
// indices clamp to 0, so an observer built classless still accepts kinded
// traffic.
func (o *Observer) BeginClass(class int, parent TraceID, needle int64, start time.Time) *ReqTrace {
	o.begun.Add(1)
	if class < 0 || class >= len(o.stages) {
		class = 0
	}
	id := parent
	if id.IsZero() {
		id = NewTraceID()
	}
	return &ReqTrace{
		ID:      id,
		Needle:  needle,
		Class:   class,
		Start:   start,
		Spans:   make([]Span, 0, 8),
		Replica: -2,
		o:       o,
		cursor:  start,
	}
}

// Finish seals the trace: the final deliver span [cursor, now] closes the
// partition, the outcome counters advance, and the trace enters the
// retention ring. Returns the end-to-end duration. The caller must be the
// trace's creator and the request must be fully delivered — a trace whose
// request was abandoned mid-flight (client context expiry) must go to
// Abandon instead, because the serving goroutines may still append spans.
func (o *Observer) Finish(tr *ReqTrace, outcome Outcome, err error) time.Duration {
	now := time.Now()
	tr.MarkAt(StageDeliver, now)
	tr.End = tr.cursor // == now unless a skew clamp moved it
	tr.Outcome = outcome
	if err != nil {
		tr.Err = err.Error()
	}
	o.outcomes[outcome].Add(1)
	interesting := outcome == OutcomeFailover || outcome == OutcomeOracle ||
		outcome == OutcomeError
	o.ring.offer(tr, interesting)
	if l := o.cfg.Logger; l != nil && (interesting || l.Enabled(context.Background(), slog.LevelDebug)) {
		lvl := slog.LevelDebug
		if interesting {
			lvl = slog.LevelInfo
		}
		l.LogAttrs(context.Background(), lvl, "trace",
			slog.String("trace", tr.ID.String()),
			slog.String("outcome", outcome.String()),
			slog.Duration("dur", tr.Dur()),
			slog.Int("replica", tr.Replica),
			slog.Int("attempts", tr.Attempts),
			slog.Int("run_seq", tr.RunSeq),
			slog.String("err", tr.Err))
	}
	return tr.Dur()
}

// Abandon accounts a trace whose client gave up while the request was still
// in flight. The trace itself is dropped, not retained: the serving pipeline
// still owns it and will keep marking stages into it until the (unread)
// response is delivered, so retaining it would race those writes.
func (o *Observer) Abandon(tr *ReqTrace) {
	o.abandoned.Add(1)
}

// StageSnapshot is the per-stage aggregate view (count and total wall time
// per stage) the load generator samples at window boundaries to decompose
// each reporting window's latency by stage.
type StageSnapshot struct {
	Count [numStages]int64
	SumNS [numStages]int64
}

// StageNames lists the stage names in enum order, for iterating snapshots.
func StageNames() []string { return stageNames[:] }

// Stages samples the per-stage counters summed across classes (two atomic
// loads per stage per class) — the classless aggregate view.
func (o *Observer) Stages() StageSnapshot {
	var s StageSnapshot
	for c := range o.stages {
		for i := range o.stages[c] {
			snap := &o.stages[c][i]
			s.Count[i] += snap.Count()
			s.SumNS[i] += snap.SumNS()
		}
	}
	return s
}

// StagesClass samples one class's per-stage counters (out-of-range class
// yields the zero snapshot).
func (o *Observer) StagesClass(class int) StageSnapshot {
	var s StageSnapshot
	if class < 0 || class >= len(o.stages) {
		return s
	}
	for i := range o.stages[class] {
		snap := &o.stages[class][i]
		s.Count[i] = snap.Count()
		s.SumNS[i] = snap.SumNS()
	}
	return s
}

// StageHist snapshots one stage's full wall-clock histogram merged across
// classes (Prometheus exposition; quantile queries in tests).
func (o *Observer) StageHist(stage Stage) HistSnapshot {
	s := o.stages[0][stage].Snapshot()
	for c := 1; c < len(o.stages); c++ {
		s = s.Merge(o.stages[c][stage].Snapshot())
	}
	return s
}

// StageHistClass snapshots one class's histogram for one stage.
func (o *Observer) StageHistClass(class int, stage Stage) HistSnapshot {
	if class < 0 || class >= len(o.stages) {
		return HistSnapshot{}
	}
	return o.stages[class][stage].Snapshot()
}

// OutcomeCount reads one outcome counter.
func (o *Observer) OutcomeCount(oc Outcome) int64 { return o.outcomes[oc].Load() }

// Abandoned reads the abandoned-trace counter.
func (o *Observer) Abandoned() int64 { return o.abandoned.Load() }

// Begun reads the minted-trace counter.
func (o *Observer) Begun() int64 { return o.begun.Load() }

// Traces returns the retained completed traces, newest first (the union of
// the recent ring, the always-kept interesting ring, and the slowest-N set).
func (o *Observer) Traces() []*ReqTrace { return o.ring.snapshot() }

// Find returns the retained trace with the given ID, or nil.
func (o *Observer) Find(id TraceID) *ReqTrace { return o.ring.find(id) }

// ctxKey carries a *ReqTrace across API layers (fleet → instance) and a
// propagated parent TraceID (HTTP handler → Lookup).
type ctxKey int

const (
	ctxTrace ctxKey = iota
	ctxParent
)

// NewContext returns ctx carrying the trace, so a lower serving layer (the
// instance inside a fleet) marks stages on its caller's trace instead of
// minting its own.
func NewContext(ctx context.Context, tr *ReqTrace) context.Context {
	return context.WithValue(ctx, ctxTrace, tr)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *ReqTrace {
	tr, _ := ctx.Value(ctxTrace).(*ReqTrace)
	return tr
}

// DetachContext returns ctx with any carried trace removed (the parent
// TraceID still flows). A trace is single-owner — exactly one goroutine may
// mark or seal it — so a caller racing two concurrent dispatches for one
// request (hedged failover) must not hand the shared trace to both: each
// detached dispatch begins and seals its own child trace under the same
// propagated ID, and the caller keeps marking the original.
func DetachContext(ctx context.Context) context.Context {
	if FromContext(ctx) == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxTrace, (*ReqTrace)(nil))
}

// ContextWithParent returns ctx carrying a propagated W3C trace ID (from an
// incoming traceparent header) for Begin to adopt.
func ContextWithParent(ctx context.Context, id TraceID) context.Context {
	return context.WithValue(ctx, ctxParent, id)
}

// ParentFromContext returns the propagated trace ID, or the zero TraceID.
func ParentFromContext(ctx context.Context) TraceID {
	id, _ := ctx.Value(ctxParent).(TraceID)
	return id
}
