// Package serve turns the batch multisearch machinery into a query-serving
// subsystem: a long-lived mesh holding built search structures — one per
// enabled query Kind: the dict (a,b)-tree, the Kirkpatrick point-location
// DAG, the interval rank trees, the xy-shadow wedge tree and the DK
// hierarchy — per-kind admission queues accepting lookups from many
// concurrent clients, and a round loop that collects admitted queries into
// per-kind batches and answers each batch with one multisearch round
// (DESIGN.md §3.5, §3.10).
//
// The serving loop is per-kind collectors feeding one executor through a
// one-slot channel: each collector assembles its kind's next batch
// (blocking for the first query, then filling until the batch is full or
// the linger deadline passes) while the executor simulates the current
// round — host-side batch assembly overlaps simulated mesh time, and rounds
// for different kinds interleave on the shared mesh (mixed-workload
// rounds), all under the one per-round step budget. Admission is bounded
// per kind: when a kind's queue is full, Lookup fails fast with
// ErrOverloaded rather than queueing unboundedly. Shutdown closes
// admission, drains every in-flight batch through the normal round path,
// and only cancels the mesh run (via the run-control context seam) if the
// caller's drain deadline expires.
//
// Round failures are typed (DESIGN.md §3.6): a faulted round is classified
// (core.Classify), re-executed with auditing forced on under jittered
// backoff, and — if the mesh keeps failing — the batch fails with the last
// fault. A sliding-window circuit breaker opens when the mesh keeps
// faulting; an open circuit fails batches fast with ErrCircuitOpen until an
// audited canary round across every enabled kind (Canary) closes it. The
// instance never schedules canaries and never answers from the host oracle
// itself: the fleet's prober owns canaries, and the fleet answers what no
// replica can, first by failover and last from its oracle (internal/fleet).
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/freelist"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ErrOverloaded is returned by Lookup when the admission queue is full: the
// client should back off and retry. Typed so load generators and HTTP
// handlers can distinguish overload (retryable, 429) from closure.
var ErrOverloaded = errors.New("serve: admission queue full")

// ErrClosed is returned by Lookup once Shutdown has begun.
var ErrClosed = errors.New("serve: server closed")

// ErrCircuitOpen is returned for lookups arriving while the circuit is
// open: the mesh path is distrusted. The fleet layer treats it as a failover
// trigger — re-dispatch to a healthy replica, then the fleet-level oracle.
var ErrCircuitOpen = errors.New("serve: circuit open, mesh path unavailable")

// ErrKindNotServed is returned by LookupKind for a kind this instance was
// not configured to serve (HTTP surfaces map it to 400).
var ErrKindNotServed = errors.New("serve: kind not served by this instance")

// ErrBudgetExhausted is returned when a lookup's remaining deadline budget
// is smaller than the expected time a round needs to answer it: the work is
// doomed — by the time a batch lingered and a round ran, the client would be
// gone — so it is shed before burning mesh time (DESIGN.md §3.11). Typed so
// the fleet treats it as a failover trigger (a faster replica may still make
// the deadline) and the HTTP surface maps it to 504.
var ErrBudgetExhausted = errors.New("serve: deadline budget exhausted before a round could answer")

// retainRuns bounds the runs a Config.Tracer retains.
const retainRuns = 64

// Config configures an Instance. The zero value of every field has a usable
// default except Side, which must be a positive power of two.
type Config struct {
	// Side is the mesh side length √n; required, power of two. The
	// dictionary is a (2,3)-tree over DefaultKeys(n/4), and rounds are
	// charged under the mesh's default CostCounted model.
	Side int
	// Kinds lists the extra query kinds to serve besides membership, which
	// is always enabled. Nil serves membership only — the pre-kind behaviour.
	// Each kind's structure is built deterministically from Side and the key
	// set and loaded onto the shared mesh with its own core.Instance
	// registers.
	Kinds []Kind
	// MaxBatch caps the queries per multisearch round. 0 defaults to n,
	// one query per processor; larger values are clamped to n. Kinds that
	// expand one request into several mesh queries divide this cap.
	MaxBatch int
	// QueueDepth bounds each kind's admission queue. 0 defaults to
	// 4×MaxBatch.
	QueueDepth int
	// Linger is how long a collector waits to fill a batch after its
	// first query arrives. ≤ 0 means no waiting: a round starts with
	// whatever is already queued.
	Linger time.Duration
	// Budget is the per-round step budget of every kind (the clock resets
	// every round); a round that exceeds it fails with a
	// *mesh.BudgetExceededError delivered to every query of the batch.
	// 0 = unlimited.
	Budget int64
	// Tracer, when set, records one traced run per round — including every
	// retry re-execution and canary probe, each tagged in its run label
	// (the tracer retains the last retainRuns runs).
	Tracer *trace.Tracer
	// Parallelism bounds the simulator's goroutines (default GOMAXPROCS).
	Parallelism int

	// Audit enables audit mode on every round, not only on retries. Under
	// fault injection this is what guarantees zero wrong answers: a fault
	// trips the audit and the round is retried, or fails with its typed
	// fault, instead of silently corrupting results.
	Audit bool
	// Injector installs a fault injector on the serving mesh (chaos
	// testing; see internal/faults). Nil disables injection.
	Injector mesh.Injector
	// MaxRetries is how many audited re-executions a failed round gets
	// before its batch fails with the last fault. 0 defaults to 3; negative
	// means no retries. Attempts are spaced by Backoff's jittered
	// exponential sleeps.
	MaxRetries int
	// BackoffSeed seeds the retry ladder's backoff jitter so chaos runs are
	// reproducible end-to-end: with the fault injector seeded but the backoff
	// drawing from the process-global rand, two identical chaos runs sleep
	// differently between retries. 0 keeps the global source (the default).
	BackoffSeed int64
	// DisableOracle is kept only for source compatibility: an instance
	// always surfaces typed faults, and the fleet owns the oracle rung.
	//
	// Deprecated: no effect.
	DisableOracle bool
	// BreakerWindow is the number of recent mesh rounds in the circuit
	// breaker's sliding window (0 defaults to 16). The circuit opens when
	// half of them failed their first attempt (breakerThreshold).
	BreakerWindow int

	// Obs installs the wall-clock observability layer (DESIGN.md §3.9):
	// every Lookup gets a per-stage traced ReqTrace, stage histograms feed
	// the Prometheus exposition, and completed traces are retained for
	// /debug/traces. Nil (the default) disables all of it at the cost of one
	// pointer check per stage boundary — the mesh.Tracer/Injector pattern.
	// An instance inside a fleet shares the fleet's Observer, so its stage
	// marks land on the trace the fleet began. An Observer built with
	// obs.Config.Classes = KindNames() splits stage histograms by kind.
	Obs *obs.Observer
}

// Result is the answer to one lookup.
type Result struct {
	Kind    Kind  `json:"kind"`
	Needle  int64 `json:"needle"`
	Found   bool  `json:"found"`
	LeafKey int64 `json:"leaf_key"` // key of the reached leaf (= Value)
	// Value is the kind's primary answer: leaf key (membership), triangle
	// index (pointloc), intersection count (interval), wedge index
	// (linepoly), extreme vertex index (tangent).
	Value int64 `json:"value"`
	// Aux is the kind's secondary answer (the tangent plane offset d·v).
	Aux   int64 `json:"aux,omitempty"`
	Steps int32 `json:"steps"` // search-path length of this query
	Round int64 `json:"round"` // serving round that answered it
	// Degraded marks an answer produced by the fleet's host-side oracle
	// instead of a mesh round: correct, but unaccounted in simulated mesh
	// steps. An instance never sets it.
	Degraded bool `json:"degraded,omitempty"`
}

// KindStats is the per-kind slice of the serving counters.
type KindStats struct {
	Kind     string `json:"kind"`
	Served   int64  `json:"served"`
	Rounds   int64  `json:"rounds"`
	SimSteps int64  `json:"sim_steps"`
}

// Stats is a point-in-time snapshot of the serving counters. Every lookup
// an instance answers is mesh-served.
type Stats struct {
	Accepted   int64 `json:"accepted"`    // lookups admitted to the queue
	Rejected   int64 `json:"rejected"`    // lookups refused with ErrOverloaded
	Served     int64 `json:"served"`      // lookups answered successfully
	Failed     int64 `json:"failed"`      // lookups answered with a round error
	Rounds     int64 `json:"rounds"`      // serving rounds: batches that reached the mesh
	SimSteps   int64 `json:"sim_steps"`   // simulated mesh steps across all rounds
	LastBatch  int64 `json:"last_batch"`  // size of the most recent batch
	PeakBatch  int64 `json:"peak_batch"`  // largest batch so far
	StepBudget int64 `json:"step_budget"` // configured per-round budget (0 = unlimited)

	// BudgetShed counts lookups refused (at admission) or failed (in the
	// retry ladder) with ErrBudgetExhausted: doomed work shed before a mesh
	// round was burned on it (DESIGN.md §3.11).
	BudgetShed int64 `json:"budget_shed"`

	// Recovery accounting (DESIGN.md §3.6).
	Retries        int64  `json:"retries"`        // audited re-executions of failed rounds
	Recovered      int64  `json:"recovered"`      // rounds that failed, then succeeded on a retry
	CircuitOpens   int64  `json:"circuit_opens"`  // healthy → degraded transitions
	CircuitCloses  int64  `json:"circuit_closes"` // degraded → healthy transitions
	CanaryRounds   int64  `json:"canary_rounds"`  // audited canary probes executed
	CanaryFails    int64  `json:"canary_fails"`   // canary probes that failed
	FaultsAudit    int64  `json:"faults_audit"`   // round attempts failed by fault class
	FaultsBudget   int64  `json:"faults_budget"`
	FaultsCanceled int64  `json:"faults_canceled"`
	FaultsPanic    int64  `json:"faults_panic"`
	FaultsOther    int64  `json:"faults_other"`
	Health         string `json:"health"` // the fleet's verdict, set only on fleet.Stats.Agg

	// Kinds splits the served, round and sim-step counters by query kind,
	// in enabled-kind order (DESIGN.md §3.10). Serving latency is not here:
	// LatencySnapshot and LatencyMeshSnapshot expose the histograms.
	Kinds []KindStats `json:"kinds,omitempty"`
}

type request struct {
	args Args
	resp chan Response
	// deadline is the client context's deadline (zero when it has none). It
	// rides the request through the pipeline so the collector can cut linger
	// short and the retry ladder can shed a batch no deadline can survive.
	deadline time.Time
	// tr is the request's wall-clock trace (nil when observability is off).
	// Ownership moves with the request along the pipeline's channel handoffs
	// — Submit → queue → collector → batches → executor → resp → the
	// ticket's holder — so stage marks need no locks.
	tr *obs.ReqTrace
}

// kindRuntime is one enabled kind's serving state: its structure, its
// mesh-resident registers, its admission queue and collector, and its
// counters. The executor multiplexes rounds across the runtimes on the one
// shared mesh.
type kindRuntime struct {
	kind     Kind
	st       Structure
	in       *core.Instance
	queue    chan request
	maxBatch int // requests per round: Config.MaxBatch / PerRequest
	// spare holds batch slices the executor has served, for collect to
	// reuse. A kind has at most three batches at once (one assembling, one
	// in the one-slot pipeline channel, one in its round), so three spares
	// keep every slice it ever made once it falls idle.
	spare chan []request
	// args, queries and results are the executor's per-round slices: the
	// batch's arguments, its start-configured queries and its finished
	// ones. Only the executor goroutine touches them.
	args             []Args
	queries, results []core.Query

	rounds, served, simSteps atomic.Int64
	// stepsEWMA tracks recent mesh steps per round of this kind (EWMA ×256
	// fixed-point), the steps half of the expected-round-time product.
	stepsEWMA atomic.Int64
}

// kindBatch is one collected batch annotated with its kind runtime.
type kindBatch struct {
	kr   *kindRuntime
	reqs []request
}

// Instance owns one mesh with the built structures of its enabled kinds and
// serves batched lookups against them: the per-kind collectors, the shared
// executor, the recovery ladder, the breaker state, and the serving
// counters — the unit internal/fleet replicates and routes between. Safe
// for concurrent use.
type Instance struct {
	cfg      Config
	m        *mesh.Mesh
	ss       *StructureSet
	bt       *dict.BTree
	kinds    []Kind
	kr       [NumKinds]*kindRuntime
	maxBatch int

	batches chan kindBatch
	runCtx  context.Context
	cancel  context.CancelFunc
	done    chan struct{}

	mu     sync.RWMutex // guards closed against Lookup's queue send
	closed bool

	accepted, rejected, served, failed atomic.Int64
	budgetShed                         atomic.Int64
	rounds, simSteps                   atomic.Int64
	lastBatch, peakBatch               atomic.Int64
	// nsPerStep is the observed steps-to-wall-clock ratio (float64 bits),
	// an EWMA over mesh rounds. With the step budget (Theorem 2's
	// O(√n) bound) it predicts round latency: expected ≈ steps × ns/step.
	nsPerStep atomic.Uint64
	lat       obs.Histogram // delivered-response latency, admission → response
	latMesh   obs.Histogram // answered subset
	obs       *obs.Observer

	// Recovery state (DESIGN.md §3.6). maxRetries/backoff are the resolved
	// Config knobs; brk is owned by the executor goroutine; circuitOpen
	// mirrors brk's verdict for readers (CircuitOpen, the fleet's router).
	// canaries carries Canary's requests to the executor.
	maxRetries  int
	backoff     Backoff
	brk         *breaker
	canaries    chan chan error
	circuitOpen atomic.Bool

	// slots keeps the response channels of answered lookups for reuse
	// (takeSlot). An abandoned lookup never puts its slot back.
	slots freelist.List[chan Response]

	retries, recovered           atomic.Int64
	circuitOpens, circuitCloses  atomic.Int64
	canaryRounds, canaryFailures atomic.Int64
	faults                       [core.FaultOther + 1]atomic.Int64
}

// New builds the enabled kinds' structures, loads them onto a fresh mesh,
// and starts the serving loop. The returned instance answers Lookups until
// Shutdown.
func New(cfg Config) (*Instance, error) {
	if cfg.Side <= 0 || cfg.Side&(cfg.Side-1) != 0 {
		return nil, fmt.Errorf("serve: side must be a positive power of two, got %d", cfg.Side)
	}
	n := cfg.Side * cfg.Side
	ss, err := BuildStructures(cfg.Side, DefaultKeys(n/4), 2, 3, cfg.Kinds)
	if err != nil {
		return nil, err
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 || maxBatch > n {
		maxBatch = n
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4 * maxBatch
	}

	ctx, cancel := context.WithCancel(context.Background())
	opts := []mesh.Option{
		mesh.WithBudget(cfg.Budget),
		mesh.WithContext(ctx),
	}
	if cfg.Audit {
		opts = append(opts, mesh.WithAudit())
	}
	if cfg.Tracer != nil {
		cfg.Tracer.SetRetain(retainRuns)
		opts = append(opts, mesh.WithTracer(cfg.Tracer))
	}
	if cfg.Parallelism > 0 {
		opts = append(opts, mesh.WithParallelism(cfg.Parallelism))
	}
	m := mesh.New(cfg.Side, opts...)

	maxRetries := cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = 3
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	window := cfg.BreakerWindow
	if window <= 0 {
		window = 16
	}
	var backoff Backoff
	if cfg.BackoffSeed != 0 {
		backoff.Jitter = SeededJitter(cfg.BackoffSeed)
	}

	s := &Instance{
		cfg:        cfg,
		m:          m,
		ss:         ss,
		bt:         ss.Membership(),
		kinds:      ss.Kinds(),
		maxBatch:   maxBatch,
		batches:    make(chan kindBatch, 1),
		runCtx:     ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		maxRetries: maxRetries,
		backoff:    backoff,
		brk:        newBreaker(window),
		canaries:   make(chan chan error),
		obs:        cfg.Obs,
	}
	for _, k := range s.kinds {
		st := ss.Get(k)
		per := max(1, st.PerRequest())
		kr := &kindRuntime{
			kind:     k,
			st:       st,
			in:       core.NewInstance(m, st.Graph(), nil, st.Successor()),
			queue:    make(chan request, depth),
			maxBatch: max(1, maxBatch/per),
			spare:    make(chan []request, 3),
		}
		s.kr[k] = kr
	}
	// The injector goes in only after every structure is resident: a fault
	// injected during host-side construction would surface outside the
	// core.Run containment boundary and crash the process instead of
	// entering the recovery ladder. The serving goroutines have not started,
	// so the mesh is quiescent as SetInjector requires.
	if cfg.Injector != nil {
		m.SetInjector(cfg.Injector)
	}
	var collectors sync.WaitGroup
	for _, k := range s.kinds {
		collectors.Add(1)
		kr := s.kr[k]
		go func() {
			defer collectors.Done()
			s.collect(kr)
		}()
	}
	go func() {
		collectors.Wait()
		close(s.batches)
	}()
	go s.execute()
	return s, nil
}

// CircuitOpen reports whether the breaker has opened: the mesh path is
// distrusted, and batches fail fast with ErrCircuitOpen until a Canary
// closes the circuit.
func (s *Instance) CircuitOpen() bool { return s.circuitOpen.Load() }

// Canary runs one audited canary round per enabled kind on the executor
// goroutine — queued behind the round in flight, since that goroutine alone
// touches the mesh — and closes the circuit when every answer matches the
// host oracle. It returns nil when the canary passed, the round's fault or
// a mismatch error when it failed, ErrClosed once Shutdown has begun, and
// ctx's error if ctx ends first. The fleet's prober is its only caller
// outside tests.
func (s *Instance) Canary(ctx context.Context) error {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	done := make(chan error, 1)
	select {
	case s.canaries <- done:
	case <-s.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Tree exposes the served dictionary (for oracle checks in tests and the
// load generator).
func (s *Instance) Tree() *dict.BTree { return s.bt }

// Structures exposes the kind registry (fleet oracle rung, load-generator
// oracle checks, tests).
func (s *Instance) Structures() *StructureSet { return s.ss }

// Kinds lists the kinds this instance serves, in registry order.
func (s *Instance) Kinds() []Kind { return append([]Kind(nil), s.kinds...) }

// MaxBatch reports the effective per-round batch cap (membership; kinds
// with PerRequest > 1 divide it).
func (s *Instance) MaxBatch() int { return s.maxBatch }

// Side reports the mesh side length.
func (s *Instance) Side() int { return s.cfg.Side }

// QueueLen is the current admission backlog summed across kinds — the load
// signal the fleet's least-loaded routing policy reads. A point-in-time
// sample.
func (s *Instance) QueueLen() int {
	total := 0
	for _, k := range s.kinds {
		total += len(s.kr[k].queue)
	}
	return total
}

// InFlight is how many admitted lookups are not yet answered or failed —
// the chaos monkey's signal that a crash now would force a failover. A
// point-in-time sample that can briefly read low.
func (s *Instance) InFlight() int64 {
	return s.accepted.Load() - s.served.Load() - s.failed.Load()
}

// QueueCap is the admission capacity summed across kinds.
func (s *Instance) QueueCap() int {
	total := 0
	for _, k := range s.kinds {
		total += cap(s.kr[k].queue)
	}
	return total
}

// RetryAfterHint estimates how long a rejected (or routed-around) client
// should wait before retrying this instance: the time for the current
// admission backlog to drain, at one fill window per queued round, with a
// floor of one window. The fleet's backpressure signal takes the minimum of
// this hint across healthy replicas, so a 429 reflects the soonest any
// replica could accept work.
func (s *Instance) RetryAfterHint() time.Duration {
	per := s.cfg.Linger
	if per <= 0 {
		per = time.Millisecond
	}
	return time.Duration(s.QueueLen()/s.maxBatch+1) * per
}

// observeStepRatio feeds one completed mesh attempt into the ns/step EWMA
// and the kind's steps-per-round EWMA (executor goroutine only; readers load
// the atomics). α = 1/4: responsive to a replica turning slow within a few
// rounds, stable against one outlier round.
func (s *Instance) observeStepRatio(kr *kindRuntime, steps int64, wall time.Duration) {
	if steps <= 0 || wall <= 0 {
		return
	}
	ratio := float64(wall) / float64(steps)
	if old := math.Float64frombits(s.nsPerStep.Load()); old > 0 {
		ratio = old + (ratio-old)/4
	}
	s.nsPerStep.Store(math.Float64bits(ratio))
	scaled := steps * 256
	if old := kr.stepsEWMA.Load(); old > 0 {
		scaled = old + (scaled-old)/4
	}
	kr.stepsEWMA.Store(scaled)
}

// expectedRoundDur predicts one mesh round's wall-clock cost for the kind:
// expected steps × observed ns/step. The steps estimate is the kind's recent
// per-round EWMA, capped by the configured step budget (the Theorem 2 O(√n)
// bound — a round provably never runs longer, so the prediction never
// exceeds what the budget enforces); before any round has been observed the
// prediction is 0, meaning "unknown: never shed".
func (s *Instance) expectedRoundDur(kr *kindRuntime) time.Duration {
	ratio := math.Float64frombits(s.nsPerStep.Load())
	if ratio <= 0 {
		return 0
	}
	steps := kr.stepsEWMA.Load() / 256
	if budget := s.cfg.Budget; budget > 0 && (steps <= 0 || steps > budget) {
		steps = budget
	}
	if steps <= 0 {
		return 0
	}
	return time.Duration(float64(steps) * ratio)
}

// ExpectedRoundTime predicts admission-to-answer time for one lookup of the
// kind under current conditions: one full linger window plus one expected
// mesh round (DESIGN.md §3.11). This is the budget-check threshold at every
// rung — admission here, the pre-dispatch check in the fleet's failover
// ladder — and it is per-instance: a slow replica predicts honestly longer
// times than its healthy peers, which is exactly what lets the fleet route
// a tight-deadline lookup to a replica that can still make it. 0 = unknown
// (no round observed yet); unknown never sheds.
func (s *Instance) ExpectedRoundTime(kind Kind) time.Duration {
	if kind >= NumKinds || s.kr[kind] == nil {
		return 0
	}
	round := s.expectedRoundDur(s.kr[kind])
	if round <= 0 {
		return 0
	}
	if s.cfg.Linger > 0 {
		round += s.cfg.Linger
	}
	return round
}

// Lookup submits one membership query and blocks until its round completes,
// ctx is done, or the server refuses it (ErrOverloaded when the admission
// queue is full, ErrClosed after Shutdown).
func (s *Instance) Lookup(ctx context.Context, needle int64) (Result, error) {
	return s.LookupKind(ctx, KindMembership, Args{needle})
}

// LookupKind submits one query of the given kind and blocks until its round
// completes, ctx is done, or the server refuses it (ErrOverloaded when the
// kind's admission queue is full, ErrClosed after Shutdown,
// ErrKindNotServed for a kind this instance does not serve). It is Submit
// and one wait on the ticket's slot and ctx.
//
// In steady state with observability off a lookup allocates nothing: its
// response slot comes from the instance's kept slots, and the rare paths
// (shed, refusal, tracing) run out of line, so the frame stays small enough
// for a fresh goroutine's stack.
func (s *Instance) LookupKind(ctx context.Context, kind Kind, args Args) (Result, error) {
	t, err := s.Submit(ctx, kind, args)
	if err != nil {
		return Result{}, err
	}
	select {
	case r := <-t.Ready():
		return t.Collect(r)
	case <-ctx.Done():
		t.Abandon()
		return Result{}, ctx.Err()
	}
}

// Ticket is one admitted lookup awaiting its round. Its holder receives
// the response from Ready and passes it to Collect, or gives up with
// Abandon; exactly one of the two, once. The zero Ticket's Ready is nil,
// so a select never picks it.
type Ticket struct {
	s       *Instance
	resp    chan Response
	tr      *obs.ReqTrace
	created bool // the lookup began tr, so Collect or Abandon ends it
	start   time.Time
}

// Response is a submitted lookup's answer or round fault, as its ticket's
// slot delivers it.
type Response struct {
	res Result
	err error
}

// Submit admits one query of the given kind without waiting for its round:
// everything LookupKind does before it blocks. ctx supplies the deadline the
// budget rungs check and the trace the lookup marks; Submit keeps neither,
// so the caller alone decides when to stop waiting. It fails as LookupKind
// does with ErrKindNotServed, ErrBudgetExhausted, ErrClosed, ErrOverloaded
// or ctx's error, and then there is nothing to collect.
func (s *Instance) Submit(ctx context.Context, kind Kind, args Args) (Ticket, error) {
	start := time.Now()
	if kind >= NumKinds || s.kr[kind] == nil {
		return Ticket{}, ErrKindNotServed
	}
	kr := s.kr[kind]
	deadline, err := s.admitDeadline(ctx, kind, args, start)
	if err != nil {
		return Ticket{}, err
	}
	// Observability (nil s.obs skips everything, even the ctx lookups): the
	// trace either arrives on ctx — the fleet began it and will finish it —
	// or is begun here, in which case the ticket finishes it ("creator
	// finalizes": exactly one goroutine may seal a trace).
	var tr *obs.ReqTrace
	created := false
	if s.obs != nil {
		tr, created = s.beginTrace(ctx, kind, args, start)
	}
	resp := s.takeSlot()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.slots.Put(resp)
		return Ticket{}, s.refuse(tr, created, obs.OutcomeClosed, ErrClosed)
	}
	// The admit mark must land before the queue send: once the request is
	// enqueued the collector owns the trace, and a mark from this goroutine
	// would race the collector's queue-wait mark.
	if tr != nil {
		tr.Mark(obs.StageAdmit)
	}
	// Non-blocking admission under the read lock: Shutdown takes the write
	// lock before closing the queue, so this send cannot race the close.
	select {
	case kr.queue <- request{args: args, resp: resp, deadline: deadline, tr: tr}:
		s.mu.RUnlock()
		s.accepted.Add(1)
	default:
		s.mu.RUnlock()
		s.slots.Put(resp)
		s.rejected.Add(1)
		return Ticket{}, s.refuse(tr, created, obs.OutcomeRejected, ErrOverloaded)
	}
	return Ticket{s: s, resp: resp, tr: tr, created: created, start: start}, nil
}

// Ready is the ticket's response slot: it delivers one Response, the
// lookup's answer or round fault.
func (t *Ticket) Ready() <-chan Response { return t.resp }

// Collect ends the lookup with the response received from Ready: it puts
// the slot back, records the latency and, if the lookup began its trace,
// finishes it.
func (t *Ticket) Collect(r Response) (Result, error) {
	// The round sent its one response: the slot is empty again.
	t.s.slots.Put(t.resp)
	t.s.answered(t.tr, t.created, &r, t.start)
	return r.res, r.err
}

// Elapsed is the time since Submit began admitting the lookup.
func (t *Ticket) Elapsed() time.Duration { return time.Since(t.start) }

// Abandon ends the lookup without its response. The round still answers
// into the abandoned slot, which is never put back — no later lookup can
// receive this response — and is garbage-collected with it. The trace stays
// with the request — the executor may still be marking stages into it — so
// it is counted abandoned, never finished or retained.
func (t *Ticket) Abandon() {
	if t.created {
		t.s.obs.Abandon(t.tr)
	}
}

// takeSlot returns an empty response slot: a kept one, or a new one. A slot
// holds one response, so a round's send never blocks the executor.
func (s *Instance) takeSlot() chan Response {
	if c, ok := s.slots.Get(); ok {
		return c
	}
	return make(chan Response, 1)
}

// admitDeadline is the deadline-budget admission rung (DESIGN.md §3.11).
// It returns ctx's deadline, zero when ctx has none. A lookup whose
// remaining budget cannot cover one linger window plus one expected round
// is doomed: it is shed now with ErrBudgetExhausted instead of queueing,
// lingering, and expiring mid-round. No deadline, or no observed rounds
// yet, skips the check.
//
//go:noinline
func (s *Instance) admitDeadline(ctx context.Context, kind Kind, args Args, start time.Time) (time.Time, error) {
	dl, ok := ctx.Deadline()
	if !ok {
		return time.Time{}, nil
	}
	if err := ctx.Err(); err != nil {
		return time.Time{}, err
	}
	if need := s.ExpectedRoundTime(kind); need <= 0 || time.Until(dl) >= need {
		return dl, nil
	}
	s.budgetShed.Add(1)
	if s.obs != nil {
		// A shed lookup without a trace still leaves a finished error one.
		if tr := obs.FromContext(ctx); tr == nil {
			tr = s.obs.BeginClass(int(kind), obs.ParentFromContext(ctx), args[0], start)
			s.obs.Finish(tr, obs.OutcomeError, ErrBudgetExhausted)
		}
	}
	return time.Time{}, ErrBudgetExhausted
}

// beginTrace adopts the request trace ctx carries, or begins one that the
// lookup then finishes (created).
//
//go:noinline
func (s *Instance) beginTrace(ctx context.Context, kind Kind, args Args, start time.Time) (tr *obs.ReqTrace, created bool) {
	if tr = obs.FromContext(ctx); tr == nil {
		tr = s.obs.BeginClass(int(kind), obs.ParentFromContext(ctx), args[0], start)
		created = true
	}
	return tr, created
}

// refuse finishes the trace of a lookup refused before admission, if the
// lookup began it, and returns err.
//
//go:noinline
func (s *Instance) refuse(tr *obs.ReqTrace, created bool, oc obs.Outcome, err error) error {
	if created {
		s.obs.Finish(tr, oc, err)
	}
	return err
}

// answered records a delivered response: the latency histograms and, if
// the lookup began its trace, the finished trace. Latency is admission →
// response, answers and round faults alike; rejected and abandoned lookups
// never reach a round, so they do not pollute the serving histogram.
//
//go:noinline
func (s *Instance) answered(tr *obs.ReqTrace, created bool, r *Response, start time.Time) {
	e2e := time.Since(start)
	s.lat.Observe(e2e)
	oc := obs.OutcomeError
	if r.err == nil {
		s.latMesh.Observe(e2e)
		oc = obs.OutcomeMesh
	}
	if created {
		s.obs.Finish(tr, oc, r.err)
	}
}

// LatencySnapshot exposes the raw latency histogram, which the fleet merges
// bucket-exact across replicas for its Prometheus exposition.
func (s *Instance) LatencySnapshot() obs.HistSnapshot { return s.lat.Snapshot() }

// LatencyMeshSnapshot exposes the answered subset's latency histogram,
// merged by the fleet like LatencySnapshot.
func (s *Instance) LatencyMeshSnapshot() obs.HistSnapshot { return s.latMesh.Snapshot() }

// collect is one kind's admission stage: it blocks for a round's first
// query, then fills the batch until the kind's batch cap or the linger
// deadline, and hands it to the executor. The one-slot batches channel lets
// the next batch assemble while the current round simulates; batches of
// different kinds interleave in arrival order.
func (s *Instance) collect(kr *kindRuntime) {
	// One linger timer serves every batch: it is stopped between batches,
	// and drained when it fired unseen, so a Reset never sees a stale tick.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		first, ok := <-kr.queue
		if !ok {
			return
		}
		if first.tr != nil {
			first.tr.Mark(obs.StageQueue)
		}
		batch := append(kr.takeBatch(), first)
		// Deadline-budget linger rung (DESIGN.md §3.11): lingering is spending
		// the first request's budget, so cap the fill window at what its
		// deadline can afford after one expected round. A batch whose opener
		// has no time to linger starts its round immediately.
		linger := s.cfg.Linger
		if linger > 0 && !first.deadline.IsZero() {
			if afford := time.Until(first.deadline) - s.expectedRoundDur(kr); afford < linger {
				linger = afford
			}
		}
		if linger > 0 {
			timer.Reset(linger)
			fired := false
		fill:
			for len(batch) < kr.maxBatch {
				select {
				case r, ok := <-kr.queue:
					if !ok {
						break fill
					}
					if r.tr != nil {
						r.tr.Mark(obs.StageQueue)
					}
					batch = append(batch, r)
				case <-timer.C:
					fired = true
					break fill
				}
			}
			if !timer.Stop() && !fired {
				<-timer.C
			}
		} else {
		greedy:
			for len(batch) < kr.maxBatch {
				select {
				case r, ok := <-kr.queue:
					if !ok {
						break greedy
					}
					if r.tr != nil {
						r.tr.Mark(obs.StageQueue)
					}
					batch = append(batch, r)
				default:
					break greedy
				}
			}
		}
		s.batches <- kindBatch{kr: kr, reqs: batch}
	}
}

// takeBatch returns an empty batch slice with room for the kind's batch
// cap: a served batch's slice when one is spare, else a new one.
func (kr *kindRuntime) takeBatch() []request {
	select {
	case b := <-kr.spare:
		return b
	default:
		return make([]request, 0, kr.maxBatch)
	}
}

// giveBatch hands a served batch's slice back to its kind. It is cleared
// first, so no response channel or trace stays reachable from the spare.
func (kr *kindRuntime) giveBatch(b []request) {
	clear(b)
	select {
	case kr.spare <- b[:0]:
	default:
	}
}

// execute serves batches and Canary requests until every collector drains.
// It is the only goroutine that touches the mesh, which is what makes the
// recovery ladder's audit and budget toggling and breaker bookkeeping
// lock-free.
func (s *Instance) execute() {
	defer close(s.done)
	for {
		select {
		case b, ok := <-s.batches:
			if !ok {
				return
			}
			s.serveBatch(b.kr, b.reqs)
			b.kr.giveBatch(b.reqs)
		case done := <-s.canaries:
			done <- s.runCanary()
		}
	}
}

// Shutdown stops admission and drains: queued and in-flight batches are
// answered through the normal round path. If ctx expires first, the mesh
// run is cancelled through the run-control seam — the in-flight round (and
// any still-queued batch) fails fast with a *mesh.CanceledError delivered
// to its clients — and Shutdown returns ctx.Err(). Safe to call once.
func (s *Instance) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	for _, k := range s.kinds {
		close(s.kr[k].queue)
	}
	s.mu.Unlock()

	select {
	case <-s.done:
		s.cancel()
		return nil
	case <-ctx.Done():
		s.cancel()
		<-s.done
		return ctx.Err()
	}
}

// Stats returns a snapshot of the serving counters.
func (s *Instance) Stats() Stats {
	st := Stats{
		Accepted:   s.accepted.Load(),
		Rejected:   s.rejected.Load(),
		Served:     s.served.Load(),
		Failed:     s.failed.Load(),
		BudgetShed: s.budgetShed.Load(),
		Rounds:     s.rounds.Load(),
		SimSteps:   s.simSteps.Load(),
		LastBatch:  s.lastBatch.Load(),
		PeakBatch:  s.peakBatch.Load(),
		StepBudget: s.cfg.Budget,

		Retries:        s.retries.Load(),
		Recovered:      s.recovered.Load(),
		CircuitOpens:   s.circuitOpens.Load(),
		CircuitCloses:  s.circuitCloses.Load(),
		CanaryRounds:   s.canaryRounds.Load(),
		CanaryFails:    s.canaryFailures.Load(),
		FaultsAudit:    s.faults[core.FaultAudit].Load(),
		FaultsBudget:   s.faults[core.FaultBudget].Load(),
		FaultsCanceled: s.faults[core.FaultCanceled].Load(),
		FaultsPanic:    s.faults[core.FaultPanic].Load(),
		FaultsOther:    s.faults[core.FaultOther].Load(),
	}
	for _, k := range s.kinds {
		kr := s.kr[k]
		st.Kinds = append(st.Kinds, KindStats{
			Kind:     k.String(),
			Served:   kr.served.Load(),
			Rounds:   kr.rounds.Load(),
			SimSteps: kr.simSteps.Load(),
		})
	}
	return st
}
