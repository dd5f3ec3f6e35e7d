package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// This file is the recovery ladder around the round executor (DESIGN.md
// §3.6). Everything here runs on the executor goroutine — the only
// goroutine that touches the mesh — so audit toggling, breaker
// bookkeeping and canary rounds need no locks; the rest
// of the server observes the outcome through the atomic counters and the
// circuitOpen flag.

// serveBatch answers one batch of one kind. Circuit open: fail fast with
// ErrCircuitOpen — only a Canary closes the circuit. Circuit closed: run
// the retry ladder — attempt the round, classify any fault, re-execute with
// auditing forced on under jittered backoff, and fail the batch with the
// last fault when the mesh keeps failing. The instance never answers from
// the host oracle: the fleet fails the lookup over, and only then answers
// from its own oracle rung. A batch counts as a serving round only once it
// reaches the mesh: one failed fast or shed before its first attempt does
// not.
func (s *Instance) serveBatch(kr *kindRuntime, batch []request) {
	// One clock read closes the linger span of the whole batch: dequeue →
	// round start, including the wait in the one-slot pipeline channel.
	s.markBatch(batch, obs.StageLinger)

	if s.circuitOpen.Load() {
		// Fail fast with the typed circuit error so the fleet can
		// re-dispatch the lookup to a replica whose mesh is still trusted.
		s.failBatch(batch, ErrCircuitOpen)
		return
	}

	kr.args = kr.args[:0]
	for _, r := range batch {
		kr.args = append(kr.args, r.args)
	}
	kr.queries = kr.st.AppendQueries(kr.queries[:0], kr.args)
	var round int64
	var lastErr error
	for attempt := 0; attempt <= s.maxRetries; attempt++ {
		if attempt > 0 {
			s.retries.Add(1)
			s.m.SetAudit(true) // escalate strictness on every re-execution
			ok := s.backoff.Sleep(s.runCtx, attempt-1)
			s.markBatch(batch, obs.StageBackoff)
			if !ok {
				break // server context gone: no point re-executing
			}
		}
		// Deadline-budget retry rung (DESIGN.md §3.11): when no deadline in
		// the batch can survive one more expected round, the attempt would
		// answer nobody — shed the batch with the typed budget error instead
		// of burning the mesh time. Checked before the first attempt too
		// (a batch can expire while waiting in the one-slot pipeline).
		if batchDoomed(batch, s.expectedRoundDur(kr)) {
			if attempt > 0 {
				s.m.SetAudit(s.cfg.Audit)
				s.observeRound(true, false)
			}
			s.budgetShed.Add(int64(len(batch)))
			s.failBatch(batch, ErrBudgetExhausted)
			return
		}
		tag := ""
		if attempt > 0 {
			tag = fmt.Sprintf("retry %d audited", attempt)
		} else {
			round = s.countRound(kr, len(batch))
		}
		results, h, err := s.meshRound(kr, roundName{kr.kind, round, attempt}, tag, kr.queries)
		// Each attempt — failed ones included — closes its own mesh-round
		// span, so a recovered batch's trace shows mesh/backoff/mesh/...
		s.markBatch(batch, obs.StageMesh)
		if err == nil {
			if attempt > 0 {
				s.recovered.Add(1)
				s.m.SetAudit(s.cfg.Audit)
			}
			// Count before delivering, as failBatch does: a client that
			// holds its answer must find it in Stats.
			s.served.Add(int64(len(batch)))
			kr.served.Add(int64(len(batch)))
			seq, label := h.Seq(), h.Label()
			for i, r := range batch {
				ans := kr.st.Extract(results, i)
				if r.tr != nil {
					// Cross-link before the resp send: delivery hands the
					// trace back to the ticket's holder.
					r.tr.LinkRun(seq, label)
				}
				r.resp <- Response{res: Result{
					Kind:    kr.kind,
					Needle:  r.args[0],
					Found:   ans.Found,
					LeafKey: ans.Value,
					Value:   ans.Value,
					Aux:     ans.Aux,
					Steps:   ans.Steps,
					Round:   round,
				}}
			}
			s.observeRound(attempt > 0, false)
			return
		}
		lastErr = err
		class := core.Classify(err)
		s.faults[class].Add(1)
		if !class.Retryable() {
			break
		}
	}
	// The breaker records the terminal failure and opens the circuit; the
	// fault surfaces for the fleet to fail over.
	s.m.SetAudit(s.cfg.Audit)
	s.observeRound(true, true)
	s.failBatch(batch, lastErr)
}

// countRound counts one serving round of the kind, a batch of n that
// reached the mesh, and returns its number.
func (s *Instance) countRound(kr *kindRuntime, n int) int64 {
	kr.rounds.Add(1)
	s.lastBatch.Store(int64(n))
	if int64(n) > s.peakBatch.Load() {
		s.peakBatch.Store(int64(n))
	}
	return s.rounds.Add(1)
}

// batchDoomed reports whether every request of the batch carries a deadline
// that cannot survive one more round of the given expected duration: the
// shed condition of the retry-ladder budget rung. A single request without a
// deadline (or with budget to spare) keeps the batch alive — the round runs
// and answers whoever is still listening.
func batchDoomed(batch []request, need time.Duration) bool {
	now := time.Now()
	for _, r := range batch {
		if r.deadline.IsZero() || r.deadline.Sub(now) > need {
			return false
		}
	}
	return true
}

// failBatch delivers one error to every query of the batch.
func (s *Instance) failBatch(batch []request, err error) {
	s.failed.Add(int64(len(batch)))
	for _, r := range batch {
		r.resp <- Response{err: err}
	}
}

// roundName names one mesh attempt: its traced span ("… q=N") and the
// label of the *core.RunError it fails with. It is formatted only when a
// tracer is installed or the attempt fails, so an untraced round that
// succeeds formats nothing.
type roundName struct {
	kind    Kind
	round   int64 // serving round, or canary round
	attempt int   // retry-ladder attempt; canaryAttempt for a canary round
}

// canaryAttempt marks a canary round's roundName.
const canaryAttempt = -1

func (n roundName) String() string {
	if n.attempt == canaryAttempt {
		return fmt.Sprintf("canary %s %d", n.kind, n.round)
	}
	return fmt.Sprintf("serve %s round %d attempt %d", n.kind, n.round, n.attempt)
}

// meshRound executes one mesh attempt of one kind: reset the step clock
// (per-attempt budget, fresh traced run — tagged when the attempt is a
// retry or canary), load the queries against the kind's resident
// structure, and run its multisearch inside the core.Run containment
// boundary. The results are the kind's reused slice,
// valid until its next round. The returned trace.Handle names this
// attempt's step-clock run (inert when no tracer is installed): tagging goes
// through it — keyed to the run, not "most recently attached", which was a
// cross-goroutine race when concurrent instances shared one Tracer — and the
// observability layer embeds its Seq/Label in the request traces it links.
func (s *Instance) meshRound(kr *kindRuntime, name roundName, tag string, queries []core.Query) ([]core.Query, trace.Handle, error) {
	s.m.ResetSteps()
	h, _ := trace.HandleFor(s.m.TraceRun())
	if tag != "" {
		h.Tag(tag)
	}
	t0 := time.Now()
	err := core.Run("", func() error {
		v := s.m.Root()
		if v.Traced() {
			defer trace.Span(v, "%s q=%d", name, len(queries))()
		}
		kr.in.ResetQueries(v, queries)
		kr.st.Search(v, kr.in)
		return nil
	})
	steps := s.m.Steps()
	s.simSteps.Add(steps)
	kr.simSteps.Add(steps)
	if err != nil {
		err.(*core.RunError).Label = name.String() // core.Run fails only with a *RunError
		return nil, h, err
	}
	// Completed rounds train the expected-round-time model (§3.11): wall
	// time over charged steps. A latency-injected mesh completes its rounds
	// slowly but correctly, so its growing ns/step ratio is exactly the gray
	// failure signal the budget checks and the fleet's ejection score read.
	s.observeStepRatio(kr, steps, time.Since(t0))
	kr.results = kr.in.AppendResultQueries(kr.results[:0])
	return kr.results, h, nil
}

// markBatch closes one stage span on every traced request of the batch with
// a single clock read, so all of a round's traces agree on where the batch
// boundary fell. No-op (no clock read) when observability is off.
func (s *Instance) markBatch(batch []request, stage obs.Stage) {
	if s.obs == nil {
		return
	}
	now := time.Now()
	for _, r := range batch {
		if r.tr != nil {
			r.tr.MarkAt(stage, now)
			if stage == obs.StageMesh {
				r.tr.Attempts++
			}
		}
	}
}

// observeRound feeds the circuit breaker with one mesh-path outcome.
// firstAttemptFailed is the breaker's signal (it measures mesh fault rate,
// not user-visible failures — a recovered round still counts against the
// window); terminal means the whole ladder failed, which opens the circuit
// immediately rather than waiting for the window to fill.
func (s *Instance) observeRound(firstAttemptFailed, terminal bool) {
	open := s.brk.record(firstAttemptFailed)
	if terminal || open {
		s.openCircuit()
	}
}

// openCircuit transitions healthy → degraded (idempotent).
func (s *Instance) openCircuit() {
	if s.circuitOpen.CompareAndSwap(false, true) {
		s.circuitOpens.Add(1)
		s.brk.reset()
	}
}

// closeCircuit transitions degraded → healthy (idempotent).
func (s *Instance) closeCircuit() {
	if s.circuitOpen.CompareAndSwap(true, false) {
		s.circuitCloses.Add(1)
		s.brk.reset()
	}
}

// runCanary probes the mesh with one audited round per enabled kind over
// each kind's small synthetic probe set, and closes the circuit only when
// every round completes and every answer agrees with the kind's host
// oracle; it returns nil then, and the first fault or mismatch otherwise.
// Canary answers go nowhere — the probe exists only to decide whether real
// traffic can trust the mesh again, and a mesh distrusted for one kind is
// distrusted for all (the fault classes are mesh-level, not
// structure-level).
func (s *Instance) runCanary() error {
	s.canaryRounds.Add(1)
	s.m.SetAudit(true)
	err := s.canaryKinds()
	s.m.SetAudit(s.cfg.Audit)
	if err != nil {
		s.canaryFailures.Add(1)
		if !errors.Is(err, errCanaryMismatch) {
			s.faults[core.Classify(err)].Add(1)
		}
		return err
	}
	s.closeCircuit()
	return nil
}

// errCanaryMismatch marks a canary answer that disagrees with the host
// oracle: silent corruption the audit did not catch.
var errCanaryMismatch = errors.New("serve: canary answer disagrees with the host oracle")

// canaryKinds runs each enabled kind's canary round, stopping at the first
// round fault or wrong answer.
func (s *Instance) canaryKinds() error {
	for _, kind := range s.kinds {
		kr := s.kr[kind]
		probes := kr.st.Canary()
		if len(probes) > s.m.N() {
			probes = probes[:s.m.N()]
		}
		results, _, err := s.meshRound(kr, roundName{kind, s.canaryRounds.Load(), canaryAttempt}, "canary", kr.st.MakeQueries(probes))
		if err != nil {
			return err
		}
		for i, probe := range probes {
			got, want := kr.st.Extract(results, i), HostAnswer(kr.st, probe)
			if got.Found != want.Found || got.Value != want.Value {
				return fmt.Errorf("%w (%s probe %v)", errCanaryMismatch, kind, probe)
			}
		}
	}
	return nil
}
