package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mesh"
	"repro/internal/trace"
)

// gateInjector injects a lying comparator into every sort while broken —
// a switchable mesh failure for driving the circuit breaker through its
// transitions.
type gateInjector struct{ broken atomic.Bool }

func (g *gateInjector) SortLie(_ string, items int) int64 {
	if g.broken.Load() && items >= 2 {
		return 1
	}
	return 0
}
func (g *gateInjector) CorruptCell(string, int) (int, int, bool) { return 0, 0, false }
func (g *gateInjector) DropReply(int) (int, bool)                { return 0, false }
func (g *gateInjector) DuplicateReply(int) (int, int, bool)      { return 0, 0, false }

// panicInjector panics at its n-th consultation (counting every seam),
// modelling a simulator bug surfacing mid-operation. It only counts once
// armed, so the chargeless register initialization in serve.New — which
// runs outside the core.Run containment boundary — is not a target.
type panicInjector struct {
	armed atomic.Bool
	mu    sync.Mutex
	calls int
	at    int
}

func (p *panicInjector) tick() {
	if !p.armed.Load() {
		return
	}
	p.mu.Lock()
	calls := p.calls
	p.calls++
	p.mu.Unlock()
	if calls == p.at {
		panic("injected simulator bug")
	}
}
func (p *panicInjector) SortLie(string, int) int64 { p.tick(); return 0 }
func (p *panicInjector) CorruptCell(string, int) (int, int, bool) {
	p.tick()
	return 0, 0, false
}
func (p *panicInjector) DropReply(int) (int, bool) { p.tick(); return 0, false }
func (p *panicInjector) DuplicateReply(int) (int, int, bool) {
	p.tick()
	return 0, 0, false
}

// TestTypedFaultsCrossRetryBoundary proves errors.As through serve.Lookup
// results still reaches the typed mesh faults once the retry ladder sits in
// between.
func TestTypedFaultsCrossRetryBoundary(t *testing.T) {
	t.Run("budget", func(t *testing.T) {
		s := newTestServer(t, Config{Side: 8, Budget: 3})
		_, err := s.Lookup(context.Background(), 1)
		var be *mesh.BudgetExceededError
		if !errors.As(err, &be) {
			t.Fatalf("lookup error %v does not unwrap to *mesh.BudgetExceededError", err)
		}
		st := s.Stats()
		if st.FaultsBudget == 0 {
			t.Fatalf("budget fault not classified: %+v", st)
		}
		if st.Retries != 0 {
			t.Fatalf("budget overrun was retried %d times; it is deterministic and must not be", st.Retries)
		}
	})

	t.Run("audit", func(t *testing.T) {
		g := &gateInjector{}
		g.broken.Store(true) // every sort lies, every attempt trips the audit
		s := newTestServer(t, Config{
			Side: 8, Audit: true, Injector: g,
			MaxRetries: 1,
		})
		_, err := s.Lookup(context.Background(), 1)
		var ae *mesh.AuditError
		if !errors.As(err, &ae) {
			t.Fatalf("lookup error %v does not unwrap to *mesh.AuditError", err)
		}
		st := s.Stats()
		if st.Retries != 1 {
			t.Fatalf("audit fault retried %d times, want exactly MaxRetries=1", st.Retries)
		}
		if st.FaultsAudit < 2 {
			t.Fatalf("want a classified audit fault per attempt, got %d", st.FaultsAudit)
		}
	})

	t.Run("panic", func(t *testing.T) {
		// A panic's envelope depends on where it fires: inside a RunParallel
		// body it surfaces as *mesh.PanicError, on the root chain as a
		// *core.RunError with the recovered stack. Sweep injection points:
		// every error must classify FaultPanic, and at least one must reach
		// *mesh.PanicError (the parallel regions of Algorithm 2 guarantee
		// consultations there).
		sawPanicError := false
		for _, at := range []int{0, 2, 4, 8, 16, 32, 64, 128} {
			inj := &panicInjector{at: at}
			s := newTestServer(t, Config{
				Side: 8, Injector: inj, MaxRetries: -1, Parallelism: 1,
			})
			inj.armed.Store(true)
			_, err := s.Lookup(context.Background(), 1)
			if err == nil {
				continue // injection point past this round's consultations
			}
			if got := core.Classify(err); got != core.FaultPanic {
				t.Fatalf("at=%d: classified %v, want %v (err: %v)", at, got, core.FaultPanic, err)
			}
			var pe *mesh.PanicError
			if errors.As(err, &pe) {
				sawPanicError = true
			}
			var re *core.RunError
			if !errors.As(err, &re) {
				t.Fatalf("at=%d: error %v lacks the *core.RunError envelope", at, err)
			}
		}
		if !sawPanicError {
			t.Fatal("no injection point surfaced as *mesh.PanicError through Lookup")
		}
	})
}

// TestChaosSortFaultRetriedAndRecovered is the satellite chaos proof: a
// seeded injector corrupts sorts under a live query stream, the audit
// catches every fault, the ladder retries, and every answer is still
// correct against the host oracle — zero wrong answers, zero failed
// queries.
func TestChaosSortFaultRetriedAndRecovered(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 42, PSortLie: 0.2, Limit: 5})
	s := newTestServer(t, Config{
		Side: 8, Audit: true, Injector: inj,
		MaxRetries: 6, Linger: 200 * time.Microsecond,
	})
	const clients, perClient = 8, 15
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				needle := int64((c*perClient + i) % 40)
				var res Result
				var err error
				for {
					res, err = s.Lookup(context.Background(), needle)
					if !errors.Is(err, ErrOverloaded) {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if err != nil {
					errs <- err
					return
				}
				if res.Found != s.Tree().Contains(needle) {
					errs <- errors.New("wrong membership answer under chaos")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if inj.Count() == 0 {
		t.Fatal("chaos injector never fired; the test proved nothing")
	}
	if st.FaultsAudit == 0 {
		t.Fatalf("injected sort faults were not caught by the audit: %+v (injected %d)", st, inj.Count())
	}
	if st.Retries == 0 || st.Recovered == 0 {
		t.Fatalf("no retry/recovery recorded: %+v", st)
	}
	if st.Failed != 0 {
		t.Fatalf("%d queries failed; recovery must make faults invisible: %+v", st.Failed, st)
	}
	if st.Served != clients*perClient {
		t.Fatalf("served %d, want %d", st.Served, clients*perClient)
	}
	t.Logf("injected %d faults → %d retries, %d recovered rounds",
		inj.Count(), st.Retries, st.Recovered)
}

// TestCircuitBreakerOpensAndCanaryCloses drives the full breaker cycle by
// hand: closed → (mesh breaks) a typed fault opens it → a canary on the
// still-broken mesh fails and leaves it open, and lookups fail fast with
// ErrCircuitOpen → (mesh heals) a canary closes it → mesh serving again. No canary runs unless asked: the instance has no
// prober of its own. (The /healthz 200 → 503 → 200 view of the same cycle,
// with the fleet's prober, is a fleet test.)
func TestCircuitBreakerOpensAndCanaryCloses(t *testing.T) {
	g := &gateInjector{}
	s := newTestServer(t, Config{
		Side: 8, Audit: true, Injector: g,
		MaxRetries: -1, BreakerWindow: 4,
	})
	ctx := context.Background()

	// Phase 1: healthy mesh serving.
	res, err := s.Lookup(ctx, 3)
	if err != nil || res.Degraded {
		t.Fatalf("healthy lookup: res=%+v err=%v", res, err)
	}
	if s.CircuitOpen() {
		t.Fatal("circuit open while serving from the mesh")
	}

	// Phase 2: break the mesh. The next round fails terminally (no
	// retries), the circuit opens, and the batch gets the typed fault.
	g.broken.Store(true)
	_, err = s.Lookup(ctx, 5)
	var ae *mesh.AuditError
	if !errors.As(err, &ae) {
		t.Fatalf("broken-mesh lookup error %v does not unwrap to *mesh.AuditError", err)
	}
	if !s.CircuitOpen() {
		t.Fatal("circuit closed after a terminal failure")
	}
	// A canary on the still-broken mesh fails and keeps the circuit open.
	if err := s.Canary(ctx); err == nil {
		t.Fatal("canary passed on a broken mesh")
	}
	if !s.CircuitOpen() {
		t.Fatal("a failed canary closed the circuit")
	}
	if _, err := s.Lookup(ctx, 7); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-circuit lookup error %v, want ErrCircuitOpen", err)
	}

	// Phase 3: heal the mesh; the next canary closes the circuit.
	g.broken.Store(false)
	if err := s.Canary(ctx); err != nil {
		t.Fatalf("canary on a healed mesh: %v", err)
	}
	if s.CircuitOpen() {
		t.Fatal("a passing canary left the circuit open")
	}
	res, err = s.Lookup(ctx, 3)
	if err != nil || res.Degraded {
		t.Fatalf("post-recovery lookup not mesh-served: res=%+v err=%v", res, err)
	}
	st := s.Stats()
	if st.CircuitOpens != 1 || st.CircuitCloses != 1 {
		t.Fatalf("missing circuit transitions: %+v", st)
	}
	if st.CanaryRounds != 2 || st.CanaryFails != 1 {
		t.Fatalf("canary accounting wrong (want 2 probes, 1 failed): %+v", st)
	}
	if st.Failed != 2 {
		t.Fatalf("want exactly the typed fault and the open-circuit failure, got %+v", st)
	}
}

// TestCanaryAfterShutdownIsClosed pins the terminal state: once Shutdown
// begins, Canary and Lookup both return ErrClosed, so a fleet prober that
// races a crash or a drain gets a typed refusal instead of a round.
func TestCanaryAfterShutdownIsClosed(t *testing.T) {
	s, err := New(Config{Side: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Canary(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("canary after shutdown: %v, want ErrClosed", err)
	}
	if _, err := s.Lookup(ctx, 3); !errors.Is(err, ErrClosed) {
		t.Fatalf("lookup after shutdown: %v, want ErrClosed", err)
	}
}

// TestRoundNames: a round's name is formatted only when a tracer is
// installed or the round fails, and it reads as it always has — in the
// traced run's top span, in a failed round's *core.RunError, and in a
// failed canary's.
func TestRoundNames(t *testing.T) {
	tr := trace.New()
	s := newTestServer(t, Config{Side: 8, Tracer: tr})
	if _, err := s.Lookup(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	runs := tr.Runs()
	if len(runs) == 0 || len(runs[len(runs)-1].Spans) == 0 {
		t.Fatal("the traced round recorded no span")
	}
	if got, want := runs[len(runs)-1].Spans[0].Name, "serve membership round 1 attempt 0 q=1"; got != want {
		t.Fatalf("traced round span %q, want %q", got, want)
	}

	s = newTestServer(t, Config{Side: 8, Budget: 3, MaxRetries: -1})
	_, err := s.Lookup(context.Background(), 3)
	var re *core.RunError
	if !errors.As(err, &re) {
		t.Fatalf("a 3-step budget round returned %v, want a *core.RunError", err)
	}
	if want := "serve membership round 1 attempt 0"; re.Label != want || !strings.HasPrefix(err.Error(), `run "`+want+`" failed: `) {
		t.Fatalf("failed round's error %q (label %q), want label %q", err, re.Label, want)
	}
	err = s.Canary(context.Background())
	if !errors.As(err, &re) || re.Label != "canary membership 1" {
		t.Fatalf("failed canary's error %v, want a *core.RunError labelled %q", err, "canary membership 1")
	}
}
