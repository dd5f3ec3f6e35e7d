package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mesh"
)

// newTestServer builds a small instance; the default dictionary (odd keys)
// is used so Contains gives a trivial oracle.
func newTestServer(t *testing.T, cfg Config) *Instance {
	t.Helper()
	if cfg.Side == 0 {
		cfg.Side = 8
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// TestLookupsMatchHostOracle fires concurrent clients at a server and checks
// every answer against the host-side binary search, with retry on overload —
// the end-to-end correctness contract of the serving path.
func TestLookupsMatchHostOracle(t *testing.T) {
	s := newTestServer(t, Config{Side: 8, Linger: 200 * time.Microsecond})
	const clients, perClient = 16, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				needle := int64((c*perClient+i)%40 - 4) // hits, misses, out-of-range
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
				if want := s.Tree().Contains(needle); res.Found != want {
					errs <- errors.New("wrong membership answer")
					return
				}
				if res.Found && res.LeafKey != needle {
					errs <- errors.New("found needle but leaf key differs")
					return
				}
				if res.Steps <= 0 || res.Round <= 0 {
					errs <- errors.New("result lacks steps/round provenance")
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
	if st.Served != clients*perClient {
		t.Fatalf("served %d, want %d", st.Served, clients*perClient)
	}
	if st.Rounds <= 0 || st.SimSteps <= 0 {
		t.Fatalf("stats lack rounds/steps: %+v", st)
	}
}

// TestBatchingAmortizesRounds checks the point of the subsystem: queries
// admitted together ride one multisearch round, so rounds ≪ queries.
func TestBatchingAmortizesRounds(t *testing.T) {
	s := newTestServer(t, Config{Side: 8, Linger: 20 * time.Millisecond, QueueDepth: 256})
	const n = 48
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := s.Lookup(context.Background(), int64(i)); !errors.Is(err, ErrOverloaded) {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Served != n {
		t.Fatalf("served %d, want %d", st.Served, n)
	}
	// 48 queries on a 64-cell mesh with a 20ms linger should take far fewer
	// than 48 rounds; allow wide slack for scheduling (the bound that matters
	// is "not one round per query").
	if st.Rounds >= n/2 {
		t.Fatalf("%d rounds for %d queries — batching is not amortizing", st.Rounds, n)
	}
	if st.PeakBatch < 2 {
		t.Fatalf("peak batch %d, want ≥ 2", st.PeakBatch)
	}
}

// stallInjector wedges the executor: once armed, the first injector
// consultation inside a round blocks until release is closed. It injects no
// faults (every answer is 0 = "no lie"), so the stalled round completes
// normally once released — a pure wall-clock stall for admission tests.
type stallInjector struct {
	armed   atomic.Bool
	once    sync.Once
	stalled chan struct{} // closed when the executor first blocks
	release chan struct{} // close to let the round proceed
}

func newStallInjector() *stallInjector {
	return &stallInjector{stalled: make(chan struct{}), release: make(chan struct{})}
}

func (g *stallInjector) block() {
	if g.armed.Load() {
		g.once.Do(func() { close(g.stalled) })
		<-g.release
	}
}
func (g *stallInjector) SortLie(string, int) int64                { g.block(); return 0 }
func (g *stallInjector) CorruptCell(string, int) (int, int, bool) { g.block(); return 0, 0, false }
func (g *stallInjector) DropReply(int) (int, bool)                { g.block(); return 0, false }
func (g *stallInjector) DuplicateReply(int) (int, int, bool)      { g.block(); return 0, 0, false }

// TestOverloadRejectsTyped wedges the executor mid-round and requires the
// typed fast-fail once the bounded pipeline is full. With the round stalled,
// the pipeline absorbs at most 4 more lookups (one-slot batches channel,
// one batch held by the collector, two queued), so 11 further clients must
// see at least 7 rejections — deterministically, not by racing the round.
func TestOverloadRejectsTyped(t *testing.T) {
	inj := newStallInjector()
	s := newTestServer(t, Config{Side: 8, MaxBatch: 1, QueueDepth: 2, Linger: 0, Injector: inj})
	inj.armed.Store(true)
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	lookup := func(i int) {
		defer wg.Done()
		_, err := s.Lookup(context.Background(), int64(i))
		errs <- err
	}
	wg.Add(1)
	go lookup(0)
	<-inj.stalled // the executor is now blocked inside round 1
	for i := 1; i < 12; i++ {
		wg.Add(1)
		go lookup(i)
	}
	// Rejections are immediate; admitted lookups block until release. Wait
	// for the guaranteed-excess rejections before unblocking the round.
	var overloaded int
	for overloaded < 7 {
		if err := <-errs; errors.Is(err, ErrOverloaded) {
			overloaded++
		} else if err != nil {
			t.Fatalf("unexpected lookup error: %v", err)
		}
	}
	inj.armed.Store(false)
	close(inj.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && !errors.Is(err, ErrOverloaded) {
			t.Errorf("unexpected lookup error: %v", err)
		}
	}
	if st := s.Stats(); st.Rejected < 7 {
		t.Fatalf("stats recorded %d rejections, want ≥ 7: %+v", st.Rejected, st)
	}
}

// TestShutdownDrainsQueuedLookups submits lookups, begins Shutdown, and
// requires every already-admitted query to be answered (not errored) while
// later lookups fail with ErrClosed.
func TestShutdownDrainsQueuedLookups(t *testing.T) {
	s := newTestServer(t, Config{Side: 8, Linger: 5 * time.Millisecond})
	const n = 24
	results := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Lookup(context.Background(), int64(i))
			results <- err
		}()
	}
	// Give the lookups a moment to be admitted, then drain.
	time.Sleep(2 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain shutdown failed: %v", err)
	}
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatalf("admitted lookup errored across drain: %v", err)
		}
	}
	if _, err := s.Lookup(context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown lookup returned %v, want ErrClosed", err)
	}
	// Second Shutdown is a no-op.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestBudgetAbortDeliversTypedError serves with an absurdly small per-round
// budget and the oracle fallback disabled: the round must fail and every
// query of the batch must receive an error unwrapping to
// *mesh.BudgetExceededError — proving the run-control seam composes with
// serving. (With the fallback enabled the same overrun is answered degraded;
// see TestBudgetOverrunDegradesToOracle.)
func TestBudgetAbortDeliversTypedError(t *testing.T) {
	s := newTestServer(t, Config{Side: 8, Budget: 3, DisableDegrade: true})
	_, err := s.Lookup(context.Background(), 1)
	if err == nil {
		t.Fatal("lookup under a 3-step budget succeeded")
	}
	var be *mesh.BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("lookup error %v does not unwrap to *mesh.BudgetExceededError", err)
	}
	if st := s.Stats(); st.Failed == 0 {
		t.Fatalf("stats recorded no failures: %+v", st)
	}
	// The server survives a failed round: later rounds still answer (the
	// budget keeps failing them, but the loop must not wedge).
	if _, err := s.Lookup(context.Background(), 2); err == nil {
		t.Fatal("second lookup under the budget succeeded")
	}
}

// TestExpiredDrainCancelsInFlight shuts down with an already-expired context
// and requires Shutdown to return promptly with ctx.Err while in-flight
// lookups get the cancellation fault.
func TestExpiredDrainCancelsInFlight(t *testing.T) {
	s, err := New(Config{Side: 8, Linger: 50 * time.Millisecond, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Lookup(context.Background(), int64(i))
			errs <- err
		}()
	}
	time.Sleep(2 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the drain starts
	if err := s.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("shutdown with expired context returned %v", err)
	}
	wg.Wait()
	close(errs)
	var canceled int
	for err := range errs {
		var ce *mesh.CanceledError
		if errors.As(err, &ce) {
			canceled++
		} else if err != nil {
			t.Fatalf("in-flight lookup got %v, want nil or *mesh.CanceledError", err)
		}
	}
	t.Logf("%d of %d lookups cancelled, rest served before the abort", canceled, n)
}

// TestConfigValidation pins the constructor's error paths.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Side: 3}); err == nil {
		t.Fatal("non-power-of-two side accepted")
	}
	keys := make([]int64, 200) // a (2,3)-tree over 200 keys cannot fit 64 cells
	for i := range keys {
		keys[i] = int64(i)
	}
	if _, err := New(Config{Side: 8, Keys: keys}); err == nil {
		t.Fatal("oversized dictionary accepted")
	}
}
