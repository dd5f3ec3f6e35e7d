package serve

import (
	"context"
	"errors"
	"testing"

	"repro/internal/mesh"
)

// TestDisableOracleSurfacesTypedFaults pins the fleet-facing instance
// contract (DESIGN.md §3.8) in the default config: the ladder keeps its
// breaker and canary rounds, but a round the mesh cannot serve returns its
// typed fault — never a host-oracle answer — so a fleet can fail the lookup
// over to another replica before anything degrades. The name is that of
// the deprecated Config.DisableOracle, which has no effect.
func TestDisableOracleSurfacesTypedFaults(t *testing.T) {
	t.Run("budget overrun fails typed instead of degrading", func(t *testing.T) {
		s := newTestServer(t, Config{Side: 8, Budget: 3})
		_, err := s.Lookup(context.Background(), 1)
		var be *mesh.BudgetExceededError
		if !errors.As(err, &be) {
			t.Fatalf("lookup error %v does not unwrap to *mesh.BudgetExceededError", err)
		}
		st := s.Stats()
		if st.Served != 0 {
			t.Fatalf("a failed round was counted answered: %+v", st)
		}
		if st.Failed == 0 {
			t.Fatalf("failed lookup not counted: %+v", st)
		}
	})

	t.Run("open circuit fast-fails and canaries still close it", func(t *testing.T) {
		g := &gateInjector{}
		s := newTestServer(t, Config{
			Side: 8, Audit: true, Injector: g,
			MaxRetries: -1,
		})
		if res, err := s.Lookup(context.Background(), 3); err != nil || res.Degraded {
			t.Fatalf("healthy lookup: res=%+v err=%v", res, err)
		}

		// Break the mesh: the round fails terminally and must surface the
		// audit fault to the caller, not an oracle answer.
		g.broken.Store(true)
		_, err := s.Lookup(context.Background(), 5)
		var ae *mesh.AuditError
		if !errors.As(err, &ae) {
			t.Fatalf("broken-mesh lookup error %v does not unwrap to *mesh.AuditError", err)
		}
		if !s.CircuitOpen() {
			t.Fatal("circuit closed after a terminal failure")
		}
		// With the circuit open, lookups fail fast with the typed sentinel —
		// the signal a fleet dispatcher failovers on without waiting a round.
		if _, err := s.Lookup(context.Background(), 7); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("open-circuit lookup error %v, want ErrCircuitOpen", err)
		}

		// Heal the mesh: a canary must still run and close the circuit with
		// no help from traffic.
		g.broken.Store(false)
		if err := s.Canary(context.Background()); err != nil || s.CircuitOpen() {
			t.Fatalf("canary on a healed mesh: err=%v, circuit open %v", err, s.CircuitOpen())
		}
		if res, err := s.Lookup(context.Background(), 3); err != nil || res.Degraded || !res.Found {
			t.Fatalf("post-recovery lookup: res=%+v err=%v", res, err)
		}
		st := s.Stats()
		if st.Served != 2 || st.Failed != 2 {
			t.Fatalf("want the 2 mesh answers and the 2 typed faults, got %+v", st)
		}
		if st.CircuitOpens == 0 || st.CircuitCloses == 0 || st.CanaryRounds == 0 {
			t.Fatalf("breaker/canary machinery idle: %+v", st)
		}
	})
}
