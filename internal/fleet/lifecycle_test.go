package fleet

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/mesh"
	"repro/internal/serve"
)

// TestLifecycleLeavesNoGoroutines is the lifecycle hygiene check: hedged
// lookups whose losers are cancelled, a lookup its context abandons, a
// crash and restart, and Shutdown leave no goroutine behind. Replica 0
// stalls every mesh consultation but its first for 2ms, so its rounds
// outlast every lookup sent to it until the crash cancels them.
func TestLifecycleLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	f, err := New(Config{
		Replicas: 2,
		Policy:   LeastLoaded(), // ties break to replica 0, the stalled one
		Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond},
		MakeInjector: func(i int) mesh.Injector {
			if i != 0 {
				return nil
			}
			return faults.NewLatency(faults.LatencyConfig{StallEvery: time.Nanosecond, StallFor: 2 * time.Millisecond}, nil)
		},
		Hedge: HedgeConfig{Enabled: true, Delay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		needle := int64(2*i + 1)
		res, err := f.Lookup(context.Background(), needle)
		if err != nil {
			t.Fatalf("hedged lookup %d: %v", needle, err)
		}
		checkAnswer(t, f, needle, res)
	}
	if st := f.Stats(); st.HedgeWins == 0 {
		t.Fatalf("no hedge beat the stalled replica, so no loser was cancelled: %+v", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	_, err = f.instance(0).Lookup(ctx, 5)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("lookup on the stalled replica returned %v, want its context's deadline", err)
	}

	if err := f.CrashReplica(0); err != nil {
		t.Fatal(err)
	}
	if err := f.RestartReplica(0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Shutdown, %d before New:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
