package fleet

import "testing"

func noSkip(int) bool { return false }

func skipSet(idxs ...int) func(int) bool {
	set := map[int]bool{}
	for _, i := range idxs {
		set[i] = true
	}
	return func(i int) bool { return set[i] }
}

// upViews builds n up, healthy, empty-queue views.
func upViews(n int) []ReplicaView {
	out := make([]ReplicaView, n)
	for i := range out {
		out[i] = ReplicaView{Index: i, Up: true, Health: Healthy, QueueCap: 64}
	}
	return out
}

func TestRoundRobinRotatesAndSkips(t *testing.T) {
	p := RoundRobin()
	views := upViews(3)
	seen := map[int]int{}
	var prev = -1
	for i := 0; i < 6; i++ {
		idx := p.Pick(views, noSkip)
		if idx < 0 || idx > 2 {
			t.Fatalf("pick %d out of range", idx)
		}
		if idx == prev {
			t.Fatalf("round-robin repeated replica %d on consecutive picks", idx)
		}
		prev = idx
		seen[idx]++
	}
	for i := 0; i < 3; i++ {
		if seen[i] != 2 {
			t.Fatalf("uneven rotation over 6 picks: %v", seen)
		}
	}

	// A down replica and a lame-duck replica never receive traffic; a
	// skipped (already-tried) replica is the failover contract.
	views[0].Up = false
	views[1].Health = LameDuck
	for i := 0; i < 4; i++ {
		if idx := p.Pick(views, noSkip); idx != 2 {
			t.Fatalf("pick %d, want the only routable replica 2", idx)
		}
	}
	if idx := p.Pick(views, skipSet(2)); idx != -1 {
		t.Fatalf("pick %d with every replica excluded, want -1", idx)
	}
	if idx := p.Pick(nil, noSkip); idx != -1 {
		t.Fatalf("pick %d on empty fleet, want -1", idx)
	}
}

func TestLeastLoadedPicksShallowestQueue(t *testing.T) {
	p := LeastLoaded()
	views := upViews(3)
	views[0].QueueLen = 5
	views[1].QueueLen = 1
	views[2].QueueLen = 9
	if idx := p.Pick(views, noSkip); idx != 1 {
		t.Fatalf("pick %d, want least-loaded replica 1", idx)
	}
	// Failover order: with 1 tried, the next-shallowest queue wins.
	if idx := p.Pick(views, skipSet(1)); idx != 0 {
		t.Fatalf("pick %d after skipping 1, want 0", idx)
	}
	// Ties break to the lowest index — deterministic routing for tests.
	views[0].QueueLen, views[2].QueueLen = 1, 1
	if idx := p.Pick(views, noSkip); idx != 0 {
		t.Fatalf("pick %d on a tie, want lowest index 0", idx)
	}
	// Load does not excuse routing to a down replica.
	views[0].Up = false
	views[1].QueueLen = 100
	if idx := p.Pick(views, skipSet(2)); idx != 1 {
		t.Fatalf("pick %d, want 1 (the deep queue is still the only routable one)", idx)
	}
}

func TestHealthWeightedPrefersHealthyTier(t *testing.T) {
	p := HealthWeighted()
	views := upViews(3)
	// An idle degraded replica (breaker open, canaries probing) loses to a
	// busy healthy one: circuit state outranks queue depth.
	views[0].Health = Degraded
	views[1].QueueLen = 7
	views[2].QueueLen = 3
	if idx := p.Pick(views, noSkip); idx != 2 {
		t.Fatalf("pick %d, want least-loaded healthy replica 2", idx)
	}
	if idx := p.Pick(views, skipSet(2)); idx != 1 {
		t.Fatalf("pick %d, want the remaining healthy replica 1", idx)
	}
	// Only when every healthy replica is exhausted does a degraded one get
	// traffic — the last rung before the fleet oracle.
	if idx := p.Pick(views, skipSet(1, 2)); idx != 0 {
		t.Fatalf("pick %d, want degraded replica 0 as last resort", idx)
	}
	// All degraded: least loaded among them.
	views[1].Health = Degraded
	views[2].Health = Degraded
	views[0].QueueLen = 2
	if idx := p.Pick(views, noSkip); idx != 0 {
		t.Fatalf("pick %d among all-degraded, want least-loaded 0", idx)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil || p == nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	if p, err := PolicyByName(""); err != nil || p.Name() != "round-robin" {
		t.Fatalf("empty name → %v, %v; want the round-robin default", p, err)
	}
	if _, err := PolicyByName("weighted-dice"); err == nil {
		t.Fatal("unknown policy name accepted")
	}
}
