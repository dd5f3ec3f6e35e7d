package fleet

import (
	"fmt"
	"sync/atomic"
	"time"
)

// ReplicaView is one replica's routing-relevant state, snapshotted per
// dispatch: liveness, its Health before ejection (breaker state, or
// lame-duck once the fleet is closed), the admission queue depth (the
// least-loaded signal), and the latency score (the gray-failure signal —
// DESIGN.md §3.11).
type ReplicaView struct {
	Index    int
	Up       bool // instance running (not crashed/restarting)
	Health   Health
	QueueLen int
	QueueCap int
	// LatencyEWMA is the fleet's per-replica answered-dispatch latency
	// score; Ejected is its verdict — the score is an outlier multiple of
	// the fleet median, so the replica is skipped by every policy until
	// latency probes re-admit it. Policies treat Ejected like lame-duck;
	// the dispatch loop alone may fall back to ejected replicas when
	// nothing else is routable (slow answers still beat oracle answers).
	LatencyEWMA time.Duration
	Ejected     bool
}

// routable reports whether a view may receive traffic at all: the instance
// is up, not draining, not latency-ejected, and not already tried this
// dispatch. Policies differ only in how they *order* routable replicas.
func routable(v ReplicaView, skip func(int) bool) bool {
	return v.Up && v.Health != LameDuck && !v.Ejected && !skip(v.Index)
}

// Policy orders replicas for dispatch. Pick returns the preferred routable
// replica index, or -1 when none qualifies; the dispatch loop calls it again
// with the failed pick added to skip, so Pick's ordering *is* the failover
// order. Pick must not keep views or skip after it returns: the fleet
// reuses both for later picks.
type Policy interface {
	Name() string
	Pick(views []ReplicaView, skip func(int) bool) int
}

// PolicyByName resolves the meshserve -policy flag.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "round-robin":
		return RoundRobin(), nil
	case "least-loaded":
		return LeastLoaded(), nil
	case "health-weighted":
		return HealthWeighted(), nil
	default:
		return nil, fmt.Errorf("fleet: unknown policy %q (want round-robin, least-loaded, or health-weighted)", name)
	}
}

// PolicyNames lists the routing policies (flag help, sweep mode).
func PolicyNames() []string {
	return []string{"round-robin", "least-loaded", "health-weighted"}
}

type roundRobin struct{ next atomic.Uint64 }

// RoundRobin rotates across routable replicas regardless of load or
// breaker state (only lame-duck and crashed replicas are skipped). The
// baseline policy: fair, oblivious, and the control for measuring what
// health-aware routing buys.
func RoundRobin() Policy { return &roundRobin{} }

func (p *roundRobin) Name() string { return "round-robin" }

func (p *roundRobin) Pick(views []ReplicaView, skip func(int) bool) int {
	if len(views) == 0 {
		return -1
	}
	start := int(p.next.Add(1)-1) % len(views)
	for i := 0; i < len(views); i++ {
		v := views[(start+i)%len(views)]
		if routable(v, skip) {
			return v.Index
		}
	}
	return -1
}

type leastLoaded struct{}

// LeastLoaded picks the routable replica with the shallowest admission
// queue (ties break to the lowest index). Queue depth is the same signal
// the instance's own overload rejection reads, so this policy steers
// traffic away from replicas about to say 429.
func LeastLoaded() Policy { return leastLoaded{} }

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Pick(views []ReplicaView, skip func(int) bool) int {
	best, bestLen := -1, 0
	for _, v := range views {
		if !routable(v, skip) {
			continue
		}
		if best < 0 || v.QueueLen < bestLen {
			best, bestLen = v.Index, v.QueueLen
		}
	}
	return best
}

type healthWeighted struct{}

// HealthWeighted folds the PR 5 breaker state into routing: healthy
// replicas (circuit closed) are always preferred, least-loaded among them;
// a degraded replica — circuit open, the prober canarying it — receives
// traffic only when no healthy replica is routable. A degraded instance
// fails lookups fast, so routing to one is a last resort that the failover
// loop converts into an oracle answer.
func HealthWeighted() Policy { return healthWeighted{} }

func (healthWeighted) Name() string { return "health-weighted" }

func (healthWeighted) Pick(views []ReplicaView, skip func(int) bool) int {
	best, bestTier, bestLen := -1, 0, 0
	for _, v := range views {
		if !routable(v, skip) {
			continue
		}
		tier := 0
		if v.Health != Healthy {
			tier = 1
		}
		if best < 0 || tier < bestTier || (tier == bestTier && v.QueueLen < bestLen) {
			best, bestTier, bestLen = v.Index, tier, v.QueueLen
		}
	}
	return best
}
