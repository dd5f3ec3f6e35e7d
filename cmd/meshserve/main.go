// Command meshserve runs the batched multisearch query service (internal/
// serve, DESIGN.md §3.5): a long-lived mesh holding a (2,3)-tree dictionary,
// answering concurrent membership lookups by collecting them into batches
// and serving each batch with one multisearch round. Every server it builds
// is a fleet (internal/fleet, DESIGN.md §3.8) — by default of one replica —
// so there is one HTTP surface and one recovery ladder above the instance.
//
// Serve mode (default) exposes the fleet's HTTP surface and drains
// gracefully on SIGINT/SIGTERM:
//
//	meshserve -side 16 -batch-linger 2ms -budget 1e6 -addr :8845
//	curl 'localhost:8845/search?key=7'
//	curl  localhost:8845/metrics
//
// Load-generator mode drives a one-replica fleet in-process with closed-loop
// clients and prints the throughput table of EXPERIMENTS.md §E20 —
// queries/round, simulated steps/query, and wall-clock rounds/sec versus
// client count:
//
//	meshserve -loadgen -clients 1,4,16,64 -duration 2s -side 16
//
// Every load-generated answer is verified against the host-side dictionary
// oracle; any mismatch fails the run. With -chaos N the serving mesh runs
// under seeded fault injection (audit mode is forced on so faults trip the
// recovery ladder of DESIGN.md §3.6 instead of corrupting answers); the
// acceptance bar is zero mismatches and zero failed queries:
//
//	meshserve -loadgen -clients 8,32 -duration 1s -side 16 -chaos 42 -chaos-p 0.02
//
// Workload mode (-workload, DESIGN.md §3.7) is the open-loop counterpart:
// arrivals follow a seeded Poisson or ON/OFF-bursty process whose clock does
// not wait for answers, so queueing delay and saturation become observable.
// It reports per-window latency percentiles, offered vs achieved qps, and
// degraded/rejected fractions; -trace-out records the arrival plan plus the
// answer stream to JSONL, -workload replay -trace-in re-runs it and requires
// the answers to reproduce exactly; -saturate binary-searches the max
// sustainable rate under an SLO and prints the knee (EXPERIMENTS.md E22):
//
//	meshserve -workload poisson -rate 200x2s,800x500ms,200x2s -side 16 -trace-out run.jsonl
//	meshserve -workload replay -trace-in run.jsonl -side 16
//	meshserve -workload poisson -rate 256 -saturate -slo-p99 50ms -bench-out BENCH_PR6.json
//
// Fleet mode (-replicas N > 1, DESIGN.md §3.8) runs N instances behind a
// health-aware router (-policy round-robin | least-loaded | health-weighted).
// A lookup whose replica faults or crashes fails over to a healthy replica
// before the fleet-level oracle; -chaos-instance kills and restarts replicas
// on a seeded schedule while /healthz stays 200 as long as one replica is
// healthy. The workload harness drives a fleet in-process, or any remote
// meshserve over HTTP with -target:
//
//	meshserve -side 8 -replicas 3 -policy health-weighted -chaos-instance 42
//	meshserve -workload poisson -rate 600 -side 8 -replicas 3 -policy least-loaded
//	meshserve -workload poisson -rate 300 -target http://127.0.0.1:8845
//	meshserve -workload poisson -rate 200 -saturate -sweep-replicas 1,2,4 \
//	    -policy all -bench-out BENCH_PR7.json
//
// Every query family of the paper is servable as a typed kind (-kinds,
// DESIGN.md §3.10): membership, pointloc, interval, linepoly, tangent. Serve
// mode loads each requested kind's structure onto the shared mesh and /search
// gains a kind= parameter (membership stays the default, so v1 clients keep
// working); the workload harness draws each arrival's kind from the weighted
// mix and checks every answer against that kind's own host oracle
// (EXPERIMENTS.md E25):
//
//	meshserve -side 16 -kinds membership,pointloc,interval
//	curl 'localhost:8845/search?kind=pointloc&x=12&y=7'
//	meshserve -workload poisson -rate 400 -side 16 \
//	    -kinds membership:0.6,pointloc:0.3,interval:0.1 -bench-out BENCH_PR9.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	side := flag.Int("side", 16, "mesh side length (power of two)")
	linger := flag.Duration("batch-linger", 2*time.Millisecond, "how long a round waits to fill its batch after the first query (0 = start immediately)")
	budget := flag.Float64("budget", 0, "per-round mesh step budget (0 = unlimited)")
	addr := flag.String("addr", ":8845", "HTTP listen address (serve mode)")
	model := flag.String("model", "counted", "cost model: counted | theoretical")
	maxBatch := flag.Int("max-batch", 0, "max queries per round (0 = mesh size)")
	queueDepth := flag.Int("queue", 0, "admission queue depth (0 = 4×max-batch)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
	loadgen := flag.Bool("loadgen", false, "run the in-process load generator instead of serving HTTP")
	clients := flag.String("clients", "1,4,16,64", "comma-separated closed-loop client counts (loadgen)")
	duration := flag.Duration("duration", 2*time.Second, "measurement window per client count (loadgen)")
	seed := flag.Int64("seed", 1, "needle-stream seed (loadgen)")
	audit := flag.Bool("audit", false, "run every round in audit mode (forced on by -chaos)")
	chaos := flag.Int64("chaos", 0, "inject seeded faults with this seed (non-zero; see internal/faults)")
	chaosP := flag.Float64("chaos-p", 0.01, "per-consultation fault probability for -chaos")
	chaosLimit := flag.Int("chaos-limit", 0, "stop injecting after this many faults (0 = unlimited)")
	retries := flag.Int("retries", 0, "audited re-executions per failed round (0 = default 3, negative = none)")
	breakerWindow := flag.Int("breaker-window", 0, "circuit-breaker sliding window, in rounds (0 = default 16)")
	canaryInterval := flag.Duration("canary-interval", 0, "how often an open circuit probes the mesh (0 = default 50ms, negative = never)")
	queryDeadline := flag.Duration("query-deadline", 5*time.Second, "per-query deadline for loadgen lookups (0 = none)")
	obsOn := flag.Bool("obs", true, "request tracing + per-stage wall-clock metrics (internal/obs; /debug/traces, Prometheus /metrics?format=prometheus)")
	obsRing := flag.Int("obs-ring", 256, "retained-trace ring size for /debug/traces (-obs)")
	obsLog := flag.Bool("obs-log", false, "log interesting trace completions (slow/degraded/failover/error) to stderr (-obs)")
	kindsFlag := flag.String("kinds", "", "query-kind mix served and generated: \"membership:0.6,pointloc:0.3,interval:0.1\" or \"membership,pointloc\" (empty = membership only; see DESIGN.md §3.10)")

	replicas := flag.Int("replicas", 1, "fleet size: run this many instances behind a router (see DESIGN.md §3.8)")
	policy := flag.String("policy", "round-robin", "fleet routing policy: round-robin | least-loaded | health-weighted (or 'all' with -sweep-replicas)")
	chaosInstance := flag.Int64("chaos-instance", 0, "kill/restart replicas on this seeded schedule (non-zero; needs -replicas ≥ 2)")
	chaosKillEvery := flag.Duration("chaos-kill-every", 500*time.Millisecond, "mean interval between instance kills (-chaos-instance)")
	chaosDowntime := flag.Duration("chaos-downtime", 250*time.Millisecond, "how long a killed instance stays down before restart (-chaos-instance)")

	outage := flag.String("outage", "", "gray-failure schedule: per-replica latency injection, e.g. \"slow:r1:10x@2s,stall:r2@5s\" (needs -replicas ≥ 2; see DESIGN.md §3.11)")
	hedge := flag.Bool("hedge", false, "hedge slow dispatches: speculatively re-dispatch to a second replica after the hedge delay, first answer wins (§3.11)")
	hedgeDelay := flag.Duration("hedge-delay", 0, "fixed hedge delay (0 = adaptive: -hedge-p99x × the median per-replica p99)")
	hedgeP99x := flag.Float64("hedge-p99x", 3, "adaptive hedge delay multiple of the per-replica p99 median (-hedge)")
	eject := flag.Bool("eject", false, "eject latency-outlier replicas from routing until canary probes re-admit them (§3.11)")
	ejectMultiple := flag.Float64("eject-multiple", 4, "eject a replica whose EWMA latency exceeds this multiple of the fleet median (-eject)")
	ejectProbe := flag.Duration("eject-probe-interval", 100*time.Millisecond, "how often ejected replicas are probed for re-admission (-eject)")
	outageCompare := flag.Bool("outage-compare", false, "run the -outage plan twice over the same arrival plan — plain failover vs hedging+ejection — and report the p99 recovery ratio (workload)")
	outageMinRecovery := flag.Float64("outage-min-recovery", 0, "fail unless the -outage-compare p99 recovery ratio reaches this bound (0 = report only)")

	workload := flag.String("workload", "", "open-loop workload mode: poisson | burst | replay (see DESIGN.md §3.7)")
	target := flag.String("target", "", "drive a remote meshserve at this base URL (e.g. http://host:8845) instead of an in-process server (workload; remote must serve the default key set)")
	sweepReplicas := flag.String("sweep-replicas", "", "capacity-planning sweep: comma-separated replica counts, one saturation search each (workload -saturate)")
	rate := flag.String("rate", "256", "offered-rate schedule, qps: \"400\" or \"200x2s,800x500ms,200x2s\" (workload)")
	workloadDur := flag.Duration("workload-dur", 4*time.Second, "duration of bare-rate schedule phases (workload)")
	window := flag.Duration("window", time.Second, "reporting window for per-window percentiles (workload)")
	burstOn := flag.Duration("on", 200*time.Millisecond, "burst ON-window length (workload burst)")
	burstOff := flag.Duration("off", 200*time.Millisecond, "burst OFF-window length (workload burst)")
	zipf := flag.Float64("zipf", 0, "Zipfian key-popularity exponent, > 1 (0 = uniform; workload)")
	maxInflight := flag.Int("max-inflight", 0, "client-side cap on outstanding open-loop lookups (0 = 4096; workload)")
	traceOut := flag.String("trace-out", "", "record the arrival plan + answers to this JSONL file (workload poisson|burst)")
	traceIn := flag.String("trace-in", "", "replay this recorded JSONL trace (workload replay)")
	benchOut := flag.String("bench-out", "", "write the machine-readable run report to this JSON file (workload)")
	saturate := flag.Bool("saturate", false, "binary-search the max sustainable rate under the SLO instead of a single run (workload)")
	sloP99 := flag.Duration("slo-p99", 50*time.Millisecond, "SLO: answered-query p99 latency bound (saturate)")
	sloDegraded := flag.Float64("slo-degraded", 0.01, "SLO: max degraded fraction of answered queries (saturate)")
	sloRejected := flag.Float64("slo-rejected", 0.01, "SLO: max rejected+shed fraction of offered queries (saturate)")
	satBisect := flag.Int("sat-bisect", 5, "bisection refinements after the SLO first breaks (saturate)")
	satMax := flag.Float64("sat-max", 1e6, "rate ceiling for the saturation search, qps (saturate)")
	probeDur := flag.Duration("probe-dur", 2*time.Second, "measurement window per saturation probe (saturate)")
	flag.Parse()

	// -budget parses as float64 so 1e6-style spellings work, but the serve
	// layer counts integral steps: validate instead of silently truncating
	// (a -budget 0.5 used to become 0 = unlimited — the opposite of asked).
	if *budget < 0 || *budget != math.Trunc(*budget) || *budget > math.MaxInt64 {
		fmt.Fprintf(os.Stderr, "meshserve: -budget must be a non-negative integral step count, got %v\n", *budget)
		os.Exit(2)
	}

	// The kind mix configures both ends: the serve layer loads the mix's
	// structures, the workload harness draws arrivals from its weights.
	mix, err := parseKindsFlag(*kindsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "meshserve: %v\n", err)
		os.Exit(2)
	}

	cfg := serve.Config{
		Side:           *side,
		Kinds:          mix.Kinds(),
		Linger:         *linger,
		Budget:         int64(*budget),
		MaxBatch:       *maxBatch,
		QueueDepth:     *queueDepth,
		Tracer:         trace.New(),
		MaxRetries:     *retries,
		BreakerWindow:  *breakerWindow,
		CanaryInterval: *canaryInterval,
	}
	switch *model {
	case "counted":
		cfg.Model = mesh.CostCounted
	case "theoretical":
		cfg.Model = mesh.CostTheoretical
	default:
		fmt.Fprintf(os.Stderr, "meshserve: unknown cost model %q\n", *model)
		os.Exit(2)
	}
	var makeInjector func(i int) mesh.Injector
	if *chaos != 0 {
		p := *chaosP
		// Fleet replicas must not share one injector (their fault streams
		// would couple through its state): derive one per instance from the
		// same seed, each with the full per-instance fault budget. Replica 0
		// draws from the seed itself.
		makeInjector = func(i int) mesh.Injector {
			return faults.New(faults.Config{
				Seed: *chaos + int64(i)*1_000_003, PSortLie: p, PCorrupt: p, PDrop: p, PDup: p, Limit: *chaosLimit,
			})
		}
		if !*audit {
			fmt.Fprintln(os.Stderr, "meshserve: -chaos forces -audit on (faults must trip the audit, not corrupt answers)")
			*audit = true
		}
		// Satellite of §3.11: the retry ladder's backoff jitter draws from a
		// chaos-derived seed, so a chaos run's whole recovery timeline —
		// faults AND backoff sleeps — replays deterministically.
		cfg.BackoffSeed = *chaos
	}
	cfg.Audit = *audit

	// One observer serves the whole process — every replica of the fleet —
	// so the SLO burn gauges measure the same targets the saturation search
	// enforces.
	if *obsOn {
		oc := obs.Config{Ring: *obsRing, SLOP99: *sloP99, SLOMaxDegraded: *sloDegraded}
		// Under a kind mix the stage histograms split per kind (the class
		// index is the kind value); without one the observer keeps its v1
		// single-class shape so /metrics output is byte-compatible.
		if *kindsFlag != "" {
			oc.Classes = serve.KindNames()
		}
		if *obsLog {
			oc.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
		}
		cfg.Obs = obs.New(oc)
	}

	if *loadgen && *workload != "" {
		fmt.Fprintln(os.Stderr, "meshserve: -loadgen (closed-loop sweep) and -workload (open-loop harness) are mutually exclusive")
		os.Exit(2)
	}
	if *replicas < 1 || *replicas > fleet.MaxReplicas {
		fmt.Fprintf(os.Stderr, "meshserve: -replicas must be in [1, %d], got %d\n", fleet.MaxReplicas, *replicas)
		os.Exit(2)
	}
	if *loadgen && *kindsFlag != "" {
		fmt.Fprintln(os.Stderr, "meshserve: -loadgen is the membership-only closed-loop sweep; use -workload for kind mixes")
		os.Exit(2)
	}
	if *policy == "all" {
		if *sweepReplicas == "" {
			fmt.Fprintln(os.Stderr, "meshserve: -policy all only makes sense with -sweep-replicas (one search per policy)")
			os.Exit(2)
		}
	} else if _, err := fleet.PolicyByName(*policy); err != nil {
		fmt.Fprintf(os.Stderr, "meshserve: %v\n", err)
		os.Exit(2)
	}
	if *chaosInstance != 0 && *replicas < 2 {
		fmt.Fprintln(os.Stderr, "meshserve: -chaos-instance needs -replicas ≥ 2 (the monkey never kills the last replica)")
		os.Exit(2)
	}
	var outagePlanParsed outagePlan
	if *outage != "" {
		if *replicas < 2 {
			fmt.Fprintln(os.Stderr, "meshserve: -outage needs -replicas ≥ 2 (gray-failure resilience is routing around a slow replica)")
			os.Exit(2)
		}
		plan, err := parseOutage(*outage, *replicas, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "meshserve: %v\n", err)
			os.Exit(2)
		}
		outagePlanParsed = plan
		// Unlike -chaos this does NOT force -audit: latency injection is a
		// gray failure — every answer stays correct, no audit would trip.
		makeInjector = plan.makeInjector(makeInjector)
	}
	if *outageCompare && (*outage == "" || *workload == "") {
		fmt.Fprintln(os.Stderr, "meshserve: -outage-compare needs -outage and -workload (it reruns one arrival plan with and without hedging+ejection)")
		os.Exit(2)
	}
	hedgeCfg := fleet.HedgeConfig{Enabled: *hedge, Delay: *hedgeDelay, P99Multiple: *hedgeP99x}
	ejectCfg := fleet.EjectConfig{Enabled: *eject, Multiple: *ejectMultiple, ProbeInterval: *ejectProbe}
	if *loadgen && *replicas > 1 {
		fmt.Fprintln(os.Stderr, "meshserve: -loadgen drives a one-replica fleet; use -workload for larger fleets")
		os.Exit(2)
	}
	if *target != "" {
		if *workload == "" {
			fmt.Fprintln(os.Stderr, "meshserve: -target needs -workload (the HTTP driver is part of the open-loop harness)")
			os.Exit(2)
		}
		if *replicas > 1 || *chaosInstance != 0 || *sweepReplicas != "" {
			fmt.Fprintln(os.Stderr, "meshserve: -target drives a remote server; -replicas/-chaos-instance/-sweep-replicas configure in-process fleets")
			os.Exit(2)
		}
	}
	if *sweepReplicas != "" && !*saturate {
		fmt.Fprintln(os.Stderr, "meshserve: -sweep-replicas needs -saturate (it runs one saturation search per fleet size)")
		os.Exit(2)
	}
	if *workload != "" {
		f := workloadFlags{
			mode: *workload, rate: *rate, dur: *workloadDur, window: *window,
			on: *burstOn, off: *burstOff, zipf: *zipf, seed: *seed,
			deadline: *queryDeadline, maxInFl: *maxInflight,
			kinds: *kindsFlag, mix: mix,
			traceOut: *traceOut, traceIn: *traceIn, benchOut: *benchOut,
			saturate: *saturate, sloP99: *sloP99, sloDegraded: *sloDegraded,
			sloRejected: *sloRejected, satBisect: *satBisect, satMax: *satMax,
			probeDur: *probeDur,
			trace:    *obsOn,
			target:   *target, replicas: *replicas, policy: *policy,
			sweepReplicas: *sweepReplicas, makeInjector: makeInjector,
			chaosInstance: *chaosInstance, chaosKillEvery: *chaosKillEvery,
			chaosDowntime: *chaosDowntime,
			outage:        *outage, outagePlan: outagePlanParsed,
			outageCompare: *outageCompare, outageMinRecovery: *outageMinRecovery,
			hedgeCfg: hedgeCfg, ejectCfg: ejectCfg,
		}
		if err := runWorkload(cfg, f); err != nil {
			fmt.Fprintf(os.Stderr, "meshserve: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *loadgen {
		counts, err := parseCounts(*clients)
		if err != nil {
			fmt.Fprintf(os.Stderr, "meshserve: %v\n", err)
			os.Exit(2)
		}
		fc := fleetConfig(cfg, 1, *policy, makeInjector, hedgeCfg, ejectCfg)
		if err := runLoadgen(fc, counts, *duration, *seed, *queryDeadline, *chaos != 0); err != nil {
			fmt.Fprintf(os.Stderr, "meshserve: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fc := fleetConfig(cfg, *replicas, *policy, makeInjector, hedgeCfg, ejectCfg)
	chaosCfg := fleet.ChaosConfig{Seed: *chaosInstance, KillEvery: *chaosKillEvery, Downtime: *chaosDowntime}
	if err := runServeFleet(fc, *addr, *drain, chaosCfg); err != nil {
		fmt.Fprintf(os.Stderr, "meshserve: %v\n", err)
		os.Exit(1)
	}
}

// fleetConfig assembles the fleet template from the per-instance serve
// config: every replica gets its own tracer (a tracer records one mesh) and,
// under -chaos, its own derived fault injector.
func fleetConfig(cfg serve.Config, replicas int, policyName string, makeInjector func(i int) mesh.Injector, hedge fleet.HedgeConfig, eject fleet.EjectConfig) fleet.Config {
	pol, err := fleet.PolicyByName(policyName)
	if err != nil {
		pol = fleet.RoundRobin() // validated in main; sweep passes "all"
	}
	return fleet.Config{
		Replicas:     replicas,
		Instance:     cfg,
		Policy:       pol,
		MakeInjector: makeInjector,
		MakeTracer:   func(int) *trace.Tracer { return trace.New() },
		// Unlike tracers and injectors, the observer is deliberately shared:
		// a failed-over request's trace must accumulate stage marks from
		// every replica it touched, in one place.
		Obs:   cfg.Obs,
		Hedge: hedge,
		Eject: eject,
	}
}

// runServeFleet is serve mode: the fleet HTTP surface until SIGINT/SIGTERM,
// then a bounded parallel drain of every replica.
func runServeFleet(fc fleet.Config, addr string, drain time.Duration, chaos fleet.ChaosConfig) error {
	f, err := fleet.New(fc)
	if err != nil {
		return err
	}
	stopChaos := func() {}
	if chaos.Seed != 0 {
		stopChaos = f.StartChaos(chaos)
		fmt.Fprintf(os.Stderr, "meshserve: instance chaos armed (seed %d, kill ~%s, down %s)\n",
			chaos.Seed, chaos.KillEvery, chaos.Downtime)
	}
	httpSrv := &http.Server{Addr: addr, Handler: f.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "meshserve: fleet of %d %dx%d meshes (%s routing), %d keys, kinds %s, serving on %s (/search /healthz /metrics; SIGINT drains)\n",
		f.Replicas(), fc.Instance.Side, fc.Instance.Side, fc.Policy.Name(), len(f.Tree().Keys), kindNamesOf(f.Kinds()), addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-httpErr:
		stopChaos()
		return fmt.Errorf("http server: %w", err)
	}
	stop()
	stopChaos()

	fmt.Fprintf(os.Stderr, "meshserve: draining fleet (deadline %s)\n", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	drainErr := f.Shutdown(dctx)
	_ = httpSrv.Close()
	printFleetStats(f.Stats())
	if drainErr != nil {
		return fmt.Errorf("drain incomplete: %w", drainErr)
	}
	return nil
}

// printFleetStats reports the routing/failover/chaos counters of a fleet run
// and, when any of it ran, the instances' recovery ladder (DESIGN.md §3.6).
func printFleetStats(st fleet.Stats) {
	fmt.Fprintf(os.Stderr,
		"meshserve: fleet served %d dispatches (%d failover-served, %d oracle, %d overloaded, %d unrouted), agg %d queries in %d rounds, health %s\n",
		st.Dispatched, st.FailoverServed, st.OracleServed, st.OverloadedAll, st.Unrouted,
		st.Agg.Served, st.Agg.Rounds, st.Health)
	if st.Crashes > 0 || st.Restarts > 0 {
		fmt.Fprintf(os.Stderr,
			"meshserve: chaos — %d crashes, %d restarts, time-to-healthy last %s / max %s\n",
			st.Crashes, st.Restarts,
			st.LastTimeToHealthy.Round(time.Millisecond), st.MaxTimeToHealthy.Round(time.Millisecond))
	}
	if a := st.Agg; a.Retries+a.Recovered+a.CircuitOpens+a.CanaryRounds > 0 {
		fmt.Fprintf(os.Stderr,
			"meshserve: recovery — %d retries, %d rounds recovered, %d faulted attempts, circuit %d opens/%d closes, canaries %d (%d failed)\n",
			a.Retries, a.Recovered, a.FaultsAudit+a.FaultsBudget+a.FaultsCanceled+a.FaultsPanic+a.FaultsOther,
			a.CircuitOpens, a.CircuitCloses, a.CanaryRounds, a.CanaryFails)
	}
	if st.Hedges > 0 || st.Ejections > 0 || st.BudgetShed > 0 || st.Agg.BudgetShed > 0 {
		fmt.Fprintf(os.Stderr,
			"meshserve: gray-failure — %d hedges (%d won), %d ejections / %d readmissions (%d probes), budget shed %d fleet + %d instance\n",
			st.Hedges, st.HedgeWins, st.Ejections, st.Readmissions, st.EjectProbes,
			st.BudgetShed, st.Agg.BudgetShed)
	}
}

// runLoadgen sweeps closed-loop client counts against one long-lived
// one-replica fleet and prints one throughput row per count from the stats
// deltas. Overloaded lookups retry under the shared jittered backoff (not a
// fixed sleep), each query carries its own deadline, and every answer —
// mesh-served or from the fleet oracle — is checked against the host
// oracle.
func runLoadgen(fc fleet.Config, counts []int, dur time.Duration, seed int64, deadline time.Duration, chaos bool) error {
	f, err := fleet.New(fc)
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = f.Shutdown(ctx)
	}()
	cfg := fc.Instance
	keys := int64(len(f.Tree().Keys))
	fmt.Printf("meshserve loadgen: %dx%d mesh (%s model), %d keys, max batch %d, linger %s, window %s/point\n",
		cfg.Side, cfg.Side, cfg.Model, keys, f.MaxBatch(), cfg.Linger, dur)
	if chaos {
		fmt.Printf("chaos: audit %v, acceptance = zero oracle mismatches, zero failed queries\n", cfg.Audit)
	}
	fmt.Printf("%8s %12s %10s %10s %14s %10s %10s\n",
		"clients", "queries/s", "rounds/s", "q/round", "steps/query", "rejected", "degraded")

	backoff := serve.Backoff{Base: cfg.RetryBackoff}
	for _, nc := range counts {
		before := f.Stats()
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), dur)
		var wg sync.WaitGroup
		// First mismatch or hard error aborts the whole window: a client
		// goroutine that silently returned used to shrink the offered
		// concurrency for the rest of the window, quietly corrupting the
		// throughput row it was about to print. fail() records the first
		// cause and cancels every client; the row is only printed if the
		// acceptance bar passed.
		var failOnce sync.Once
		var failErr error
		fail := func(err error) {
			failOnce.Do(func() { failErr = err })
			cancel()
		}
		for c := 0; c < nc; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(c)*7919))
				overloads := 0
				for ctx.Err() == nil {
					needle := rng.Int63n(2 * keys) // ~half hits, half misses
					res, err := lookupWithDeadline(ctx, f, needle, deadline)
					switch {
					case errors.Is(err, serve.ErrOverloaded):
						if !backoff.Sleep(ctx, overloads) {
							return
						}
						overloads++
					case errors.Is(err, context.Canceled):
						return
					case errors.Is(err, context.DeadlineExceeded):
						if ctx.Err() != nil {
							return // measurement window closed, not a lost query
						}
						fail(fmt.Errorf("lookup of %d exceeded its %s deadline", needle, deadline))
						return
					case errors.Is(err, serve.ErrBudgetExhausted):
						// The measurement-window context doubles as each
						// query's outer deadline, so as the window closes the
						// budget rung rightly sheds queries that cannot finish
						// in time — end of stream, not a lost query. Only a
						// shed against the per-query deadline itself counts
						// as a failure.
						if wd, ok := ctx.Deadline(); ok && (deadline <= 0 || time.Until(wd) < deadline) {
							return
						}
						fail(fmt.Errorf("lookup of %d shed mid-window: %w", needle, err))
						return
					case err != nil:
						fail(fmt.Errorf("lookup of %d failed: %w", needle, err))
						return
					case res.Found != f.Tree().Contains(needle),
						res.Found && res.LeafKey != needle:
						fail(fmt.Errorf("answer for %d disagrees with the host oracle (found=%v leaf=%d)",
							needle, res.Found, res.LeafKey))
						return
					default:
						overloads = 0
					}
				}
			}()
		}
		wg.Wait()
		cancel()
		if failErr != nil {
			return fmt.Errorf("at %d clients: %w", nc, failErr)
		}
		wall := time.Since(start).Seconds()
		d := f.Stats()
		// Answers are the replica's mesh-served ones plus the fleet oracle's;
		// the degraded column counts the latter.
		degraded := d.OracleServed - before.OracleServed
		served := d.Agg.Served - before.Agg.Served + degraded
		rounds := d.Agg.Rounds - before.Agg.Rounds
		steps := d.Agg.SimSteps - before.Agg.SimSteps
		rejected := d.Agg.Rejected - before.Agg.Rejected
		qPerRound, stepsPerQuery := 0.0, 0.0
		if rounds > 0 {
			qPerRound = float64(served) / float64(rounds)
		}
		if served > 0 {
			stepsPerQuery = float64(steps) / float64(served)
		}
		fmt.Printf("%8d %12.0f %10.1f %10.1f %14.0f %10d %10d\n",
			nc, float64(served)/wall, float64(rounds)/wall, qPerRound, stepsPerQuery, rejected, degraded)
	}
	printFleetStats(f.Stats())
	return nil
}

// lookupWithDeadline bounds one lookup by the per-query deadline (0 = none)
// on top of the sweep context.
func lookupWithDeadline(ctx context.Context, f *fleet.Fleet, needle int64, deadline time.Duration) (fleet.Result, error) {
	if deadline <= 0 {
		return f.Lookup(ctx, needle)
	}
	qctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	return f.Lookup(qctx, needle)
}

// kindNamesOf renders a served-kind list for banners.
func kindNamesOf(kinds []serve.Kind) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return strings.Join(names, ",")
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -clients entry %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, errors.New("-clients is empty")
	}
	return out, nil
}
