package main

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/serve"
)

// runOutageCompare is the E26 harness (-outage-compare): one arrival plan,
// one gray-failure schedule, two fleets — a baseline with plain sequential
// failover, and a resilient fleet with hedging and latency ejection on —
// and the p99 recovery ratio between them. Both runs must produce identical
// answer digests (the mechanisms may only move *time*, never answers) and
// zero oracle mismatches; the ratio quantifies what §3.11 buys.
func runOutageCompare(cfg serve.Config, f workloadFlags) error {
	if f.mode == "replay" || f.saturate {
		return fmt.Errorf("-outage-compare runs a fixed poisson/burst plan (not -saturate or replay)")
	}

	// Baseline: the outage plan injects (makeInjector builds fresh latency
	// injectors per fleet), but hedging and ejection stay off.
	base := f
	base.hedgeCfg = fleet.HedgeConfig{}
	base.ejectCfg = fleet.EjectConfig{}
	bt, err := newTarget(cfg, base, f.replicas, f.policy)
	if err != nil {
		return err
	}
	events, err := generateEvents(f, bt)
	if err != nil {
		bt.close()
		return err
	}
	fmt.Printf("--- baseline: sequential failover only, outage %s ---\n", f.outagePlan)
	baseRep, err := loadgen.Run(bt.runConfig(events, base))
	if err != nil {
		bt.close()
		return err
	}
	printReport(baseRep)
	printFleetStats(bt.fleet.Stats())
	bt.close()

	// Resilient: same plan, same injected outage, hedging + ejection on.
	res := f
	res.hedgeCfg.Enabled = true
	res.ejectCfg.Enabled = true
	rt, err := newTarget(cfg, res, f.replicas, f.policy)
	if err != nil {
		return err
	}
	resEvents := loadgen.StripAnswers(events)
	fmt.Printf("\n--- resilient: hedging + latency ejection, same plan, same outage ---\n")
	resRep, err := loadgen.Run(rt.runConfig(resEvents, res))
	if err != nil {
		rt.close()
		return err
	}
	printReport(resRep)
	printFleetStats(rt.fleet.Stats())
	rt.close()

	// Correctness gates: gray-failure machinery must be invisible in the
	// answer stream — both runs answer everything, identically.
	for name, rep := range map[string]*loadgen.Report{"baseline": baseRep, "resilient": resRep} {
		if rep.Total.Mismatched > 0 {
			return fmt.Errorf("%s run: %d answers disagreed with the host oracle", name, rep.Total.Mismatched)
		}
		if rep.Total.Failed > 0 {
			return fmt.Errorf("%s run: %d queries failed", name, rep.Total.Failed)
		}
	}
	if n, first := loadgen.CompareAnswers(events, resEvents); n > 0 {
		return fmt.Errorf("resilient run diverged from the baseline answer stream on %d of %d events: %v",
			n, len(events), first)
	}
	if baseRep.Digest != resRep.Digest {
		return fmt.Errorf("digest mismatch: baseline %.16s… vs resilient %.16s… (same plan must answer identically)",
			baseRep.Digest, resRep.Digest)
	}

	ratio := 0.0
	if resRep.Total.P99 > 0 {
		ratio = float64(baseRep.Total.P99) / float64(resRep.Total.P99)
	}
	fmt.Printf("\n%12s %12s %12s %12s\n", "", "p50", "p99", "p999")
	fmt.Printf("%12s %12s %12s %12s\n", "baseline",
		baseRep.Total.P50.Round(time.Microsecond), baseRep.Total.P99.Round(time.Microsecond), baseRep.Total.P999.Round(time.Microsecond))
	fmt.Printf("%12s %12s %12s %12s\n", "resilient",
		resRep.Total.P50.Round(time.Microsecond), resRep.Total.P99.Round(time.Microsecond), resRep.Total.P999.Round(time.Microsecond))
	fmt.Printf("p99 recovery ratio: %.2fx (answer digest %.16s…, identical in both runs)\n", ratio, baseRep.Digest)

	if f.outageMinRecovery > 0 && ratio < f.outageMinRecovery {
		return fmt.Errorf("p99 recovery ratio %.2fx is below the -outage-min-recovery bound %.2fx", ratio, f.outageMinRecovery)
	}
	return nil
}
