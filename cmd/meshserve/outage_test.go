package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestParseOutage pins every form of the -outage grammar on a 3-replica
// fleet, and the inputs it must reject: malformed entries, out-of-range
// replicas, and slowdown factors that are not finite numbers above 1.
func TestParseOutage(t *testing.T) {
	const seed = 11
	at := func(r int, lc faults.LatencyConfig) faults.LatencyConfig {
		lc.Seed = seed + int64(r)*7_368_787
		return lc
	}
	for _, tc := range []struct {
		spec string
		want outagePlan
	}{
		{"slow:r1:10x@2s", outagePlan{1: {at(1, faults.LatencyConfig{After: 2 * time.Second, Factor: 10})}}},
		{"slow:r0:2.5@0s", outagePlan{0: {at(0, faults.LatencyConfig{Factor: 2.5})}}},
		{"stall:r2@5s", outagePlan{2: {at(2, faults.LatencyConfig{After: 5 * time.Second, StallEvery: 250 * time.Millisecond})}}},
		{"stall:r2:20ms@1s", outagePlan{2: {at(2, faults.LatencyConfig{After: time.Second, StallEvery: 250 * time.Millisecond, StallFor: 20 * time.Millisecond})}}},
		{"creep:r0:4x@1s", outagePlan{0: {at(0, faults.LatencyConfig{After: time.Second, Factor: 4, Ramp: 2 * time.Second})}}},
		{"creep:r0:4x:500ms@1s", outagePlan{0: {at(0, faults.LatencyConfig{After: time.Second, Factor: 4, Ramp: 500 * time.Millisecond})}}},
		{"slow:r1:10x@2s, stall:r1@5s,", outagePlan{1: {
			at(1, faults.LatencyConfig{After: 2 * time.Second, Factor: 10}),
			at(1, faults.LatencyConfig{After: 5 * time.Second, StallEvery: 250 * time.Millisecond}),
		}}},
	} {
		got, err := parseOutage(tc.spec, 3, seed)
		if err != nil {
			t.Errorf("parseOutage(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseOutage(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	for _, bad := range []string{
		"", ",", "slow:r1:10x", "slow:r1:10x@soon", "slow:r1:10x@-1s",
		"slow@2s", "slow:r3:10x@2s", "slow:x1:10x@2s", "slow:r-1:10x@2s",
		"slow:r1@2s", "slow:r1:10x:1s@2s", "slow:r1:fastx@2s",
		"creep:r1@2s", "creep:r1:4x:0s@2s", "creep:r1:4x:1s:2s@2s",
		"stall:r1:0s@2s", "stall:r1:1s:2s@2s", "freeze:r1@2s",
		// A factor must be a finite number above 1.
		"slow:r1:1x@2s", "slow:r1:0.5x@2s", "slow:r1:-3x@2s",
		"slow:r1:NaNx@2s", "slow:r1:Infx@2s", "slow:r1:+Infx@2s", "creep:r1:infx@2s", "creep:r1:nan@2s",
	} {
		if plan, err := parseOutage(bad, 3, seed); err == nil {
			t.Errorf("parseOutage(%q) accepted: %+v", bad, plan)
		} else if !strings.HasPrefix(err.Error(), "-outage ") {
			t.Errorf("parseOutage(%q): error %q does not name the flag", bad, err)
		}
	}
}

// FuzzParseOutage feeds an -outage value to parseOutage on a 3-replica
// fleet. It must never panic, and an accepted plan must name only replicas
// in range, with onsets ≥ 0. Each entry is a slowdown (slow, creep) with a
// finite factor above 1 whose delay at a 1 ms gap is not negative, or a
// stall with no factor. A given stall or ramp duration is positive; zero
// means not given (a slow entry has no ramp, and a stall's zero StallFor is
// the 50 ms default). The seed corpus (testdata/fuzz/FuzzParseOutage)
// covers every form of the grammar, NaN, infinite and 10¹³× factors, and
// malformed entries.
func FuzzParseOutage(f *testing.F) {
	const replicas = 3
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := parseOutage(spec, replicas, 11)
		if err != nil {
			return
		}
		if len(plan) == 0 {
			t.Fatalf("%q: accepted an empty plan", spec)
		}
		for r, cfgs := range plan {
			if r < 0 || r >= replicas {
				t.Fatalf("%q: replica %d out of range", spec, r)
			}
			for _, lc := range cfgs {
				if lc.After < 0 || lc.Ramp < 0 || lc.StallFor < 0 {
					t.Fatalf("%q: replica %d: negative onset, ramp or stall in %+v", spec, r, lc)
				}
				if lc.StallEvery > 0 {
					if lc.Factor != 0 || lc.Ramp != 0 {
						t.Fatalf("%q: replica %d: a stall with a slowdown %+v", spec, r, lc)
					}
					continue
				}
				if !(lc.Factor > 1) || math.IsInf(lc.Factor, 0) {
					t.Fatalf("%q: replica %d: accepted factor %g", spec, r, lc.Factor)
				}
				if d := faults.SlowdownDelay(time.Millisecond, lc.Factor); d < 0 {
					t.Fatalf("%q: replica %d: factor %g delays %v at a 1 ms gap", spec, r, lc.Factor, d)
				}
			}
		}
	})
}
