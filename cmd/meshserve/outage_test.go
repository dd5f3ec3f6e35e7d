package main

import (
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
