package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/serve"
)

// oneLieInjector makes exactly one sort lie after each arming: one faulted
// round, then a healed mesh.
type oneLieInjector struct{ armed atomic.Bool }

func (g *oneLieInjector) SortLie(_ string, items int) int64 {
	if items >= 2 && g.armed.CompareAndSwap(true, false) {
		return 1
	}
	return 0
}
func (g *oneLieInjector) CorruptCell(string, int) (int, int, bool) { return 0, 0, false }
func (g *oneLieInjector) DropReply(int) (int, bool)                { return 0, false }
func (g *oneLieInjector) DuplicateReply(int) (int, int, bool)      { return 0, 0, false }

// TestFaultWakesProberWithoutTick pins the wake rule: with the prober's
// tick parked at an hour, a terminal fault followed by a healed mesh still
// closes the circuit, because the dispatch that met the fault woke the
// prober and a fresh opening is canaried at once.
func TestFaultWakesProberWithoutTick(t *testing.T) {
	g := &oneLieInjector{}
	f := newTestFleet(t, Config{
		Instance: serve.Config{
			Side: 8, Audit: true, Injector: g,
			MaxRetries: -1,
		},
		ProbeInterval: time.Hour,
	})
	g.armed.Store(true)
	res, err := f.Lookup(context.Background(), 3)
	if err != nil || !res.Degraded {
		t.Fatalf("lookup on the faulted round: res=%+v err=%v; want a fleet-oracle answer", res, err)
	}
	checkAnswer(t, f, 3, res)
	inst := f.instance(0)
	deadline := time.Now().Add(5 * time.Second)
	for inst.CircuitOpen() {
		if time.Now().After(deadline) {
			t.Fatalf("circuit never closed without a tick: %+v", inst.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	st := inst.Stats()
	if st.CircuitOpens != 1 || st.CircuitCloses != 1 || st.CanaryRounds != 1 || st.CanaryFails != 0 {
		t.Fatalf("want one opening closed by its one wake canary: %+v", st)
	}
	if res, err := f.Lookup(context.Background(), 5); err != nil || res.Degraded {
		t.Fatalf("lookup after the canary: res=%+v err=%v; want a mesh answer", res, err)
	}
}

// TestFastFailingProbesDoNotReadmit is the regression test for probes that
// fail fast. An ejected replica whose circuit is held open answers every
// lookup at once with ErrCircuitOpen; those answers used to feed the
// latency score as fast samples and readmit the replica after a few dozen
// probes. Now the prober canaries an open circuit instead of
// latency-probing it, so the score and the ejection stand.
func TestFastFailingProbesDoNotReadmit(t *testing.T) {
	f := newTestFleet(t, Config{
		Replicas: 3,
		Instance: serve.Config{
			Side: 8, Audit: true, MaxRetries: -1,
			Linger: 100 * time.Microsecond,
		},
		MakeInjector: func(i int) mesh.Injector {
			if i == 1 {
				return brokenInjector{}
			}
			return nil
		},
		Eject:         EjectConfig{Enabled: true, MinSamples: 2},
		ProbeInterval: time.Hour,
	})
	for i := 0; i < 2; i++ {
		f.noteLatency(0, time.Millisecond)
		f.noteLatency(2, time.Millisecond)
		f.noteLatency(1, 100*time.Millisecond)
	}
	if !f.reps[1].ejected.Load() {
		t.Fatalf("replica 1 not ejected at a 100ms score: %+v", f.Stats())
	}
	inst := f.instance(1)
	if _, err := inst.Lookup(context.Background(), 3); err == nil || !inst.CircuitOpen() {
		t.Fatalf("broken replica: err=%v, circuit open %v", err, inst.CircuitOpen())
	}
	const ticks = 40
	for k := 0; k < ticks; k++ {
		f.probePass(context.Background(), true)
	}
	st := f.Stats()
	if !st.PerReplica[1].Ejected || st.Readmissions != 0 {
		t.Fatalf("fast-failing probes readmitted replica 1: %+v", st.PerReplica[1])
	}
	if got := f.reps[1].ewmaNS.Load(); got != int64(100*time.Millisecond) || f.reps[1].latSamples.Load() != 2 {
		t.Fatalf("probes moved the open replica's score to %v", time.Duration(got))
	}
	if is := inst.Stats(); st.EjectProbes != 0 || is.CanaryRounds != ticks || is.CanaryFails != ticks {
		t.Fatalf("want %d failed canaries and no latency probe: probes %d, canaries %d/%d",
			ticks, st.EjectProbes, is.CanaryFails, is.CanaryRounds)
	}
}

// healthModel is the reference model for TestHealthMachineMatchesModel:
// three replicas; a breaker that any faulted round opens (MaxRetries -1)
// and only a passing canary closes; a wake that canaries each opening once;
// and the ejection rule (EWMA α = 1/4, ejectMultiple 4, readmitMultiple 1.5,
// MinSamples 1). A latency probe counts as a 0 ns sample.
type healthModel struct {
	up, open, armed, ejected, canaried [3]bool
	score, samples                     [3]int64
	closed, ambiguous                  bool
}

func (m *healthModel) routable(i int) bool { return m.up[i] && !m.closed && !m.ejected[i] }

func (m *healthModel) health(i int) string {
	switch {
	case !m.up[i]:
		return ""
	case m.ejected[i]:
		return "ejected"
	case m.closed:
		return "lame-duck"
	case m.open[i]:
		return "degraded"
	}
	return "healthy"
}

func (m *healthModel) sample(i int, ns int64) {
	if m.score[i] > 0 {
		ns = m.score[i] + (ns-m.score[i])/4
	}
	m.score[i], m.samples[i] = ns, m.samples[i]+1
	var s []int64
	for j := range m.up {
		if m.up[j] && m.score[j] > 0 {
			s = append(s, m.score[j])
		}
	}
	slices.Sort(s)
	med := float64(s[len(s)/2])
	if len(s)%2 == 0 {
		med = float64((s[len(s)/2-1] + s[len(s)/2]) / 2)
	}
	score, thr := float64(m.score[i]), 4*med
	if m.ejected[i] {
		thr = 1.5 * med
		m.ejected[i] = score > thr
	} else if score >= thr && (m.routable((i+1)%3) || m.routable((i+2)%3)) {
		m.ejected[i] = true
	}
	m.ambiguous = m.ambiguous || math.Abs(score-thr) < 2e9
}

// pass mirrors probePass; a latency probe of an armed replica faults and
// opens its circuit instead of scoring.
func (m *healthModel) pass(tick bool) {
	for i := range m.up {
		switch {
		case !m.up[i] || (m.open[i] && !tick && m.canaried[i]):
		case m.open[i]: // the canary passes unless armed
			m.open[i], m.canaried[i] = m.armed[i], m.armed[i]
		case tick && m.ejected[i] && m.armed[i]:
			m.open[i] = true
		case tick && m.ejected[i]:
			m.sample(i, 0)
		}
	}
}

// TestHealthMachineMatchesModel drives seeded random event sequences into a
// 3-replica fleet whose prober tick is parked at an hour — every tick and
// every wake is the test's own probePass call — and after each event
// compares each replica's health, its routability and the /healthz status
// against healthModel. Samples are on a scale of 1000s, so the real latency
// of a latency probe (well under its 1s timeout) cannot move a decision;
// the model flags any decision within 2s of its threshold.
func TestHealthMachineMatchesModel(t *testing.T) {
	const fast, slow = 1000*time.Second + 7, 37000*time.Second + 11
	ctx := context.Background()
	seen := map[string]bool{}
	for seed := int64(1); seed <= 200; seed++ {
		var gates [3]gateInjector
		f := newTestFleet(t, Config{
			Replicas: 3,
			Instance: serve.Config{
				Side: 8, Audit: true, MaxRetries: -1,
			},
			MakeInjector:  func(i int) mesh.Injector { return &gates[i] },
			Eject:         EjectConfig{Enabled: true, MinSamples: 1},
			ProbeInterval: time.Hour,
		})
		m := &healthModel{up: [3]bool{true, true, true}}
		rng := rand.New(rand.NewSource(seed))
		var log []string
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d after [%s]: %s", seed, strings.Join(log, ", "), fmt.Sprintf(format, args...))
		}
		for step := 0; step < 30 && !m.closed; step++ {
			i, r := rng.Intn(3), rng.Intn(100)
			switch {
			case r < 30:
				armed := rng.Intn(2) == 0
				log = append(log, fmt.Sprintf("armed(%d)=%v", i, armed))
				gates[i].broken.Store(armed)
				m.armed[i] = armed
				if !m.up[i] {
					break
				}
				_, err := f.instance(i).Lookup(ctx, 3)
				want := m.open[i] || m.armed[i]
				m.open[i] = want
				if (err != nil) != want || wakesProber(err) != want {
					fail("lookup on %d: err %v, want a fault %v", i, err, want)
				}
				if want {
					f.probePass(ctx, false)
					m.pass(false)
				}
			case r < 50:
				log = append(log, "tick")
				f.probePass(ctx, true)
				m.pass(true)
			case r < 80:
				d := fast
				if rng.Intn(3) == 0 {
					d = slow
				}
				log = append(log, fmt.Sprintf("sample(%d)=%v", i, d))
				if m.up[i] {
					f.noteLatency(i, d)
					m.sample(i, int64(d))
				}
			case r < 90:
				log = append(log, fmt.Sprintf("crash(%d)", i))
				if err := f.CrashReplica(i); (err == nil) != m.up[i] {
					fail("crash %d: %v", i, err)
				}
				m.up[i] = false
			case r < 98:
				log = append(log, fmt.Sprintf("restart(%d)", i))
				if err := f.RestartReplica(i); (err == nil) == m.up[i] {
					fail("restart %d: %v", i, err)
				}
				if !m.up[i] {
					m.up[i], m.open[i], m.canaried[i], m.ejected[i], m.score[i], m.samples[i] = true, false, false, false, 0, 0
				}
			default:
				log = append(log, "shutdown")
				if err := f.Shutdown(ctx); err != nil {
					fail("shutdown: %v", err)
				}
				m.closed = true
			}
			if m.ambiguous {
				fail("a decision fell within 2s of its threshold; the model cannot tell it apart from probe latency")
			}
			st := f.Stats()
			healthz := 503
			for j := range m.up {
				if got := st.PerReplica[j].Health; got != m.health(j) {
					fail("replica %d health %q, model %q", j, got, m.health(j))
				}
				if got := routable(f.view(j), noSkip); got != m.routable(j) {
					fail("replica %d routable %v, model %v", j, got, m.routable(j))
				}
				if m.health(j) == "healthy" {
					healthz = 200
				}
				seen[m.health(j)] = true
			}
			rec := httptest.NewRecorder()
			f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
			if rec.Code != healthz {
				fail("/healthz %d, model %d", rec.Code, healthz)
			}
		}
		if err := f.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("the sequences reached only %v of the five replica states", seen)
	}
}
