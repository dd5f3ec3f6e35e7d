package loadgen

import (
	"testing"
	"time"
)

func collect(t *testing.T, a *Arrivals) []time.Duration {
	t.Helper()
	var out []time.Duration
	for {
		at, ok := a.Next()
		if !ok {
			return out
		}
		out = append(out, at)
		if len(out) > 1_000_000 {
			t.Fatal("arrival process never terminates")
		}
	}
}

// TestPoissonDeterministicAndMonotone: same seed → identical arrival
// sequence (the record/replay foundation), strictly monotone, inside the
// schedule span.
func TestPoissonDeterministicAndMonotone(t *testing.T) {
	sched := Schedule{{Rate: 500, Dur: 2 * time.Second}}
	a1, err := Poisson(sched, 42)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := Poisson(sched, 42)
	s1, s2 := collect(t, a1), collect(t, a2)
	if len(s1) == 0 || len(s1) != len(s2) {
		t.Fatalf("sequences differ in length: %d vs %d", len(s1), len(s2))
	}
	prev := time.Duration(-1)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("arrival %d differs across same-seed runs: %v vs %v", i, s1[i], s2[i])
		}
		if s1[i] <= prev {
			t.Fatalf("arrival clock not strictly monotone at %d: %v after %v", i, s1[i], prev)
		}
		prev = s1[i]
		if s1[i] > sched.Total() {
			t.Fatalf("arrival %d at %v beyond schedule end %v", i, s1[i], sched.Total())
		}
	}
	a3, _ := Poisson(sched, 43)
	s3 := collect(t, a3)
	if len(s3) == len(s1) {
		same := true
		for i := range s1 {
			if s1[i] != s3[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical sequences")
		}
	}
}

// TestPoissonRateAndSchedule checks the offered rate tracks λ(t): counts per
// phase match rate·dur within 5σ, including across a 10× diurnal step.
func TestPoissonRateAndSchedule(t *testing.T) {
	sched := Schedule{
		{Rate: 200, Dur: 2 * time.Second},
		{Rate: 2000, Dur: 2 * time.Second},
	}
	a, err := Poisson(sched, 7)
	if err != nil {
		t.Fatal(err)
	}
	arr := collect(t, a)
	var low, high int
	for _, at := range arr {
		if at < 2*time.Second {
			low++
		} else {
			high++
		}
	}
	checkCount := func(name string, got int, want float64) {
		sigma := 5 * (want * 0.05) // λ=400/4000: 5·√λ ≪ 5%·λ, use the looser bar
		if float64(got) < want-sigma-5*20 || float64(got) > want+sigma+5*20 {
			t.Fatalf("%s phase: %d arrivals, want ≈ %.0f", name, got, want)
		}
	}
	checkCount("low", low, 400)
	checkCount("high", high, 4000)
}

// TestBurstyOnOffWindows: no arrivals land in OFF windows, and the
// ON-window rate is boosted so the schedule's average is preserved.
func TestBurstyOnOffWindows(t *testing.T) {
	const on, off = 100 * time.Millisecond, 300 * time.Millisecond
	sched := Schedule{{Rate: 1000, Dur: 4 * time.Second}}
	a, err := Bursty(sched, on, off, 99)
	if err != nil {
		t.Fatal(err)
	}
	arr := collect(t, a)
	for i, at := range arr {
		if pos := at % (on + off); pos > on {
			t.Fatalf("arrival %d at %v lands in an OFF window (pos %v)", i, at, pos)
		}
	}
	// Average preserved: ≈ 1000 qps × 4s = 4000 arrivals despite 75% silence.
	if len(arr) < 3400 || len(arr) > 4600 {
		t.Fatalf("bursty produced %d arrivals, want ≈ 4000", len(arr))
	}
}

// TestParseSchedule pins the flag syntax and its error paths.
func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("200x2s,800x500ms,200", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := Schedule{{200, 2 * time.Second}, {800, 500 * time.Millisecond}, {200, 3 * time.Second}}
	if len(s) != len(want) {
		t.Fatalf("parsed %d phases, want %d", len(s), len(want))
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("phase %d = %+v, want %+v", i, s[i], want[i])
		}
	}
	for _, bad := range []string{"", "abc", "100xnope", "-5", "0x1s", "100x0s",
		// Non-finite rates would emit one arrival per nanosecond.
		"NaN,400", "Inf", "+Inf", "-Inf", "400,nan", "infinity",
		// A total past time.Duration's range would wrap negative.
		"1x2562047h,1x2562047h", "1x9223372036854775807ns,1x1ns"} {
		if _, err := ParseSchedule(bad, time.Second); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
	// The longest representable schedule is still accepted.
	if _, err := ParseSchedule("1x9223372036854775806ns,1x1ns", time.Second); err != nil {
		t.Errorf("schedule of exactly the longest Duration rejected: %v", err)
	}
}

// TestZipfKeysSkewAndDeterminism: the hot key dominates, draws stay in the
// needle domain, and the sequence is seed-deterministic.
func TestZipfKeysSkewAndDeterminism(t *testing.T) {
	const keys = 64
	z1, err := ZipfKeys(keys, 1.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	z2, _ := ZipfKeys(keys, 1.5, 5)
	counts := make(map[int64]int)
	for i := 0; i < 20000; i++ {
		v1, v2 := z1.Draw(), z2.Draw()
		if v1 != v2 {
			t.Fatalf("draw %d differs across same-seed zipfs: %d vs %d", i, v1, v2)
		}
		if v1 < 0 || v1 >= 2*keys {
			t.Fatalf("draw %d = %d outside [0, %d)", i, v1, 2*keys)
		}
		counts[v1]++
	}
	if counts[0] < counts[10]*2 || counts[0] < 2000 {
		t.Fatalf("zipf not skewed toward the hot key: counts[0]=%d counts[10]=%d", counts[0], counts[10])
	}
	if _, err := ZipfKeys(keys, 0.9, 1); err == nil {
		t.Fatal("zipf accepted s ≤ 1")
	}
	u, err := UniformKeys(keys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if v := u.Draw(); v < 0 || v >= 2*keys {
			t.Fatalf("uniform draw %d outside domain", v)
		}
	}
}
