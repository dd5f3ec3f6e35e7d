package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test holds the benchmark to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each emits exactly the metrics BENCHMARK.json names, with their
// units, and that no answer was wrong.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.4",
				"--trace", []string{"0", "1"}[trace], "--out", t.TempDir()}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not a result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%t attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			var got, exp []string
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			for _, m := range want {
				exp = append(exp, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if strings.Join(got, ",") != strings.Join(exp, ",") {
				t.Errorf("%s trace=%d: metrics\n got %v\nwant %v", w.Name, trace, got, exp)
			}
		}
	}
}

// TestRoundsDeterministic checks that the rounds workload's answer digest,
// steps_per_q and mesh.steps.* are a function of the seed alone.
func TestRoundsDeterministic(t *testing.T) {
	exact := func(rep *report) []string {
		out := []string{"digest " + rep.digest}
		for _, m := range append(rep.e2e, rep.layers...) {
			if m.name == "steps_per_q" || strings.HasPrefix(m.name, "mesh.steps.") {
				out = append(out, fmt.Sprintf("%s %v", m.name, m.value))
			}
		}
		return out
	}
	var runs [][]string
	for range 2 {
		rep, err := runRounds(runConfig{seed: 5, dur: 200 * time.Millisecond, trace: true})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, exact(rep))
	}
	if len(runs[0]) != 8 {
		t.Fatalf("want digest, steps_per_q and six mesh.steps values, got %v", runs[0])
	}
	if strings.Join(runs[0], ",") != strings.Join(runs[1], ",") {
		t.Errorf("one seed, two results:\n%v\n%v", runs[0], runs[1])
	}
}

// TestBadFlags checks that bad flags fail before any workload runs.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "rounds", "--trace", "2"},
		{"--workload", "rounds", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "--out", t.TempDir()), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
}

// TestWrongAnswerFails checks the correctness gate: an answer that differs
// from the host oracle in any field is a wrong answer, and a report holding
// one prints correct=false and exits 1.
func TestWrongAnswerFails(t *testing.T) {
	b, err := buildRounds(8)
	if err != nil {
		t.Fatal(err)
	}
	or := newOracle(b.ss, needleDomain(8))
	q := query{kind: serve.KindPointLoc, draw: 3}
	want := or.want[q.kind][q.draw]
	good := serve.Result{Found: want.Found, Value: want.Value, Aux: want.Aux, Steps: want.Steps}
	if oc := or.judge(q, good, nil); oc != okMesh {
		t.Fatalf("oracle's own answer judged %d", oc)
	}
	for _, bad := range []serve.Result{
		{Found: !want.Found, Value: want.Value, Aux: want.Aux, Steps: want.Steps},
		{Found: want.Found, Value: want.Value + 1, Aux: want.Aux, Steps: want.Steps},
		{Found: want.Found, Value: want.Value, Aux: want.Aux + 1, Steps: want.Steps},
		{Found: want.Found, Value: want.Value, Aux: want.Aux, Steps: want.Steps + 1},
	} {
		if oc := or.judge(q, bad, nil); oc != wrongAns {
			t.Errorf("%+v judged %d, want wrong", bad, oc)
		}
	}

	rep := &report{}
	rep.t.add(sample{oc: okMesh, w: 5})
	rep.t.add(sample{oc: wrongAns, w: 1})
	var stdout, stderr bytes.Buffer
	if code := emit("rounds", runConfig{seed: 1, dur: time.Second}, map[string]string{}, rep, t.TempDir(), &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), `{"correct":false,"attempted":6,"failed":1,`) {
		t.Errorf("result line missing or wrong:\n%s", stdout.String())
	}
}
