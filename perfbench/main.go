// Command perfbench is the repository's benchmark. It drives the serving
// stack built on the paper's multisearch — mesh → core round → serve
// instance → fleet → HTTP — through the packages' public APIs, checks every
// answer against serve.HostAnswer, and prints the end-to-end metrics of one
// workload (or, with --trace 1, its per-layer metrics) by name, with units
// and sample counts. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": v, "unit": u}}}
//
// Workloads (METRICS.md says why each exists and what should move it):
//
//	rounds       back-to-back full-batch multisearch rounds, no serving stack
//	mixed-open   open-loop Poisson 12k q/s, E25 kind mix, 1-replica fleet
//	http-closed  one closed-loop HTTP client against a 1-replica fleet
//	gray-fleet   open-loop 4k q/s, 3 replicas, one turns 10× slow mid-phase
//
// Run it from the repository root with perfbench/run.sh, which builds this
// module against the checkout's sources:
//
//	bash perfbench/run.sh --workload rounds --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seconds 5
//
// Exit status: 0 when every answer was correct; 1 on a wrong answer (after
// printing the result) or an error; 2 on bad flags; 3 when an open-loop
// generator fell behind its schedule, which makes the run invalid (no
// result is printed).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// setupReps is how many times each run builds its stack to time set-up;
// setup_s is the median.
const setupReps = 21

type runConfig struct {
	seed  int64
	dur   time.Duration
	trace bool
}

// warmup is the untimed stretch each phase runs first: caches, connection
// pools and the serving layers' latency models settle before timing.
func (rc runConfig) warmup() time.Duration { return min(time.Second, rc.dur/4) }

var workloads = []struct {
	name string
	run  func(runConfig) (*report, error)
}{
	{"rounds", runRounds},
	{"mixed-open", func(rc runConfig) (*report, error) { return runOpen(rc, mixedOpen, mixedOpenRate) }},
	{"http-closed", runHTTPClosed},
	{"gray-fleet", func(rc runConfig) (*report, error) { return runOpen(rc, grayFleet, grayRate) }},
}

// nproc is the CPU count the benchmark sizes its parallelism to: GOMAXPROCS
// and mesh parallelism never exceed it.
func nproc() int { return runtime.NumCPU() }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run: rounds | mixed-open | http-closed | gray-fleet | all")
	seed := fl.Int64("seed", 1, "input seed: the same seed gives the same queries")
	seconds := fl.Float64("seconds", 10, "length of the timed phase, in seconds")
	traceFlag := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fl.String("out", ".bench_build", "directory for result files and span logs")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || fl.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive, --trace 0 or 1, and no positional arguments")
		return 2
	}
	if runtime.GOMAXPROCS(0) > nproc() {
		runtime.GOMAXPROCS(nproc())
	}
	var chosen []int
	for i, w := range workloads {
		if *workload == w.name || *workload == "all" {
			chosen = append(chosen, i)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", *workload)
		return 2
	}
	rc := runConfig{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *traceFlag == 1}
	prov := provenance(rc)
	status := 0
	for _, i := range chosen {
		w := workloads[i]
		rep, err := w.run(rc)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if code := emit(w.name, rc, prov, rep, *out, stdout, stderr); code != 0 {
			status = code
		}
	}
	return status
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints one workload's report, writes its result file and span log,
// and returns the exit status it calls for.
func emit(name string, rc runConfig, prov map[string]string, rep *report, outDir string, stdout, stderr io.Writer) int {
	metrics := rep.e2e
	if rc.trace {
		metrics = rep.layers
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%t\n", name, rc.seed, rc.dur.Seconds(), rc.trace)
	for _, k := range []string{"nproc", "gomaxprocs", "go", "commit", "source_sha256"} {
		fmt.Fprintf(stdout, "  %-14s %s\n", k, prov[k])
	}
	if rep.invalid != "" {
		fmt.Fprintf(stderr, "perfbench: %s: run invalid: %s\n", name, rep.invalid)
		return 3
	}
	for _, m := range metrics {
		fmt.Fprintf(stdout, "  %-34s %14.4f %-8s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	var selfs []layerSelf
	if rep.spans != nil {
		selfs = rep.spans.selfTimes()
		fmt.Fprintf(stdout, "  span self times (%d spans, %d dropped):\n", len(rep.spans.spans), rep.spans.dropped)
		for _, s := range selfs {
			fmt.Fprintf(stdout, "    %-20s n=%-8d mean %10.1f us  self %10.1f us\n", s.Name, s.Count, s.MeanUS, s.SelfUS)
		}
	}

	res := result{
		Correct:   rep.t.n[wrongAns] == 0,
		Attempted: rep.t.attempted(),
		Failed:    rep.t.failed(),
		Metrics:   map[string]jsonMetric{},
	}
	samples := map[string]int64{}
	for _, m := range metrics {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		samples[m.name] = m.n
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", name, rc.seed, boolInt(rc.trace))
	file := map[string]any{
		"workload": name, "provenance": prov, "result": res, "samples": samples,
		"notes": rep.notes, "digest": rep.digest, "span_self_times": selfs,
	}
	if err := writeJSON(filepath.Join(outDir, "results", tag+".json"), file); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rep.spans != nil {
		header := map[string]any{"workload": name, "provenance": prov, "span_self_times": selfs}
		if err := rep.spans.write(filepath.Join(outDir, "trace", tag+".jsonl"), header); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d wrong answers\n", name, rep.t.n[wrongAns])
		return 1
	}
	return 0
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating result directory: %w", err)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result file: %w", err)
	}
	return nil
}

// provenance records what produced a result: the machine's parallelism,
// the toolchain, the commit when the build saw one, and a digest of the
// sources the benchmark was built from (checkouts need not be git trees).
func provenance(rc runConfig) map[string]string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]string{
		"nproc":         fmt.Sprint(nproc()),
		"gomaxprocs":    fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"seed":          fmt.Sprint(rc.seed),
	}
}

// sourceDigest hashes every .go and go.mod file under root, skipping
// hidden directories (the build directory among them).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
