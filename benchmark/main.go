// Command benchmark is the ucp repository's end-to-end benchmark.
//
//	benchmark -workload pla-hard -seed 1 -seconds 20 -trace 0
//	benchmark -workload orlib-sharded -trace 1 -spans spans.json
//	benchmark -compare setA/ setB/
//
// A run sets up one workload's inputs from the seed, measures it for
// the given seconds in a child process, checks every answer outside the
// op timer, prints a report, and ends with one JSON line: the
// end-to-end metrics of BENCHMARK.json, or with -trace 1 its per-layer
// metrics.  See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	short   bool // toy input sizes, for the smoke test
	workers int  // solver parallelism: the machine's core count
	workDir string
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string // report lines
	spans             []span
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloads = []workload{
	{"pla-hard", (&poolWorkload{kind: "pla", tailN: 160, build: buildPLA(plaHardPool)}).run},
	{"pla-wide", (&poolWorkload{kind: "pla", tailN: 60, build: buildPLA(plaWidePool)}).run},
	{"orlib-sharded", (&poolWorkload{kind: "orlib", tailN: 100, memBudget: 3 << 19, build: buildORLib}).run},
	{"ucpd-mix", runUcpdMix},
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]reportedMetric `json:"metrics"`
}

// record is one stored run, as -out writes it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Env      env    `json:"env"`
	Result   result `json:"result"`
}

type env struct {
	NProc   int    `json:"nproc"`
	Workers int    `json:"workers"`
	Go      string `json:"go"`
	CPU     string `json:"cpu"`
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured run time")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	spansPath := fs.String("spans", "", "trace runs: write the spans to this JSON file")
	outDir := fs.String("out", "", "also store the run in this directory, for -compare")
	compare := fs.Bool("compare", false, "compare two directories of stored runs: -compare setA setB")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two directories")
			return 2
		}
		return compareSets(spec, fs.Arg(0), fs.Arg(1), stdout)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload (one of %s), -trace 0|1 and -seconds > 0\n", workloadNames())
		return 2
	}

	workDir := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(workDir)
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: runtime.NumCPU(), workDir: workDir}
	rec, err := measure(spec, wl, cfg, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *outDir != "" {
		rec.Env = hostEnv(cfg.workers)
		if err := storeRecord(*outDir, rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	if *spansPath != "" && rec.spans != nil {
		if err := writeSpans(*spansPath, rec.spans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

type measured struct {
	record
	spans []span
}

// measure runs one workload and prints its report, ending with the
// JSON result line.  A metric name missing from the spec is an error,
// and no result line is printed for it.
func measure(spec *benchSpec, wl *workload, cfg runConfig, stdout io.Writer) (*measured, error) {
	oc, err := wl.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	metrics, err := resolveMetrics(spec, cfg.trace, oc.metrics)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	res := result{Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed, Metrics: metrics}
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  workers %d  nproc %d\n", wl.name, cfg.seed, cfg.trace, cfg.workers, runtime.NumCPU())
	for _, n := range oc.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		return nil, err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	return &measured{
		record: record{Workload: wl.name, Seed: cfg.seed, Trace: trace, Result: res},
		spans:  oc.spans,
	}, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func hostEnv(workers int) env {
	e := env{NProc: runtime.NumCPU(), Workers: workers, Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// storeRecord writes the run to dir under a name that pairs it with the
// same run in another set: workload, seed, trace flag and a repeat
// number.
func storeRecord(dir string, m *measured) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m.record, "", "  ")
	if err != nil {
		return err
	}
	for k := 1; ; k++ {
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%02d.json", m.Workload, m.Seed, m.Trace, k))
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return err
		}
		if _, err := fh.Write(data); err != nil {
			fh.Close()
			return err
		}
		return fh.Close()
	}
}
