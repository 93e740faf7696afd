// Command benchfmt converts `go test -bench` text output (on stdin)
// into a small JSON document: one entry per benchmark line with every
// reported metric, plus a per-benchmark min/mean/max summary across
// -count repetitions.  It exists so `make bench` can commit a stable,
// diffable baseline (BENCH_pr5.json) instead of raw bench text.
//
//	go test -run '^$' -bench . -benchtime 1x -count 5 . | benchfmt -o BENCH_pr5.json
//
// With -against it also diffs the run against a committed baseline and
// exits non-zero on regression (`make bench-diff`) in what is exact: an
// allocation growth past its tolerance, or any work counter (a metric
// other than ns/op, B/op and allocs/op) that differs from the baseline
// or between repetitions.  A timing growth past its tolerance is
// printed as an advisory verdict and never fails the run: one
// repetition on a shared host cannot tell a slowdown from load, so
// timing claims go through paired runs instead.  A baseline that is
// missing, unreadable, malformed or empty is itself a failure — a CI
// gate must never pass because its reference quietly vanished:
//
//	go test -run '^$' -bench . -benchtime 1x -count 3 . | benchfmt -against BENCH_pr4.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Entry is one benchmark result line.
type Entry struct {
	Name    string             `json:"name"`  // without the -procs suffix
	Procs   int                `json:"procs"` // GOMAXPROCS suffix (1 if absent)
	Runs    int64              `json:"runs"`  // b.N
	Metrics map[string]float64 `json:"metrics"`
}

// Stat summarises one metric of one benchmark across repetitions.
type Stat struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
}

// Doc is the output document.
type Doc struct {
	Date      string `json:"date"`
	GoVersion string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPU       string `json:"cpu,omitempty"`
	NumCPU    int    `json:"numcpu"`
	Note      string `json:"note,omitempty"`
	Entries   []Entry
	// Summary maps "name-procs" → metric → stats.
	Summary map[string]map[string]*Stat `json:"summary"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main behind injectable streams so the exit paths are
// testable.  It returns the process exit code: 0 on success, 1 on a
// regression or an unusable baseline, 2 on a flag error.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchfmt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default stdout)")
	note := fs.String("note", "", "free-form note recorded in the document")
	against := fs.String("against", "", "baseline JSON document to compare with; exits non-zero on regression")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchfmt: "+format+"\n", a...)
		return 1
	}

	// Load the baseline before reading the (expensive) bench stream, so
	// a bad -against path fails fast.
	var base *Doc
	if *against != "" {
		var err error
		if base, err = loadBaseline(*against); err != nil {
			return fail("%v", err)
		}
	}

	doc := &Doc{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Note:      *note,
		Summary:   map[string]map[string]*Stat{},
	}

	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(stdout, line) // pass the raw output through for the terminal
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			doc.CPU = strings.TrimSpace(cpu)
			continue
		}
		e, ok := parseLine(line)
		if !ok {
			continue
		}
		doc.Entries = append(doc.Entries, e)
		key := fmt.Sprintf("%s-%d", e.Name, e.Procs)
		m := doc.Summary[key]
		if m == nil {
			m = map[string]*Stat{}
			doc.Summary[key] = m
		}
		for unit, v := range e.Metrics {
			s := m[unit]
			if s == nil {
				s = &Stat{Min: v, Max: v}
				m[unit] = s
			}
			s.Count++
			s.Mean += v // sum for now; divided below
			if v < s.Min {
				s.Min = v
			}
			if v > s.Max {
				s.Max = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fail("read: %v", err)
	}
	for _, m := range doc.Summary {
		for _, s := range m {
			s.Mean /= float64(s.Count)
		}
	}
	sort.Slice(doc.Entries, func(a, b int) bool {
		ea, eb := doc.Entries[a], doc.Entries[b]
		if ea.Name != eb.Name {
			return ea.Name < eb.Name
		}
		return ea.Procs < eb.Procs
	})

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fail("marshal: %v", err)
	}
	buf = append(buf, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			return fail("write: %v", err)
		}
	} else if *against == "" {
		stdout.Write(buf)
	}

	if base != nil && !compare(stdout, doc, base, *against) {
		return 1
	}
	return 0
}

// loadBaseline reads and validates an -against document.  Every way
// the baseline can be useless — missing file, malformed JSON, a JSON
// document with no benchmark summaries — is an error: a silent pass
// against a vanished reference would defeat the regression gate.
func loadBaseline(path string) (*Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline %s: %v", path, err)
	}
	base := &Doc{}
	if err := json.Unmarshal(raw, base); err != nil {
		return nil, fmt.Errorf("baseline %s: malformed JSON: %v", path, err)
	}
	if len(base.Summary) == 0 {
		return nil, fmt.Errorf("baseline %s: no benchmark summaries (empty or truncated document)", path)
	}
	return base, nil
}

// Regression thresholds for -against: timing may wobble by up to 75%
// before the advisory verdict shows — the shared container drifts
// between load windows whose minima differ by ~1.5× on
// millisecond-scale benches (measured on the ZDD substrates), and
// slower hosts read slower throughout — plus an absolute slack so
// sub-millisecond benchmarks, whose noise floor (scheduler ticks, cold
// caches) is a large fraction of the runtime, stay quiet.  The
// blocking half of the gate starts with allocations: counts are
// near-deterministic, but the parallel portfolio's sync.Pool behaviour
// is scheduler-dependent, so its count jitters by a few per-op in the
// hundreds of thousands between runs; a 0.5% allowance absorbs that
// while a real leak (orders of magnitude larger) still fails.  Every other metric is a work counter the
// benchmark reports (cost, core rows, nodes, ...); the solvers are
// bit-identical by contract, so those are gated exactly.
const (
	maxNsGrowth     = 0.75
	minNsSlack      = 100e3 // 100µs
	maxAllocsGrowth = 0.005
)

// compare prints a per-benchmark delta table of the current document
// against a baseline and reports whether the gate passes.  Metrics are
// compared on their minima (the least-noise repetition), and a work
// counter must also read the same in every repetition; benchmarks or
// metrics absent from the baseline are reported but never fail, and
// neither does the advisory timing verdict.
func compare(w io.Writer, doc, base *Doc, name string) bool {
	fmt.Fprintf(w, "\nvs %s:\n", name)
	keys := make([]string, 0, len(doc.Summary))
	for key := range doc.Summary {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	ok := true
	for _, key := range keys {
		bm := base.Summary[key]
		if bm == nil {
			fmt.Fprintf(w, "  %-44s (not in baseline)\n", key)
			continue
		}
		units := make([]string, 0, len(doc.Summary[key]))
		for unit := range doc.Summary[key] {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			s, bs := doc.Summary[key][unit], bm[unit]
			if bs == nil {
				fmt.Fprintf(w, "  %-44s %12.4g %-11s (metric not in baseline)\n", key, s.Min, unit)
				continue
			}
			verdict, blocking := "", true
			switch unit {
			case "allocs/op":
				if s.Min > bs.Min*(1+maxAllocsGrowth) {
					verdict = "REGRESSION (allocation growth)"
				}
			case "ns/op":
				if bs.Min > 0 && s.Min > bs.Min*(1+maxNsGrowth)+minNsSlack {
					verdict = fmt.Sprintf("advisory (>%d%% slower; time it in paired runs)", int(maxNsGrowth*100))
					blocking = false
				}
			case "B/op": // tracks allocs/op, which is gated above
			default:
				if s.Max != s.Min {
					verdict = fmt.Sprintf("REGRESSION (work counter varies: %g..%g)", s.Min, s.Max)
				} else if s.Min != bs.Min {
					verdict = "REGRESSION (work counter differs)"
				}
			}
			if verdict != "" && blocking {
				ok = false
			}
			delta := "n/a"
			if bs.Min != 0 {
				delta = fmt.Sprintf("%+.1f%%", (s.Min-bs.Min)/bs.Min*100)
			}
			fmt.Fprintf(w, "  %-44s %12.4g %-11s baseline %12.4g  %8s  %s\n",
				key, s.Min, unit, bs.Min, delta, verdict)
		}
	}
	if ok {
		fmt.Fprintln(w, "  no regressions")
	}
	return ok
}

// parseLine decodes one "BenchmarkName-8  N  v1 unit1  v2 unit2 ..."
// result line; ok is false for any other line.
func parseLine(line string) (Entry, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
		return Entry{}, false
	}
	e := Entry{Name: f[0], Procs: 1, Metrics: map[string]float64{}}
	if i := strings.LastIndexByte(f[0], '-'); i > 0 {
		if procs, err := strconv.Atoi(f[0][i+1:]); err == nil {
			e.Name, e.Procs = f[0][:i], procs
		}
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e.Runs = runs
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Entry{}, false
		}
		e.Metrics[f[i+1]] = v
	}
	return e, true
}
