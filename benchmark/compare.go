package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadRecords reads every stored run of a directory, keyed by file
// name.
func loadRecords(dir string) (map[string]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]record{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[filepath.Base(p)] = r
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no stored runs", dir)
	}
	return out, nil
}

// verdict judges set B against set A on one metric.  The bound is the
// largest relative worsening that still counts as agreement.  When
// either set's interquartile spread exceeds the bound the comparison is
// unresolved, unless every run of one set reads better than every run
// of the other.
func verdict(m metricSpec, a, b []float64) string {
	if m.Bound == nil {
		return ""
	}
	bound := *m.Bound
	sign := 1.0 // positive: higher reads better
	if m.Better == "lower" {
		sign = -1
	}
	if spread(a) > bound || spread(b) > bound {
		lo := func(xs []float64) float64 { return sortedCopy(xs)[0] }
		hi := func(xs []float64) float64 { s := sortedCopy(xs); return s[len(s)-1] }
		switch {
		case sign > 0 && lo(b) > hi(a), sign < 0 && hi(b) < lo(a):
			return "better"
		case sign > 0 && hi(b) < lo(a), sign < 0 && lo(b) > hi(a):
			return "worse"
		}
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb == 0 {
			return "agree"
		}
		return "unresolved"
	}
	rel := sign * (mb - ma) / math.Abs(ma)
	switch {
	case rel < -bound:
		return "worse"
	case rel > bound:
		return "better"
	}
	return "agree"
}

// pairedWins counts, over runs stored under the same name in both sets,
// how often B reads better than A; ties count for neither.
func pairedWins(m metricSpec, a, b map[string]record, names []string) (wins, pairs int) {
	for _, n := range names {
		rb, ok := b[n]
		if !ok {
			continue
		}
		va, vb := a[n].Result.Metrics[m.Name].Value, rb.Result.Metrics[m.Name].Value
		pairs++
		if (m.Better == "lower" && vb < va) || (m.Better == "higher" && vb > va) {
			wins++
		}
	}
	return wins, pairs
}

// compareSets prints, per workload and metric, each set's median and
// quartiles and the verdict, checks that every exact metric is
// identical across all runs of a seed, and exits non-zero when an
// end-to-end metric does not agree, an exact metric differs, or a run
// failed its answer checks.  Comparing two sets of the same code, every
// line should read "agree" or "exact".
func compareSets(spec *benchSpec, dirA, dirB string, stdout io.Writer) int {
	a, err := loadRecords(dirA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadRecords(dirB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bad := false
	for _, set := range []map[string]record{a, b} {
		for n, r := range set {
			if !r.Result.Correct {
				fmt.Fprintf(stdout, "%s: %d of %d ops failed their checks\n", n, r.Result.Failed, r.Result.Attempted)
				bad = true
			}
		}
	}
	type group struct {
		workload string
		trace    int
	}
	groups := map[group][2][]string{}
	for i, set := range []map[string]record{a, b} {
		for n, r := range set {
			g := group{r.Workload, r.Trace}
			names := groups[g]
			names[i] = append(names[i], n)
			groups[g] = names
		}
	}
	keys := make([]group, 0, len(groups))
	for g := range groups {
		keys = append(keys, g)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].trace < keys[j].trace
	})
	for _, g := range keys {
		names := groups[g]
		if len(names[0]) == 0 || len(names[1]) == 0 {
			fmt.Fprintf(stdout, "%s trace %d: only in one set, skipped\n", g.workload, g.trace)
			continue
		}
		sort.Strings(names[0])
		fmt.Fprintf(stdout, "%s (trace %d): %d vs %d runs\n", g.workload, g.trace, len(names[0]), len(names[1]))
		fmt.Fprintf(stdout, "  %-28s %34s %34s  %-10s %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "verdict", "paired B wins")
		for _, m := range spec.metrics(g.trace == 1) {
			va, vb := values(a, names[0], m.Name), values(b, names[1], m.Name)
			var v string
			if exactMetrics[m.Name] {
				v = "exact"
				if d := exactMismatch(a, b, names, m.Name); d != "" {
					v = "DIFFERS " + d
					bad = true
				}
			} else if v = verdict(m, va, vb); m.Bound != nil && v != "agree" {
				bad = true
			}
			wins, pairs := pairedWins(m, a, b, names[0])
			paired := ""
			if pairs > 0 {
				paired = fmt.Sprintf("%d/%d", wins, pairs)
			}
			fmt.Fprintf(stdout, "  %-28s %34s %34s  %-10s %s\n", m.Name, summary(va), summary(vb), v, paired)
		}
	}
	if bad {
		fmt.Fprintln(stdout, "sets disagree")
		return 1
	}
	fmt.Fprintln(stdout, "sets agree")
	return 0
}

func values(set map[string]record, names []string, metric string) []float64 {
	out := make([]float64, 0, len(names))
	for _, n := range names {
		out = append(out, set[n].Result.Metrics[metric].Value)
	}
	return out
}

func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

// exactMismatch reports the first seed whose runs, across both sets,
// disagree on an exact metric.
func exactMismatch(a, b map[string]record, names [2][]string, metric string) string {
	bySeed := map[int64]map[float64]bool{}
	for i, set := range []map[string]record{a, b} {
		for _, n := range names[i] {
			r := set[n]
			if bySeed[r.Seed] == nil {
				bySeed[r.Seed] = map[float64]bool{}
			}
			bySeed[r.Seed][r.Result.Metrics[metric].Value] = true
		}
	}
	for seed, vals := range bySeed {
		if len(vals) > 1 {
			var vs []string
			for v := range vals {
				vs = append(vs, fmt.Sprint(v))
			}
			sort.Strings(vs)
			return fmt.Sprintf("seed %d: %s", seed, strings.Join(vs, " vs "))
		}
	}
	return ""
}
