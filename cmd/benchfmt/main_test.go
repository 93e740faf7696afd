package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchStream = `goos: linux
cpu: Test CPU @ 2.0GHz
BenchmarkFoo-8   	      10	   1000000 ns/op	    2048 B/op	      12 allocs/op
BenchmarkFoo-8   	      10	   1100000 ns/op	    2048 B/op	      12 allocs/op
PASS
`

func runWith(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestEmitsDocument(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	code, _, stderr := runWith(t, benchStream, "-o", out, "-note", "test run")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"BenchmarkFoo-8"`, `"ns/op"`, `"note": "test run"`, `"min": 1000000`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("document missing %s:\n%s", want, raw)
		}
	}
}

// The -against gate must fail loudly — one clear line, nonzero exit —
// when the baseline is missing, malformed, or carries no summaries,
// instead of silently passing against nothing.
func TestAgainstUnusableBaseline(t *testing.T) {
	cases := []struct {
		name, path, wantErr string
	}{
		{"missing", filepath.Join(t.TempDir(), "nope.json"), "baseline"},
		{"malformed", "", "malformed JSON"},
		{"null-doc", "", "no benchmark summaries"},
		{"empty-summary", "", "no benchmark summaries"},
	}
	cases[1].path = writeFile(t, "bad.json", "{not json")
	cases[2].path = writeFile(t, "null.json", "null")
	cases[3].path = writeFile(t, "empty.json", `{"summary": {}}`)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runWith(t, benchStream, "-against", tc.path)
			if code == 0 {
				t.Fatalf("exit 0 against unusable baseline %s", tc.path)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.wantErr)
			}
			if n := strings.Count(strings.TrimRight(stderr, "\n"), "\n"); n != 0 {
				t.Errorf("want a one-line error, got %d lines: %q", n+1, stderr)
			}
		})
	}
}

func TestAgainstDetectsRegression(t *testing.T) {
	// Baseline where BenchmarkFoo-8 allocated 10 times per op, not 12.
	base := writeFile(t, "base.json", `{"summary": {"BenchmarkFoo-8": {"allocs/op": {"count": 1, "min": 10, "mean": 10, "max": 10}}}}`)
	code, stdout, _ := runWith(t, benchStream, "-against", base)
	if code == 0 {
		t.Fatal("regression not detected")
	}
	if !strings.Contains(stdout, "REGRESSION (allocation growth)") {
		t.Errorf("output does not flag the regression:\n%s", stdout)
	}
}

// A timing regression alone is advisory: it is printed, but the gate
// passes, while an allocation or work-counter regression beside it
// still fails the run.
func TestAgainstTimingIsAdvisory(t *testing.T) {
	// Baseline where BenchmarkFoo-8 was 2x faster than the stream.
	slower := `"ns/op": {"count": 1, "min": 400000, "mean": 400000, "max": 400000}`
	cases := []struct {
		name, base string
		pass       bool
	}{
		{"timing only", slower, true},
		{"timing and allocs", slower + `, "allocs/op": {"count": 1, "min": 10, "mean": 10, "max": 10}`, false},
		{"timing and counter", slower + `, "cost/op": {"count": 1, "min": 46, "mean": 46, "max": 46}`, false},
	}
	stream := strings.ReplaceAll(benchStream, "allocs/op", "allocs/op	      47 cost/op")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := writeFile(t, "base.json", `{"summary": {"BenchmarkFoo-8": {`+tc.base+`}}}`)
			code, stdout, _ := runWith(t, stream, "-against", base)
			if (code == 0) != tc.pass {
				t.Fatalf("exit %d, want pass=%v:\n%s", code, tc.pass, stdout)
			}
			if !strings.Contains(stdout, "advisory (>75% slower") {
				t.Errorf("output does not print the timing verdict:\n%s", stdout)
			}
			if tc.pass != strings.Contains(stdout, "no regressions") {
				t.Errorf("pass line does not match the exit code:\n%s", stdout)
			}
		})
	}
}

func TestAgainstPassesWithinTolerance(t *testing.T) {
	base := writeFile(t, "base.json", `{"summary": {"BenchmarkFoo-8": {"ns/op": {"count": 1, "min": 990000, "mean": 990000, "max": 990000}}}}`)
	code, stdout, stderr := runWith(t, benchStream, "-against", base)
	if code != 0 {
		t.Fatalf("exit %d within tolerance; stdout:\n%s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "no regressions") {
		t.Errorf("output missing pass line:\n%s", stdout)
	}
}

func TestParseLine(t *testing.T) {
	e, ok := parseLine("BenchmarkBar-16   	     100	     52341 ns/op	  12 extra/op")
	if !ok || e.Name != "BenchmarkBar" || e.Procs != 16 || e.Runs != 100 {
		t.Fatalf("parseLine: %+v ok=%v", e, ok)
	}
	if e.Metrics["ns/op"] != 52341 || e.Metrics["extra/op"] != 12 {
		t.Errorf("metrics: %v", e.Metrics)
	}
	if _, ok := parseLine("PASS"); ok {
		t.Error("PASS line parsed as a benchmark")
	}
}

// Work counters — every metric but ns/op, B/op and allocs/op — are
// gated exactly: a value off the baseline or one that varies across
// repetitions fails, while B/op may move freely.
func TestAgainstGatesWorkCountersExactly(t *testing.T) {
	base := writeFile(t, "base.json", `{"summary": {"BenchmarkFoo-8": {
		"B/op": {"count": 2, "min": 1024, "mean": 1024, "max": 1024},
		"cost/op": {"count": 2, "min": 47, "mean": 47, "max": 47}}}}`)
	line := func(bytes, cost string) string {
		return "BenchmarkFoo-8   	      10	   1000000 ns/op	" + bytes + " B/op	      12 allocs/op	" + cost + " cost/op\n"
	}
	cases := []struct {
		name, stream, want string
	}{
		{"equal", line("2048", "47") + line("4096", "47"), "no regressions"},
		{"differs", line("1024", "48") + line("1024", "48"), "work counter differs"},
		{"varies", line("1024", "47") + line("1024", "48"), "work counter varies"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, _ := runWith(t, tc.stream, "-against", base)
			if pass := tc.want == "no regressions"; (code == 0) != pass {
				t.Fatalf("exit %d, want pass=%v:\n%s", code, pass, stdout)
			}
			if !strings.Contains(stdout, tc.want) {
				t.Errorf("output does not say %q:\n%s", tc.want, stdout)
			}
		})
	}
}
