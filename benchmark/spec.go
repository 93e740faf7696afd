package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricSpec is one metric entry of BENCHMARK.json.  Bound is absent
// on per-layer metrics.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads:
// the workload names and the metric catalogue.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metrics returns the catalogue a run reports: the end-to-end metrics,
// or with trace the per-layer ones.
func (s *benchSpec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// exactMetrics must repeat exactly for a given seed: the answers'
// costs and the per-layer counters summed over one pass of a fixed
// input pool, since the solver is bit-identical across runs and worker
// counts.  -compare fails on any change in them, whatever their bound.
var exactMetrics = map[string]bool{
	"cost_total":               true,
	"cost_bound_ratio":         true,
	"primes.count":             true,
	"primes.covering_rows":     true,
	"primes.dense_ops":         true,
	"zdd.peak_nodes":           true,
	"zdd.live_nodes":           true,
	"zdd.collections":          true,
	"scg.implicit_dense_ops":   true,
	"matrix.core_rows":         true,
	"matrix.core_cols":         true,
	"lagrangian.subgrad_iters": true,
	"lagrangian.fix_steps":     true,
	"lagrangian.runs":          true,
	"shard.components":         true,
	"shard.spilled":            true,
}

type reportedMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resolveMetrics checks the measured values against the catalogue.
// Every measured name must be catalogued for this mode.  End-to-end
// metrics must all be measured; per-layer metrics a workload does not
// exercise read zero.
func resolveMetrics(s *benchSpec, trace bool, measured map[string]float64) (map[string]reportedMetric, error) {
	want := s.metrics(trace)
	known := map[string]string{}
	for _, m := range want {
		known[m.Name] = m.Unit
	}
	var unknown []string
	for name := range measured {
		if _, ok := known[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics missing from BENCHMARK.json: %v", unknown)
	}
	out := map[string]reportedMetric{}
	for _, m := range want {
		v, ok := measured[m.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out[m.Name] = reportedMetric{Value: v, Unit: m.Unit}
	}
	return out, nil
}
