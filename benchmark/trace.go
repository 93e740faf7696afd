package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary.  Spans of one op
// share Op; Parent indexes the enclosing span (-1 for a root).  Replay
// spans, which re-run a layer on an op's inputs to attribute time
// inside a one-shot call, are roots of their own.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once the run
// ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, op, parent int) int {
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].End = int64(time.Since(r.t0)) }

// timed records fn as a span.
func (r *recorder) timed(name string, op, parent int, fn func()) {
	i := r.begin(name, op, parent)
	fn()
	r.end(i)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		out[s.Name] += s.dur() - covered(kids[i], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// spanTotals returns the summed duration per span name, in ms.
func spanTotals(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += ms(s.dur())
	}
	return out
}

// reconcile compares the summed stage spans of the traced ops with the
// untraced op time: overhead is the traced root against the untraced
// op, reconciliation the stage spans (the root's children) against it,
// both as signed percentages.
func reconcile(spans []span, untracedMS float64) (overheadPct, reconcilePct float64) {
	var root, stages int64
	nroot := 0
	for _, s := range spans {
		switch {
		case s.Name == "op":
			root += s.dur()
			nroot++
		case s.Parent >= 0 && spans[s.Parent].Name == "op":
			stages += s.dur()
		}
	}
	if nroot == 0 || untracedMS <= 0 {
		return 0, 0
	}
	rootMS := ms(root) / float64(nroot)
	stageMS := ms(stages) / float64(nroot)
	return 100 * (rootMS - untracedMS) / untracedMS, 100 * (stageMS - untracedMS) / untracedMS
}

// layerTime is one row of a run's per-layer self-time table.
type layerTime struct {
	layer string
	ms    float64 // per op
}

func layerTable(out *outcome, opMS float64, rows []layerTime) {
	for _, r := range rows {
		out.note("  layer %-13s %9.2f ms/op %6.1f%%", r.layer, r.ms, 100*r.ms/opMS)
	}
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
