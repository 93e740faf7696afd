package matrix

import "ucp/internal/budget"

// ReplayReduce reduces a delta's child problem to its cyclic core using
// the parent's recorded reduction facts as a head start.  Two distinct
// mechanisms apply them, chosen so the result is bit-identical to
// ReduceTrackedTrace on the child:
//
//   - Row kills are re-verified at the child's input state (the witness
//     still precedes the victim in the canonical (length, index) order
//     and is still a subset) and pre-applied before the fixpoint runs.
//     That is exact: every verified kill is one the cold fixpoint's
//     first row-dominance pass makes anyway (row contents don't change
//     between the input and that pass), pre-killed rows are never
//     essential witnesses or unique dominance witnesses (a singleton
//     victim has a singleton-or-equal witness; a killed witness chains
//     down to a surviving one), so after its first row pass the replay
//     fixpoint stands on exactly the state the cold one does.
//
//   - Column kills are NOT pre-applied; they are handed to the
//     fixpoint's first column-dominance pass as hints, verified there
//     against the same pass-start state the scan uses (see
//     reduceScratch.colHints).  Pre-application would be unsound for
//     exactness even when every fact verifies: column dominance breaks
//     equal-coverage/equal-cost ties by id, and which pairs are tied
//     depends on the surviving rows, so applying a column fact ahead of
//     the schedule can flip a later tie and change the core.  (Concrete
//     failure: an edit reverses a dominance, the pre-applied kills make
//     some row a singleton early, its essential removes the row that
//     kept the reversed dominance strict, and the tie-break then keeps
//     the opposite column.)  As in-pass hints they only shortcut the
//     dominator scan, never change its answer.
//
// Every fact is re-verified before use, so a stale or outright alien
// trace degrades to a cold solve instead of corrupting the result; the
// differential fuzzer holds replay-vs-cold to bit equality.  RowOrigin
// indexes the child's rows.  The returned trace describes the child and
// seeds the next replay in a chain.
//
// The savings are proportional to how much of the parent's work
// survives the edit: verification costs O(size of the replayed facts),
// versus the quadratic (signature-pruned) candidate scans a cold
// fixpoint spends discovering them.
func ReplayReduce(d *Delta, trace *ReduceTrace, tr *budget.Tracker, workers int) (*Reduction, *ReduceTrace) {
	child := d.Child
	newTrace := &ReduceTrace{}
	n := len(child.Rows)

	identity := func() *Reduction {
		res := &Reduction{}
		res.Core = child.Clone()
		res.RowOrigin = make([]int, n)
		for i := range res.RowOrigin {
			res.RowOrigin[i] = i
		}
		return res
	}
	// Mirror the cold fixpoint's entry checks exactly: an exhausted
	// budget stops before any work, and an empty row is infeasible at
	// the input state (within a reduction no pass ever empties a row,
	// so this is the only state infeasibility can surface at).
	if tr.Interrupted() {
		res := identity()
		res.Stopped = true
		return res, newTrace
	}
	for _, r := range child.Rows {
		if len(r) == 0 {
			res := identity()
			res.Infeasible = true
			return res, newTrace
		}
	}
	if trace == nil {
		trace = &ReduceTrace{}
	}

	// Child row lookup for the parent's facts, plus input signatures
	// for the one-word subset prefilter.
	toChild := make([]int, len(d.Parent.Rows))
	for i := range toChild {
		toChild[i] = -1
	}
	for i, pi := range d.RowMap {
		if pi >= 0 && pi < len(toChild) {
			toChild[pi] = i
		}
	}
	sig := make([]uint64, n)
	for i, r := range child.Rows {
		sig[i] = sigOf(r)
	}

	// ----- replay row kills -----
	//
	// A fact verifies when the witness still precedes the victim in
	// the canonical (length, index) order and its columns are still a
	// subset of the victim's — exactly the cold engine's kill
	// predicate, evaluated at the child's input state.
	killed := make([]bool, n)
	for _, f := range trace.RowKills {
		bp, ap := int(f[0]), int(f[1])
		if bp >= len(toChild) || ap >= len(toChild) {
			continue
		}
		b, a := toChild[bp], toChild[ap]
		if b < 0 || a < 0 || killed[b] {
			continue
		}
		ra, rb := child.Rows[a], child.Rows[b]
		if len(ra) > len(rb) || (len(ra) == len(rb) && a >= b) {
			continue
		}
		if sig[a]&^sig[b] != 0 || !isSubsetSorted(ra, rb) {
			continue
		}
		killed[b] = true
		newTrace.RowKills = append(newTrace.RowKills, [2]int32{int32(b), int32(a)})
	}
	work := &Problem{NCol: child.NCol, Cost: child.Cost}
	orig := make([]int, 0, n)
	for i, r := range child.Rows {
		if !killed[i] {
			work.Rows = append(work.Rows, r)
			orig = append(orig, i)
		}
	}

	// ----- fixpoint on the remainder -----
	//
	// Essentials, kills the edit introduced and cascades the pre-kills
	// enable all surface here, with the parent's column facts hinting
	// the first column pass; with an unchanged instance the loop is one
	// confirming pass.  Facts it records are in work-row indices —
	// remap them (and the provenance) to child rows on the way out.
	subTrace := &ReduceTrace{}
	red := reduce(work, tr, workers, subTrace, trace.ColKills)
	for i, o := range red.RowOrigin {
		red.RowOrigin[i] = orig[o]
	}
	for _, f := range subTrace.RowKills {
		newTrace.RowKills = append(newTrace.RowKills,
			[2]int32{int32(orig[f[0]]), int32(orig[f[1]])})
	}
	newTrace.ColKills = append(newTrace.ColKills, subTrace.ColKills...)
	return red, newTrace
}
