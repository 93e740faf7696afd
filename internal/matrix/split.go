package matrix

// Split is a covering problem cut into its connected parts (Partition's,
// in its order; a rowless problem is one empty part), each reduced by
// its singleton essentials.  A row of part k holds only part-k
// columns, so part k's essentials and residual rows are what
// SplitEssentials returns on Partition's part k.
type Split struct {
	NCol   int
	Cost   []int
	NRows  int // rows of the whole problem, the ones essentials cover included
	NParts int
	// Ess holds the columns of the singleton rows, ascending; Rest the
	// rows no essential covers, in problem order.  EssPart and RestPart
	// give the part of each.
	Ess      []int
	EssPart  []int32
	Rest     [][]int
	RestPart []int32
}

// SplitParts splits p without Partition's copy of every row: one
// SplitEssentials over the whole problem, ColumnSets.AddRow over every
// row and one Find per row to number the parts.
func (p *Problem) SplitParts() *Split {
	ess, rest, _, _ := p.SplitEssentials()
	sets, first := rowSets(p)
	return NewSplit(sets, first, ess, rest.Rows, p.Cost)
}

// rowSets unions the columns of every row of p and lists each row's
// smallest column plus one (0: an empty row).
func rowSets(p *Problem) (*ColumnSets, []int32) {
	sets := NewColumnSets(p.NCol)
	first := make([]int32, len(p.Rows))
	for i, r := range p.Rows {
		sets.AddRow(r)
		if len(r) > 0 {
			first[i] = int32(r[0]) + 1
		}
	}
	return sets, first
}

// NewSplit assembles the Split of a problem over len(cost) columns
// from what a producer knows without the rows essentials cover: sets
// has seen every row, first holds each row's smallest column plus one
// in problem order (0: an empty row), ess the singleton essentials
// ascending, and rest the rows no essential covers in problem order,
// every empty row among them.  Parts are numbered in order of first
// appearance along first, Components' order.
func NewSplit(sets *ColumnSets, first []int32, ess []int, rest [][]int, cost []int) *Split {
	s := &Split{NCol: len(cost), Cost: cost, NRows: len(first), Ess: ess, Rest: rest}
	at := make([]int32, len(sets.parent)) // 1 + the part of a set's root; 0 until its first row
	var n int32
	var empty []int32 // the parts of the empty rows, in order
	for _, j := range first {
		if j == 0 {
			empty = append(empty, n)
			n++
		} else if root := sets.Find(int(j) - 1); at[root] == 0 {
			n++
			at[root] = n
		}
	}
	partOf := func(j int) int32 { return at[sets.Find(j)] - 1 }
	s.NParts = max(int(n), 1)
	s.EssPart = make([]int32, len(ess))
	for i, j := range ess {
		s.EssPart[i] = partOf(j)
	}
	s.RestPart = make([]int32, len(rest))
	for i, r := range rest {
		if len(r) > 0 {
			s.RestPart[i] = partOf(r[0])
		} else {
			s.RestPart[i], empty = empty[0], empty[1:]
		}
	}
	return s
}

// Bucket groups the split by part: part k's essentials, ascending,
// and its residual rows in order, over the whole column universe.
func (s *Split) Bucket() (ess [][]int, rest []Problem) {
	rows := bucketBy(s.Rest, s.RestPart, s.NParts)
	rest = make([]Problem, s.NParts)
	for k := range rest {
		rest[k] = Problem{Rows: rows[k], NCol: s.NCol, Cost: s.Cost}
	}
	return bucketBy(s.Ess, s.EssPart, s.NParts), rest
}

// bucketBy stably groups xs by part[i] < n in one counting pass, each
// group a sub-slice of one backing array.
func bucketBy[T any](xs []T, part []int32, n int) [][]T {
	next := make([]int, n+1)
	for _, k := range part {
		next[k+1]++
	}
	for k := 1; k <= n; k++ {
		next[k] += next[k-1]
	}
	flat := make([]T, len(xs))
	out := make([][]T, n)
	for k := range out {
		out[k] = flat[next[k]:next[k+1]:next[k+1]]
	}
	for i, x := range xs {
		flat[next[part[i]]] = x
		next[part[i]]++
	}
	return out
}
