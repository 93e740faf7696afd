package serve

import (
	"container/list"
	"net/http"
	"strconv"
	"sync"

	"ucp"
)

// The keep/parent protocol: a request with `keep` retains the solve's
// state server-side and answers with a `solve_id`; a follow-up request
// naming that id as `parent` is solved incrementally — the solver
// reduces the new instance as a cold solve would and reuses every
// retained portfolio block the two instances share instead of solving
// it again.  An expired or unknown id degrades to a from-scratch solve
// (counted in /stats), never an error: the id is a performance hint,
// not state the client may rely on.

// maxKeptStates bounds the retained-state table.  A retained state
// holds the solve's options and result, the blocks of its cyclic core
// and the portfolio results of every block, so the table is
// deliberately small — an LRU of the most recent chains, not a durable
// store.
const maxKeptStates = 64

// keepStore is the id → retained-state LRU behind the keep/parent
// protocol.  Ids are generated server-side ("s1", "s2", ...) and never
// reused within a process.
type keepStore struct {
	mu   sync.Mutex
	ll   *list.List // front = most recently used
	m    map[string]*list.Element
	next int64
}

type keepEntry struct {
	id    string
	state *ucp.Resolvable
}

func newKeepStore() *keepStore {
	return &keepStore{ll: list.New(), m: make(map[string]*list.Element)}
}

// get looks an id up, refreshing its recency on a hit.
func (k *keepStore) get(id string) (*ucp.Resolvable, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	el, ok := k.m[id]
	if !ok {
		return nil, false
	}
	k.ll.MoveToFront(el)
	return el.Value.(*keepEntry).state, true
}

// put stores a state under a fresh id and returns the id.
func (k *keepStore) put(r *ucp.Resolvable) string {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.next++
	id := "s" + strconv.FormatInt(k.next, 10)
	k.m[id] = k.ll.PushFront(&keepEntry{id: id, state: r})
	for k.ll.Len() > maxKeptStates {
		old := k.ll.Back()
		k.ll.Remove(old)
		delete(k.m, old.Value.(*keepEntry).id)
	}
	return id
}

func (k *keepStore) len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.ll.Len()
}

// ResolveStats is the /stats `resolve` object: how the incremental
// re-solve path is doing.  The solver-level counters (resolves,
// hits, block reuse) come from the shared ucp.Solver; kept and
// unknown_parents are the service's own keep-protocol counters.
type ResolveStats struct {
	Resolves    int64 `json:"resolves"`     // incremental solves attempted
	ParentHits  int64 `json:"parent_hits"`  // served against a named parent id
	Fallbacks   int64 `json:"fallbacks"`    // parent unusable (interrupted, or other options)
	CompsReused int64 `json:"comps_reused"` // portfolio blocks carried over verbatim
	CompsSolved int64 `json:"comps_solved"` // portfolio blocks re-solved
	// ReplayFraction is comps_reused / (comps_reused + comps_solved):
	// the share of cyclic-core blocks carried over from parents.
	ReplayFraction float64 `json:"replay_fraction"`
	Kept           int     `json:"kept"`            // retained states resident
	UnknownParents int64   `json:"unknown_parents"` // parent ids not found (expired or bogus)
}

func (s *Server) resolveStats() ResolveStats {
	rs := s.solver.ResolveStats()
	out := ResolveStats{
		Resolves:       rs.Resolves,
		ParentHits:     rs.ParentHits,
		Fallbacks:      rs.Fallbacks,
		CompsReused:    rs.CompsReused,
		CompsSolved:    rs.CompsSolved,
		Kept:           s.keeps.len(),
		UnknownParents: s.unknownParents.Load(),
	}
	if n := rs.CompsReused + rs.CompsSolved; n > 0 {
		out.ReplayFraction = float64(rs.CompsReused) / float64(n)
	}
	return out
}

// solveSCGKeep handles the keep/parent variants of an scg solve: the
// state is retained and its id returned; with a parent named, the
// solve reuses that parent's blocks incrementally.  These solves
// bypass the cross-solve cache (the retained state, not the memoized
// result, is the product), and they emit no streamed incumbents — the
// final record is unaffected.
func (s *Server) solveSCGKeep(j *job, bud ucp.Budget) (Response, int) {
	bud.IterCap = j.req.IterCap
	opt := ucp.SCGOptions{
		Seed:    j.req.Seed,
		NumIter: j.req.NumIter,
		Budget:  bud,
	}
	var res *ucp.SCGResult
	var keep *ucp.Resolvable
	if j.req.Parent != "" {
		if parent, ok := s.keeps.get(j.req.Parent); ok {
			res, keep = s.solver.Resolve(j.prob, parent, opt)
		} else {
			s.unknownParents.Add(1)
		}
	}
	if res == nil {
		res, keep = s.solver.SolveSCGKeep(j.prob, opt)
	}
	if res.Solution == nil {
		if res.Interrupted {
			err := res.StopReason.Err()
			return Response{Error: err.Error(), Interrupted: true, StopReason: res.StopReason.String()},
				http.StatusGatewayTimeout
		}
		return Response{Error: ucp.ErrInfeasible.Error()}, http.StatusUnprocessableEntity
	}
	return Response{
		Cost:        res.Cost,
		LB:          res.LB,
		Solution:    res.Solution,
		Optimal:     res.ProvedOptimal,
		Interrupted: res.Interrupted,
		StopReason:  stopString(res.Interrupted, res.StopReason),
		SolveID:     s.keeps.put(keep),
	}, http.StatusOK
}
