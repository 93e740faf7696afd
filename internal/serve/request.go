package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"ucp"
)

// The wire protocol: one JSON request per solve.  The instance
// travels either as text in one of the library's formats (`problem` +
// `format` "ucp", "orlib" or "pla"), or structurally (`format` "json"
// with `rows`/`ncols`/`costs`).  Format "pla" runs the full two-level
// minimisation pipeline (prime generation, covering formulation,
// covering solve) instead of solving a pre-built covering matrix.
// Limits are validated at decode time so a malformed or hostile
// request is rejected before it touches the queue.
type Request struct {
	// Format selects the instance encoding: "ucp" (default, the
	// package's covering-matrix text), "orlib" (Beasley OR-Library
	// text), "pla" (Berkeley PLA text, two-level minimisation), or
	// "json" (Rows/NCols/Costs below).
	Format string `json:"format,omitempty"`
	// Problem is the text payload for the ucp/orlib/pla formats.
	Problem string `json:"problem,omitempty"`
	// Rows/NCols/Costs are the structural payload for format "json".
	Rows  [][]int `json:"rows,omitempty"`
	NCols int     `json:"ncols,omitempty"`
	Costs []int   `json:"costs,omitempty"`

	// Solver selects the engine: "scg" (default), "exact" or "greedy".
	Solver string `json:"solver,omitempty"`
	// Seed / NumIter configure the scg portfolio.
	Seed    int64 `json:"seed,omitempty"`
	NumIter int   `json:"numiter,omitempty"`
	// MaxNodes caps the exact solver's branch-and-bound nodes.
	MaxNodes int64 `json:"maxnodes,omitempty"`
	// IterCap caps scg subgradient iterations (anytime degradation).
	IterCap int `json:"itercap,omitempty"`

	// Keep asks the server to retain the solve state for later
	// incremental re-solves; the response then carries a solve_id the
	// client can name as Parent in a follow-up request.  Matrix scg
	// solves only; keep solves bypass the cross-solve cache and emit no
	// streamed incumbents.
	Keep bool `json:"keep,omitempty"`
	// Parent names an earlier keep solve's solve_id: the server
	// reconstructs the edit from that retained instance to this one
	// and re-solves incrementally, bit-identical to a from-scratch
	// solve (Keep is implied, so chains keep working).  An expired or
	// unknown id silently degrades to a from-scratch solve — the id is
	// a performance hint, not state the client may rely on.
	Parent string `json:"parent,omitempty"`

	// TimeoutMS is the client's requested wall-clock budget in
	// milliseconds; the server clamps it to its configured maximum
	// (the X-UCP-Timeout-Ms header, when present, overrides it).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Stream requests an SSE stream of improving incumbents instead
	// of a single JSON response.
	Stream bool `json:"stream,omitempty"`
	// Tenant names the fair-share scheduling bucket (the X-UCP-Tenant
	// header, when present, overrides it; empty means the shared
	// default bucket).
	Tenant string `json:"tenant,omitempty"`
}

// Hard structural limits on a decoded request, enforced before any
// problem construction.  They bound decode-time memory, not solve
// difficulty — the byte budget and the per-request Budget handle those.
const (
	maxNumIter   = 1 << 16
	maxDimension = 1 << 24 // matches the text parser's cap
)

var errTrailing = errors.New("trailing data after the JSON request")

// DecodeRequest parses and validates one wire request.  Unknown fields
// and trailing garbage are rejected, as is any structurally out-of-
// range parameter; every failure wraps ucp.ErrMalformedInput.
func DecodeRequest(data []byte) (*Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: %w", ucp.ErrMalformedInput, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: %w", ucp.ErrMalformedInput, errTrailing)
	}
	if err := req.validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ucp.ErrMalformedInput, err)
	}
	return &req, nil
}

func (r *Request) validate() error {
	switch r.Solver {
	case "", "scg", "exact", "greedy":
	default:
		return fmt.Errorf("unknown solver %q", r.Solver)
	}
	structural := len(r.Rows) > 0 || r.NCols != 0 || len(r.Costs) > 0
	switch r.Format {
	case "", "ucp", "orlib", "pla":
		if r.Problem == "" {
			return fmt.Errorf("missing problem text for format %q", r.Format)
		}
		if structural {
			return fmt.Errorf("rows/ncols/costs belong to format \"json\", not %q", r.Format)
		}
		if r.Format == "pla" && r.Solver == "greedy" {
			return fmt.Errorf("the greedy solver applies to covering matrices, not format \"pla\"")
		}
	case "json":
		if r.Problem != "" {
			return fmt.Errorf("problem text belongs to the text formats, not \"json\"")
		}
		if r.NCols < 0 || r.NCols > maxDimension || len(r.Rows) > maxDimension {
			return fmt.Errorf("problem dimensions out of range")
		}
	default:
		return fmt.Errorf("unknown format %q", r.Format)
	}
	if r.Seed < 0 {
		return fmt.Errorf("negative seed")
	}
	if r.NumIter < 0 || r.NumIter > maxNumIter {
		return fmt.Errorf("numiter %d out of range [0, %d]", r.NumIter, maxNumIter)
	}
	if r.MaxNodes < 0 || r.IterCap < 0 || r.TimeoutMS < 0 {
		return fmt.Errorf("negative cap")
	}
	if r.Keep || r.Parent != "" {
		if r.Format == "pla" {
			return fmt.Errorf("keep/parent apply to covering matrices, not format \"pla\"")
		}
		switch r.Solver {
		case "", "scg":
		default:
			return fmt.Errorf("keep/parent need the scg solver, not %q", r.Solver)
		}
	}
	return nil
}

// BuildProblem constructs the covering instance.  Errors wrap
// ucp.ErrMalformedInput (the parsers tag them).
func (r *Request) BuildProblem() (*ucp.Problem, error) {
	switch r.Format {
	case "", "ucp":
		return ucp.ReadProblem(strings.NewReader(r.Problem))
	case "orlib":
		return ucp.ReadORLibProblem(strings.NewReader(r.Problem))
	default: // "json"; validate() admits nothing else
		return ucp.NewProblem(r.Rows, r.NCols, r.Costs)
	}
}

// BuildPLA parses the two-level instance for format "pla".  Parse
// failures wrap ucp.ErrMalformedInput; a function too wide for the
// Quine–McCluskey covering matrix wraps ucp.ErrCoveringLimit.  Both
// checks are linear in the (already capped) body size, preserving the
// decode-time admission contract — the expensive prime generation only
// runs on a worker, under the request's budget.
func (r *Request) BuildPLA() (*ucp.PLA, error) {
	f, err := ucp.ParsePLA(strings.NewReader(r.Problem))
	if err != nil {
		return nil, err
	}
	if n := f.F.S.Inputs(); n > ucp.MaxCoveringInputs {
		return nil, fmt.Errorf("%w: %d inputs exceed %d", ucp.ErrCoveringLimit, n, ucp.MaxCoveringInputs)
	}
	return f, nil
}

// Response is one result record.  Streaming responses emit a sequence
// of them — improving incumbents with Final=false, then exactly one
// Final=true record (the authoritative result, its cover verified
// feasible server-side).  Unary responses are a single record with
// Final=true.
type Response struct {
	Cost     int     `json:"cost"`
	LB       float64 `json:"lb"`
	Solution []int   `json:"solution,omitempty"`
	Optimal  bool    `json:"optimal,omitempty"`
	// Interrupted + StopReason report a budget-cut solve: the solution
	// is still feasible, the bound still valid.
	Interrupted bool   `json:"interrupted,omitempty"`
	StopReason  string `json:"stop_reason,omitempty"`
	// CacheHit marks a result served from the shared cross-solve cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// SolveID names the retained state of a keep/parent solve; pass it
	// as the next request's parent to re-solve incrementally.
	SolveID string `json:"solve_id,omitempty"`
	// Cover carries the minimised product terms (PLA cube notation,
	// one per line element) for format "pla" results; Cost is then the
	// product count and Literals the secondary literal cost.
	Cover    []string `json:"cover,omitempty"`
	Literals int      `json:"literals,omitempty"`
	// Final marks the authoritative last record of a stream.
	Final bool `json:"final"`
	// Error carries the failure for non-2xx (or failed-stream) results.
	Error     string `json:"error,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
}
