package oracle

import (
	"fmt"
	"sync/atomic"
	"time"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/comm"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// SolveFunc runs a full APSP solve with path reconstruction. The root
// package supplies one that routes through the public Solve options
// (algorithm, machine size, seed, wire, plan cache); tests inject
// instrumented ones.
type SolveFunc func(g *graph.Graph) (*apsp.PathResult, error)

// queryCounters tracks query traffic; the zero value is ready to use.
type queryCounters struct {
	inFlight   atomic.Int64
	served     atomic.Int64
	queryNanos atomic.Int64
}

// Oracle holds one solved graph and answers distance and path queries
// from typed storage: the distances at their proven width and layout
// (tier.go: the lower triangle alone when the matrix is bit-symmetric)
// and the successor table as packed neighbour slots. The store is
// immutable; the table's rows are written once — a repaired table walks
// each pending row on the first path query that reads it. It keeps no
// float64 matrix. All query methods are safe for concurrent
// use; a batch is answered on its caller's goroutine.
type Oracle struct {
	dist *distStore
	succ *apsp.Successors // every oracle has its table
	// graph is the graph the result was solved for. Oracles built
	// through New (and so through a Registry) retain it; the registry's
	// Reweight path needs it to apply edge edits. Never mutated.
	graph *graph.Graph

	// queries is the registry's counter block, installed before the
	// oracle is published, so the registry's cumulative totals survive
	// the oracle's eviction and keep counting queries that were in flight
	// when it was evicted. Nil for a standalone oracle, which counts
	// nothing.
	queries *queryCounters
}

// New solves g once with solve and wraps the result in an Oracle.
func New(g *graph.Graph, solve SolveFunc) (*Oracle, error) {
	if g == nil {
		return nil, fmt.Errorf("oracle: nil graph")
	}
	if solve == nil {
		return nil, fmt.Errorf("oracle: nil solve function")
	}
	o, _, err := solveOracle(g, solve)
	return o, err
}

// solveOracle is New that also hands back the solve's cost report,
// which the oracle itself does not retain.
func solveOracle(g *graph.Graph, solve SolveFunc) (*Oracle, comm.Report, error) {
	res, err := solve(g)
	if err != nil {
		return nil, comm.Report{}, err
	}
	o := FromResult(res, nil)
	o.graph = g
	return o, res.Report, nil
}

// FromResult builds an Oracle from an already-solved PathResult without
// re-solving: one pass narrows res.Dist into the typed store, and the
// successor table is shared as built. The oracle does not retain res or
// res.Dist — except that a matrix which is neither bit-symmetric nor
// exactly representable in a narrower kind stays in res.Dist's own
// storage, so res must not be mutated afterwards.
// The pool argument is ignored: it is vestigial, kept so the frozen
// bench/ caller (FromResult(pr, nil)) compiles, and is dropped by the
// benchmark PR of ROADMAP item 1a.
func FromResult(res *apsp.PathResult, _ *semiring.Pool) *Oracle {
	o := &Oracle{dist: narrow(res.Dist), succ: res.Successors()}
	if o.succ.Pending() > 0 {
		// A repaired table walks its pending rows from the store, which
		// holds the same distances, so res.Dist need not outlive it.
		o.succ.ReadRowsFrom(o.dist.row)
	}
	return o
}

// N returns the number of vertices; valid query endpoints are [0, N).
func (o *Oracle) N() int { return o.dist.n }

// Graph returns the graph the oracle was solved for, or nil for an
// oracle wrapped directly around a bare PathResult. Callers must not
// modify it.
func (o *Oracle) Graph() *graph.Graph { return o.graph }

// MemoryBytes is the retained size of the solved result: the length of
// each slice the oracle holds times its element size — the distance
// store plus the successor table (Successors.Bytes: its packed rows and
// the adjacency that decodes them).
func (o *Oracle) MemoryBytes() int64 { return o.dist.bytes() + o.succ.Bytes() }

// track opens a query window for the registry's counters and returns
// the closer that records it as served. queries is the number of
// point-queries the call answers (batch calls count every pair). A
// standalone oracle has no counters and skips the clock too.
func (o *Oracle) track(queries int) func() {
	c := o.queries
	if c == nil {
		return func() {}
	}
	c.inFlight.Add(1)
	start := time.Now()
	return func() {
		c.queryNanos.Add(time.Since(start).Nanoseconds())
		c.served.Add(int64(queries))
		c.inFlight.Add(-1)
	}
}

func (o *Oracle) check(u, v int) error {
	if n := o.dist.n; u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("oracle: query (%d,%d) outside [0,%d)", u, v, n)
	}
	return nil
}

// Dist returns the shortest-path weight from u to v (Inf when
// unreachable).
func (o *Oracle) Dist(u, v int) (float64, error) {
	if err := o.check(u, v); err != nil {
		return semiring.Inf, err
	}
	defer o.track(1)()
	return o.dist.at(u, v), nil
}

// Path returns the vertices of a shortest u→v path inclusive of both
// endpoints, nil when v is unreachable from u. A pending row the walk
// refuses is the error.
func (o *Oracle) Path(u, v int) ([]int, error) {
	if err := o.check(u, v); err != nil {
		return nil, err
	}
	defer o.track(1)()
	if err := o.succ.Walk([][2]int{{u, v}}); err != nil {
		return nil, err
	}
	return o.succ.Path(u, v), nil
}

// BatchDist answers many distance queries at once, on the caller's
// goroutine. The result is index-aligned with pairs. Every pair is
// validated before any work starts.
func (o *Oracle) BatchDist(pairs [][2]int) ([]float64, error) {
	if err := o.checkBatch(pairs); err != nil {
		return nil, err
	}
	defer o.track(len(pairs))()
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = o.dist.at(p[0], p[1])
	}
	return out, nil
}

// BatchPath answers many path queries at once, on the caller's
// goroutine. Unreachable pairs get a nil path. The batch's pending rows
// are walked first, together, on the pool; one the walk refuses is the
// error.
func (o *Oracle) BatchPath(pairs [][2]int) ([][]int, error) {
	if err := o.checkBatch(pairs); err != nil {
		return nil, err
	}
	defer o.track(len(pairs))()
	if err := o.succ.Walk(pairs); err != nil {
		return nil, err
	}
	out := make([][]int, len(pairs))
	for i, p := range pairs {
		out[i] = o.succ.Path(p[0], p[1])
	}
	return out, nil
}

func (o *Oracle) checkBatch(pairs [][2]int) error {
	for i, p := range pairs {
		if err := o.check(p[0], p[1]); err != nil {
			return fmt.Errorf("pair %d: %w", i, err)
		}
	}
	return nil
}
