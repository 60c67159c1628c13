// Package sparseapsp is a reproduction of "Communication Avoiding
// All-Pairs Shortest Paths Algorithm for Sparse Graphs" (Zhu, Hua, Jin;
// ICPP 2021). It provides:
//
//   - weighted undirected graphs and generators (grids, random graphs,
//     R-MAT, trees, ...);
//   - sequential APSP solvers: classical Floyd–Warshall, Johnson's
//     algorithm, and the supernodal SuperFW;
//   - distributed APSP solvers executing on a simulated
//     distributed-memory machine with critical-path cost accounting:
//     the paper's 2D-SPARSE-APSP, the dense 2D-DC-APSP comparator, and
//     a blocked 2D Floyd–Warshall;
//   - the nested-dissection / elimination-tree preprocessing pipeline
//     the paper builds on, implemented from scratch;
//   - the asymptotic cost formulas of Table 2 for comparing measured
//     communication against the paper's bounds.
//
// Quick start:
//
//	g := sparseapsp.Grid2D(32, 32, sparseapsp.UnitWeights)
//	res, err := sparseapsp.Solve(g, sparseapsp.Options{P: 49})
//	if err != nil { ... }
//	fmt.Println(res.Dist.At(0, g.N()-1), res.Report.Critical)
package sparseapsp

import (
	"fmt"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/comm"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/oracle"
	"sparseapsp/internal/partition"
	"sparseapsp/internal/semiring"
)

// Re-exported core types. They are aliases, so values flow freely
// between the public API and the internal packages.
type (
	// Graph is a weighted undirected graph (Section 3.2 of the paper).
	Graph = graph.Graph
	// Matrix is a dense min-plus matrix; distances use +Inf for
	// "unreachable".
	Matrix = semiring.Matrix
	// Cost is a critical-path cost vector (latency = messages,
	// bandwidth = words, flops = semiring operations).
	Cost = comm.Cost
	// Report is a full cost report of a simulated run.
	Report = comm.Report
	// WeightFn produces edge weights for the generators.
	WeightFn = graph.WeightFn
)

// Inf is the distance of unreachable pairs.
var Inf = semiring.Inf

// NewGraph returns an empty graph with n vertices; add edges with
// AddEdge.
func NewGraph(n int) *Graph { return graph.New(n) }

// ReadGraph parses the text edge-list format (see internal/graph).
var ReadGraph = graph.Read

// Generators for the standard workload families.
var (
	UnitWeights   = graph.UnitWeights
	RandomWeights = graph.RandomWeights
	Grid2D        = graph.Grid2D
	Grid3D        = graph.Grid3D
	Path          = graph.Path
	Cycle         = graph.Cycle
	Complete      = graph.Complete
	RandomGNP     = graph.RandomGNP
	RandomTree    = graph.RandomTree
	RMAT          = graph.RMAT
	Star          = graph.Star
)

// Algorithm selects an APSP solver.
type Algorithm string

const (
	// Auto picks Sparse2D when P is a valid sparse machine size
	// ((2^h−1)²), DCAPSP for other P > 1, and SuperFW for P ≤ 1.
	Auto Algorithm = "auto"
	// Sparse2D is the paper's distributed 2D-SPARSE-APSP.
	Sparse2D Algorithm = "sparse2d"
	// DenseDC is the distributed 2D-DC-APSP of Solomonik et al.
	DenseDC Algorithm = "dc"
	// Dense2DFW is the distributed blocked 2D Floyd–Warshall.
	Dense2DFW Algorithm = "2dfw"
	// SeqFW is the sequential classical Floyd–Warshall.
	SeqFW Algorithm = "fw"
	// SeqSuperFW is the sequential supernodal solver of Sao et al.
	SeqSuperFW Algorithm = "superfw"
	// SeqJohnson is Dijkstra from every source.
	SeqJohnson Algorithm = "johnson"
)

// The solvers' structural constants: SeqSuperFW's eTree height (the
// distributed sparse algorithm derives its height from P instead) and
// DenseDC's block-cyclic factor.
const (
	superFWTreeHeight = 3
	dcCyclicFactor    = 4
)

// Options configures Solve.
type Options struct {
	// P is the simulated machine size for the distributed algorithms
	// (ignored by the sequential ones). The sparse algorithm requires
	// P ∈ {1, 9, 49, 225, 961, ...} = (2^h−1)²; see ValidProcessorCounts.
	P int
	// Algorithm picks the solver; default Auto.
	Algorithm Algorithm
	// Seed makes the randomized nested-dissection deterministic.
	Seed int64
	// Wire selects the sparse solver's payload encoding: WirePruned
	// (default — provably empty broadcasts are skipped and every other
	// broadcast ships only the payload rows/columns some receiver can
	// fold into a finite output, in the smallest encoding) or
	// WireDense (raw dense payloads, nothing skipped; the ablation
	// baseline). Distances are bit-identical in both; only measured
	// costs differ.
	Wire WireFormat
	// Plans, when non-nil, caches the sparse solver's symbolic plans
	// (ordering + eTree + full op schedule) under a
	// weights-independent StructureFingerprint: repeated solves on one
	// graph structure — the serving and weight-update workloads — pay
	// the symbolic cost once. Ignored by the non-sparse algorithms.
	Plans *PlanCache
}

// PlanCache caches the sparse solver's symbolic plans across solves;
// see Options.Plans and internal/apsp.PlanCache.
type PlanCache = apsp.PlanCache

// NewPlanCache returns an empty plan cache to share across solves.
func NewPlanCache() *PlanCache { return apsp.NewPlanCache() }

// NewPlanCacheAt returns a plan cache backed by a persistent on-disk
// store in dir (created if missing): every newly built plan is written
// as a hash-verified binary file keyed by structure fingerprint, and a
// cache miss falls through to disk before rebuilding — so a process
// restarted over the same directory serves warm solves with zero
// symbolic work (Stats().DiskHits counts them; Builds stays 0).
// Corrupted or truncated files degrade to a rebuild, never an error.
func NewPlanCacheAt(dir string) (*PlanCache, error) { return apsp.NewPlanCacheAt(dir) }

// PlanCacheStats is a snapshot of a plan cache's counters.
type PlanCacheStats = apsp.PlanCacheStats

// StructureFingerprint identifies the weights-independent structure of
// a sparse solve — the plan cache key; see Options.Plans.
type StructureFingerprint = apsp.StructureFingerprint

// WireFormat selects the sparse solver's payload encoding; see
// Options.Wire.
type WireFormat = apsp.WireFormat

const (
	// WirePruned skips provably empty broadcasts and ships only the
	// demanded rows/columns of every other payload, in the smallest of
	// the empty / sparse-pairs / dense / keep-list encodings (the
	// default).
	WirePruned = apsp.WirePruned
	// WireDense ships raw dense payloads and skips nothing.
	WireDense = apsp.WireDense
)

// EnableProfileLabels toggles runtime/pprof labels (op_kind, phase,
// level) around the dataflow executor's node execution, so a CPU
// profile attributes time per op class. Off by default: the labels
// cost a few percent of wall-clock, so enable them only while
// profiling.
var EnableProfileLabels = apsp.EnableProfileLabels

// Result is a Solve outcome.
type Result struct {
	// Dist is the distance matrix in the input vertex order:
	// Dist.At(u, v) is the shortest-path weight, Inf if unreachable.
	Dist *Matrix
	// Algorithm is the solver that actually ran.
	Algorithm Algorithm
	// Report carries the simulated communication costs (distributed
	// solvers only; zero-valued otherwise).
	Report Report
	// Ops is the semiring operation count (sequential solvers only).
	Ops int64
	// SeparatorSize is |S|, the top-level separator (solvers that
	// compute a nested dissection only).
	SeparatorSize int
}

// ValidProcessorCounts lists the machine sizes usable by the sparse
// algorithm up to max: p = (2^h − 1)².
var ValidProcessorCounts = apsp.ValidSparseP

// Solve computes all-pairs shortest paths for g.
func Solve(g *Graph, opts Options) (*Result, error) {
	if opts.Algorithm == "" {
		opts.Algorithm = Auto
	}
	alg := opts.Algorithm
	if alg == Auto {
		switch {
		case opts.P <= 1:
			alg = SeqSuperFW
		default:
			if _, err := apsp.HeightForP(opts.P); err == nil {
				alg = Sparse2D
			} else {
				alg = DenseDC
			}
		}
	}
	switch alg {
	case Sparse2D:
		if _, err := apsp.HeightForP(opts.P); err != nil {
			return nil, invalidSparsePError(opts.P)
		}
		r, err := apsp.SparseAPSPWith(g, opts.P, apsp.SparseOptions{Seed: opts.Seed, Wire: opts.Wire, Plans: opts.Plans})
		if err != nil {
			return nil, err
		}
		return &Result{Dist: r.Dist, Algorithm: alg, Report: r.Report,
			SeparatorSize: r.Layout.ND.SeparatorSize()}, nil
	case DenseDC:
		r, err := apsp.DCAPSP(g, opts.P, dcCyclicFactor)
		if err != nil {
			return nil, err
		}
		return &Result{Dist: r.Dist, Algorithm: alg, Report: r.Report}, nil
	case Dense2DFW:
		r, err := apsp.Dist2DFW(g, opts.P)
		if err != nil {
			return nil, err
		}
		return &Result{Dist: r.Dist, Algorithm: alg, Report: r.Report}, nil
	case SeqFW:
		d, ops := apsp.FloydWarshall(g)
		return &Result{Dist: d, Algorithm: alg, Ops: ops}, nil
	case SeqSuperFW:
		r, err := apsp.SuperFW(g, superFWTreeHeight, opts.Seed)
		if err != nil {
			return nil, err
		}
		return &Result{Dist: r.Dist, Algorithm: alg, Ops: r.Ops,
			SeparatorSize: r.Layout.ND.SeparatorSize()}, nil
	case SeqJohnson:
		d, err := apsp.Johnson(g)
		if err != nil {
			return nil, err
		}
		return &Result{Dist: d, Algorithm: alg}, nil
	default:
		return nil, fmt.Errorf("sparseapsp: unknown algorithm %q", alg)
	}
}

// invalidSparsePError explains which machine sizes the sparse
// algorithm accepts and points at the valid sizes nearest to p.
func invalidSparsePError(p int) error {
	limit := 4 * p
	if limit < 961 {
		limit = 961
	}
	valid := apsp.ValidSparseP(limit)
	below, above := valid[0], valid[len(valid)-1]
	for _, v := range valid {
		if v < p {
			below = v
		} else {
			above = v
			break
		}
	}
	if below == above {
		return fmt.Errorf("sparseapsp: P=%d is not a valid sparse machine size: 2D-SPARSE-APSP needs p = (2^h-1)^2, i.e. one of 1, 9, 49, 225, 961, ...; nearest valid size is %d", p, above)
	}
	return fmt.Errorf("sparseapsp: P=%d is not a valid sparse machine size: 2D-SPARSE-APSP needs p = (2^h-1)^2, i.e. one of 1, 9, 49, 225, 961, ...; nearest valid sizes are %d and %d", p, below, above)
}

// SeparatorSize computes |S| for g: the size of the top-level vertex
// separator found by one bisection round — the parameter the paper's
// bounds are stated in.
func SeparatorSize(g *Graph, seed int64) (int, error) {
	nd, err := partition.NestedDissection(g, 2, seed)
	if err != nil {
		return 0, err
	}
	return nd.SeparatorSize(), nil
}

// PathResult carries distances plus successor structure for extracting
// actual shortest paths (see SolveWithPathsOptions).
type PathResult = apsp.PathResult

// SolveWithPathsOptions computes APSP with path reconstruction using
// the solver and machine size selected by opts — any Solve
// configuration works, including the distributed Sparse2D. The
// successor structure is extracted from the finished distance matrix
// (see internal/apsp.SuccessorsFromDist), so Path(u, v) queries run in
// time proportional to the path length regardless of the solver.
//
// A nil graph or a negative edge weight (a negative cycle in an
// undirected graph, the same policy Solve applies through Johnson)
// returns an error instead of panicking.
func SolveWithPathsOptions(g *Graph, opts Options) (*PathResult, error) {
	if g == nil {
		return nil, fmt.Errorf("sparseapsp: SolveWithPathsOptions: nil graph")
	}
	if err := apsp.CheckNonNegative(g); err != nil {
		return nil, fmt.Errorf("sparseapsp: SolveWithPathsOptions: %w", err)
	}
	res, err := Solve(g, opts)
	if err != nil {
		return nil, err
	}
	pr, err := apsp.SuccessorsFromDist(g, res.Dist)
	if err != nil {
		return nil, err
	}
	pr.Report = res.Report
	return pr, nil
}

// PathWeight sums the edge weights of path in g, returning Inf for an
// empty or invalid (edge-missing) path — useful for verifying returned
// paths against the distance matrix.
var PathWeight = apsp.PathWeight

// Oracle is a solved graph serving concurrent Dist / Path / BatchDist /
// BatchPath queries from typed storage — distances at their proven
// lossless width, successors as packed neighbour slots — bit-identically
// to the solver's float64 matrix (see internal/oracle).
type Oracle = oracle.Oracle

// OracleRegistry caches oracles by graph fingerprint with singleflight
// solve coalescing and LRU eviction under a memory budget.
type OracleRegistry = oracle.Registry

// OracleStats is a snapshot of a registry's counters.
type OracleStats = oracle.Stats

// GraphFingerprint computes the content fingerprint used as the oracle
// cache key (and as the graph id of cmd/apspd).
func GraphFingerprint(g *Graph) oracle.Fingerprint { return oracle.FingerprintOf(g) }

// EdgeEdit names one existing edge and its new weight, for the
// incremental reweighting path (OracleRegistry.Reweight and
// apsp.RepairRows). Edits may only change weights, never the structure.
type EdgeEdit = apsp.EdgeEdit

// RepairStats describes what one incremental repair did: edit mix,
// reset pairs and rows, damage fraction, and whether the repair gave up
// (FellBack) so that the registry solved the edited graph instead.
type RepairStats = apsp.RepairStats

// oracleSolver adapts Solve + successor extraction to the oracle
// package's solver interface.
func oracleSolver(opts Options) oracle.SolveFunc {
	return func(g *Graph) (*PathResult, error) {
		return SolveWithPathsOptions(g, opts)
	}
}

// repairRows is apsp.RepairRows at its default damage threshold. It
// needs no solver configuration: a repair that gives up is answered by
// the registry's own solve of the edited graph.
func repairRows(ed *apsp.Edited, prevDist apsp.RowFunc, prevNext *apsp.Successors) (*PathResult, RepairStats, error) {
	return apsp.RepairRows(ed, prevDist, prevNext, apsp.DefaultDamageThreshold)
}

// NewOracle solves g once with the configuration in opts and returns a
// distance oracle over the result.
func NewOracle(g *Graph, opts Options) (*Oracle, error) {
	return oracle.New(g, oracleSolver(opts))
}

// NewOracleRegistry returns an oracle cache that solves graphs on
// demand with the configuration in opts, retaining at most budgetBytes
// of solved results (<= 0 means unlimited). Unless opts already
// carries a PlanCache, the registry gets its own shared one, so every
// sparse solve it runs reuses symbolic plans across graphs with the
// same structure; the cache's counters surface through Registry.Stats.
func NewOracleRegistry(opts Options, budgetBytes int64) *OracleRegistry {
	if opts.Plans == nil {
		opts.Plans = NewPlanCache()
	}
	return oracle.NewRegistry(oracle.Config{
		Solve:        oracleSolver(opts),
		Repair:       repairRows,
		MemoryBudget: budgetBytes,
		Plans:        opts.Plans,
	})
}

// VerifyDistances cheaply certifies that d looks like a correct APSP
// distance matrix for g (zero diagonal, symmetry, edge bounds,
// triangle inequality, reachability structure). It does not recompute
// APSP; see internal/apsp.VerifyDistances for the exact checks.
func VerifyDistances(g *Graph, d *Matrix) error {
	return apsp.VerifyDistances(g, d)
}

// VerifyPaths certifies that a PathResult's successor structure is
// consistent with its distances on g: every reachable pair walks to a
// real path of matching weight, every unreachable pair has none. The
// path-level counterpart of VerifyDistances; see
// internal/apsp.VerifyPaths.
func VerifyPaths(g *Graph, res *PathResult) error {
	return apsp.VerifyPaths(g, res)
}
