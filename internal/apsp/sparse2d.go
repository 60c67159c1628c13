package apsp

import (
	"fmt"
	"time"

	"sparseapsp/internal/comm"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// DistResult is the output of a distributed solver: the distance matrix
// reassembled in the original vertex order plus the machine's cost
// report (critical-path latency/bandwidth/flops, totals, peak memory).
type DistResult struct {
	Dist   *semiring.Matrix
	Report comm.Report
	Layout *Layout // the ordering used (sparse algorithm only, else nil)
	P      int
	// Phases carries the per-eTree-level cost breakdown of the sparse
	// solver (the L_l / B_l decomposition of Lemmas 5.6, 5.8, 5.9);
	// empty for the dense algorithms.
	Phases []comm.PhaseCost
	// Traffic is the words-sent matrix: Traffic[src][dst].
	Traffic [][]int64
}

// SparseAPSP runs the paper's 2D-SPARSE-APSP (Algorithm 1) on a
// simulated machine of p processors. p must be (2^h − 1)² so that the
// supernodal block matrix maps one block per processor (Section 5.1).
//
// Per level l = 1..h the four regions are updated in order:
//
//	R_l^1  local ClassicalFW on each diagonal pivot block;
//	R_l^2  broadcast of A(k,k) down pivot row and column, panel updates;
//	R_l^3  row/column broadcasts of the panels, one-unit updates;
//	R_l^4  panel broadcasts to the Corollary 5.5 unit processors P_{f,g},
//	       parallel unit computation, binomial reduce to the owning
//	       block, and the symmetric transpose send (Algorithm 1 line 25).
//
// The solve is split into a symbolic phase (BuildPlan: ordering, eTree,
// fill mask, and the complete op schedule above) and a numeric phase
// (Plan.Execute: the min-plus block updates against actual weights).
// Every rank follows the same deterministic global schedule, entering
// only the collectives it belongs to, so the communication pattern —
// and therefore the measured critical-path cost — is exactly the
// paper's.
func SparseAPSP(g *graph.Graph, p int, seed int64) (*DistResult, error) {
	return SparseAPSPWith(g, p, SparseOptions{Seed: seed})
}

// R4Strategy selects how the multi-unit region R_l^4 is updated.
type R4Strategy int

const (
	// R4Mapped is the paper's contribution: each computing unit runs on
	// its own processor P_{f,g} (Corollary 5.5) and results reach the
	// owning block through an O(log q)-message binomial reduce.
	R4Mapped R4Strategy = iota
	// R4Sequential is the "trivial strategy" of Section 5.2.2 (the
	// SuperLU_DIST scheme): the owning processor P_ij receives both
	// panels of every unit — 2q messages serialized at the receiver —
	// and accumulates the products locally. Exists for the ablation
	// benchmark; same results, Θ(√p)-worse latency per level.
	R4Sequential
)

// WireFormat selects how block payloads travel between ranks.
type WireFormat int

const (
	// WirePruned (the default) is the structure-aware wire: the
	// symbolic fill mask skips broadcasts whose payload is provably
	// all-Inf together with the multiplications they would feed,
	// BuildPlan's demand sweep (demand.go) freezes into every remaining
	// broadcast the payload rows/columns at least one receiver can fold
	// into a finite output, and semiring.PackPruned ships them in the
	// smallest of the empty / sparse-pairs / dense / keep-list
	// encodings. The simulated machine is charged the encoded word
	// count. Distances are bit-identical to WireDense — only
	// identities are elided.
	WirePruned WireFormat = iota
	// WireDense ships every payload as the raw dense block body and
	// skips nothing: the ablation baseline and the test reference.
	WireDense
)

func (w WireFormat) valid() bool { return w == WirePruned || w == WireDense }

func (w WireFormat) String() string {
	switch w {
	case WirePruned:
		return "pruned"
	case WireDense:
		return "dense"
	default:
		return fmt.Sprintf("WireFormat(%d)", int(w))
	}
}

// ParseWireFormat maps a wire-format name ("pruned", "dense"; "" means
// pruned) to its WireFormat value.
func ParseWireFormat(s string) (WireFormat, error) {
	switch s {
	case "", "pruned":
		return WirePruned, nil
	case "dense":
		return WireDense, nil
	default:
		return 0, fmt.Errorf("apsp: unknown wire format %q (valid: pruned, dense)", s)
	}
}

// Executor selects the engine that runs a Plan's numeric phase. Both
// executors produce bit-identical distances and bit-identical cost
// reports; they differ only in how the host schedules the work.
type Executor int

const (
	// ExecDataflow (the default) lowers the plan into a static
	// dependency graph and runs ready ops on a bounded worker pool —
	// a handful of goroutines instead of one per rank, direct buffer
	// handoff instead of mailboxes, and cost accounting by
	// deterministic replay. See dataflow.go.
	ExecDataflow Executor = iota
	// ExecMachine runs the plan on the simulated machine: p rank
	// goroutines communicating through mailboxes. Kept as the
	// reference semantics the dataflow executor is checked against.
	ExecMachine
)

func (e Executor) String() string {
	if e == ExecMachine {
		return "machine"
	}
	return "dataflow"
}

// ParseExecutor maps an executor name ("dataflow", "machine"; "" means
// dataflow) to its Executor value.
func ParseExecutor(s string) (Executor, error) {
	switch s {
	case "", "dataflow":
		return ExecDataflow, nil
	case "machine":
		return ExecMachine, nil
	default:
		return 0, fmt.Errorf("apsp: unknown executor %q (valid: dataflow, machine)", s)
	}
}

// Schedule selects the dataflow executor's ready-queue policy. Both
// schedules produce bit-identical distances and cost reports; they
// differ only in which ready node a worker runs first.
type Schedule int

const (
	// ScheduleCritical (the default) runs the most critical ready node
	// first: lowering assigns every node its longest cost path to a
	// sink (comm.PriorityCost over the charged per-op quantities), and
	// workers drain per-worker max-heaps with stealing.
	ScheduleCritical Schedule = iota
	// ScheduleFIFO is the v1 executor's unordered buffered channel,
	// kept as the ablation baseline for the scheduler comparison (E24).
	ScheduleFIFO
)

func (s Schedule) String() string {
	if s == ScheduleFIFO {
		return "fifo"
	}
	return "critical"
}

// ParseSchedule maps a schedule name ("critical", "fifo"; "" means
// critical) to its Schedule value.
func ParseSchedule(s string) (Schedule, error) {
	switch s {
	case "", "critical":
		return ScheduleCritical, nil
	case "fifo":
		return ScheduleFIFO, nil
	default:
		return 0, fmt.Errorf("apsp: unknown schedule %q (valid: critical, fifo)", s)
	}
}

// Fuse selects whether dataflow lowering merges micro-nodes into
// super-nodes (panel-chain fusion + collective hop coalescing). Both
// modes produce bit-identical distances and cost reports; fusion only
// shrinks the scheduled graph.
type Fuse int

const (
	// FuseOn (the default) merges program-order-adjacent micro-nodes of
	// one rank whenever the merge provably cannot introduce a
	// dependency cycle, and runs R2 panel-update chains through the
	// fused semiring kernel.
	FuseOn Fuse = iota
	// FuseOff schedules the unmerged 1:1 micro-node graph — the v1
	// lowering, kept as the ablation baseline.
	FuseOff
)

func (f Fuse) String() string {
	if f == FuseOff {
		return "off"
	}
	return "on"
}

// ParseFuse maps a fuse-mode name ("on", "off"; "" means on) to its
// Fuse value.
func ParseFuse(s string) (Fuse, error) {
	switch s {
	case "", "on", "true":
		return FuseOn, nil
	case "off", "false":
		return FuseOff, nil
	default:
		return 0, fmt.Errorf("apsp: unknown fuse mode %q (valid: on, off)", s)
	}
}

// Order selects the vertex labeling the solver sees before nested
// dissection runs.
type Order int

const (
	// OrderNatural (the default) solves the graph as labeled.
	OrderNatural Order = iota
	// OrderRCM relabels the graph by Reverse Cuthill–McKee first
	// (graph.RCM), solves the permuted graph, and un-permutes the
	// distance matrix back to the caller's labeling. Distances are
	// identical to OrderNatural (RCM is a relabeling, not an
	// approximation); the separator structure — and with it block
	// sizes, words moved and kernel time — can differ, which is what
	// the E24 ablation column measures.
	OrderRCM
)

func (o Order) String() string {
	if o == OrderRCM {
		return "rcm"
	}
	return "natural"
}

// ParseOrder maps an order name ("natural", "rcm"; "" means natural)
// to its Order value.
func ParseOrder(s string) (Order, error) {
	switch s {
	case "", "natural":
		return OrderNatural, nil
	case "rcm":
		return OrderRCM, nil
	default:
		return 0, fmt.Errorf("apsp: unknown order %q (valid: natural, rcm)", s)
	}
}

// SparseOptions configures SparseAPSPWith.
type SparseOptions struct {
	Seed       int64
	R4Strategy R4Strategy
	// Executor selects the plan execution engine; see Executor. The
	// zero value is the dataflow executor.
	Executor Executor
	// Layout, when non-nil, supplies a precomputed ordering (e.g. from
	// partition.DistributedND) instead of running the sequential nested
	// dissection; its tree height must match the machine size.
	Layout *Layout
	// Kernel selects the min-plus kernel each rank uses for its local
	// block arithmetic. Every kernel yields bit-identical distances and
	// identical operation counts (so the simulated cost report does not
	// change); the default KernelSerial is usually right because each
	// rank is already its own goroutine.
	Kernel semiring.Kernel
	// Wire selects the payload encoding (and with it the mask-based
	// skipping); see WireFormat.
	Wire WireFormat
	// Plans, when non-nil, caches the symbolic Plan under the graph's
	// StructureFingerprint: a solve whose structure was seen before
	// reuses the cached ordering, eTree, fill mask and op schedule and
	// performs no symbolic work at all (only the O(n + m) weight
	// permutation). Ignored when Layout is supplied — a caller-provided
	// ordering is not necessarily reproducible from the graph alone.
	Plans *PlanCache
	// Schedule selects the dataflow executor's ready-queue policy; the
	// zero value is the critical-path schedule. See Schedule.
	Schedule Schedule
	// Fuse selects whether dataflow lowering merges micro-nodes into
	// super-nodes; the zero value is on. See Fuse.
	Fuse Fuse
	// ExecWorkers bounds the dataflow executor's worker pool; 0 means
	// auto (shared pool size, capped at p). See ExecOpts.Workers.
	ExecWorkers int
	// Order selects the vertex labeling fed to nested dissection; the
	// zero value solves the graph as labeled. OrderRCM relabels by
	// Reverse Cuthill–McKee first and un-permutes the result, so
	// distances are unchanged while separator structure (and words
	// moved) may differ. Incompatible with an explicit Layout.
	Order Order
}

// execOpts projects the execution-time knobs out of SparseOptions.
func (o SparseOptions) execOpts() ExecOpts {
	return ExecOpts{
		Kernel:   o.Kernel,
		Executor: o.Executor,
		Schedule: o.Schedule,
		Fuse:     o.Fuse,
		Workers:  o.ExecWorkers,
	}
}

// SparseAPSPWith is SparseAPSP with explicit options. It is a thin
// wrapper over the Plan/Execute split: build (or fetch from
// opts.Plans) the symbolic plan, then execute it against g's weights.
func SparseAPSPWith(g *graph.Graph, p int, opts SparseOptions) (*DistResult, error) {
	h, err := HeightForP(p)
	if err != nil {
		return nil, err
	}
	if opts.Order == OrderRCM {
		// Relabel, solve the permuted graph through the same path (the
		// plan cache keys on the permuted structure, which is exactly
		// what was solved), then map the distances back to the caller's
		// labels. The returned Layout describes the permuted graph.
		if opts.Layout != nil {
			return nil, fmt.Errorf("apsp: Order=rcm cannot be combined with an explicit Layout (the layout fixes its own ordering)")
		}
		perm := g.RCM()
		sub := opts
		sub.Order = OrderNatural
		res, err := SparseAPSPWith(g.Permute(perm), p, sub)
		if err != nil {
			return nil, err
		}
		res.Dist = unpermuteDist(res.Dist, perm)
		return res, nil
	}
	if ly := opts.Layout; ly != nil {
		if ly.Tree.H != h {
			return nil, fmt.Errorf("apsp: supplied layout has tree height %d, machine p=%d needs %d", ly.Tree.H, p, h)
		}
		pl, err := BuildPlan(ly, p, opts.Wire, opts.R4Strategy)
		if err != nil {
			return nil, err
		}
		return pl.ExecuteOpts(ly, opts.execOpts())
	}
	if opts.Plans != nil {
		fp := StructureFingerprintOf(g, p, opts.Seed, opts.Wire, opts.R4Strategy)
		if pl, ok := opts.Plans.lookup(fp); ok {
			return pl.ExecuteOpts(pl.LayoutFor(g), opts.execOpts())
		}
		start := time.Now()
		ly, pl, err := buildSymbolic(g, p, h, opts)
		if err != nil {
			return nil, err
		}
		opts.Plans.put(fp, pl, time.Since(start).Nanoseconds())
		return pl.ExecuteOpts(ly, opts.execOpts())
	}
	ly, pl, err := buildSymbolic(g, p, h, opts)
	if err != nil {
		return nil, err
	}
	return pl.ExecuteOpts(ly, opts.execOpts())
}

// buildSymbolic runs the full symbolic phase from scratch: nested
// dissection, eTree, fill mask (NewLayout), then the op schedule
// (BuildPlan).
func buildSymbolic(g *graph.Graph, p, h int, opts SparseOptions) (*Layout, *Plan, error) {
	ly, err := NewLayout(g, h, opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	pl, err := BuildPlan(ly, p, opts.Wire, opts.R4Strategy)
	if err != nil {
		return nil, nil, err
	}
	return ly, pl, nil
}

// unpermuteDist maps a distance matrix computed on a permuted graph
// back to the original labeling: perm is old→new, so the distance
// between original vertices (u, v) sits at (perm[u], perm[v]).
func unpermuteDist(d *semiring.Matrix, perm []int) *semiring.Matrix {
	n := d.Rows
	out := semiring.NewMatrix(n, n)
	for u := 0; u < n; u++ {
		pu := perm[u] * n
		row := out.V[u*n : (u+1)*n]
		for v := 0; v < n; v++ {
			row[v] = d.V[pu+perm[v]]
		}
	}
	return out
}
