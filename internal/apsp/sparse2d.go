package apsp

import (
	"fmt"
	"math"
	"time"

	"sparseapsp/internal/comm"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// DistResult is the output of a distributed solver: the distance matrix
// reassembled in the original vertex order plus the cost report
// (critical-path latency/bandwidth/flops, totals, peak memory) — the
// simulated machine's for the dense solvers, the plan's price
// (Plan.Cost) for the sparse one.
type DistResult struct {
	Dist   *semiring.Matrix
	Report comm.Report
	Layout *Layout // the ordering used (sparse algorithm only, else nil)
	Plan   *Plan   // the plan executed (sparse algorithm only, else nil)
	P      int
	// Phases carries the per-eTree-level cost breakdown of the sparse
	// solver (the L_l / B_l decomposition of Lemmas 5.6, 5.8, 5.9);
	// empty for the dense algorithms.
	Phases []comm.PhaseCost
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
//	R_l^4  panel broadcasts to the unit processors — Corollary 5.5's
//	       P_{f,g}, but on the pruned wire's level 1 one unit per block
//	       on the block's owner — parallel unit computation, binomial
//	       reduce to the owning block, and the symmetric transpose send
//	       (Algorithm 1 line 25).
//
// The solve is split into a symbolic phase (BuildPlan: ordering, eTree,
// fill mask, and the complete op schedule above) and a numeric phase
// (Plan.ExecuteOpts: the min-plus block updates against actual weights).
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
	// its own processor and results reach the owning block through an
	// O(log q)-message binomial reduce. The processor is Corollary 5.5's
	// P_{f,g}, except that on the pruned wire one level-1 unit per block
	// runs on the block's owner, where its product needs no reduce hop.
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

// SparseOptions configures SparseAPSPWith.
type SparseOptions struct {
	Seed       int64
	R4Strategy R4Strategy
	// Wire selects the payload encoding (and with it the mask-based
	// skipping); see WireFormat.
	Wire WireFormat
	// Plans, when non-nil, caches the symbolic Plan under the graph's
	// StructureFingerprint: a solve whose structure was seen before
	// reuses the cached ordering, eTree and op schedule and
	// performs no symbolic work at all (only the O(n + m) weight
	// permutation).
	Plans *PlanCache
}

// SparseAPSPWith is SparseAPSP with explicit options. It is a thin
// wrapper over the Plan/Execute split: build (or fetch from
// opts.Plans) the symbolic plan, then execute it against g's weights.
// It refuses a negative edge weight (CheckNonNegative), a negative
// cycle in an undirected graph, and a NaN or infinite one, which the
// blocks drop and the demand masks keep: the report is the plan's price,
// which holds for finite non-negative weights only.
func SparseAPSPWith(g *graph.Graph, p int, opts SparseOptions) (*DistResult, error) {
	if err := CheckNonNegative(g); err != nil {
		return nil, err
	}
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Adj(u) {
			if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
				return nil, fmt.Errorf("apsp: edge {%d,%d} weight %g is not finite", u, e.To, e.W)
			}
		}
	}
	pl, err := planFor(g, p, opts)
	if err != nil {
		return nil, err
	}
	return pl.ExecuteOpts(pl.LayoutFor(g), ExecOpts{})
}

// planFor fetches g's plan from opts.Plans, or builds it (and caches it
// when opts.Plans is set).
func planFor(g *graph.Graph, p int, opts SparseOptions) (*Plan, error) {
	h, err := HeightForP(p)
	if err != nil {
		return nil, err
	}
	if opts.Plans == nil {
		_, pl, err := buildSymbolic(g, p, h, opts)
		return pl, err
	}
	fp := StructureFingerprintOf(g, p, opts.Seed, opts.Wire, opts.R4Strategy)
	if pl, ok := opts.Plans.lookup(fp); ok {
		return pl, nil
	}
	start := time.Now()
	_, pl, err := buildSymbolic(g, p, h, opts)
	if err != nil {
		return nil, err
	}
	opts.Plans.put(fp, pl, time.Since(start).Nanoseconds())
	return pl, nil
}

// buildSymbolic runs the full symbolic phase from scratch: nested
// dissection and eTree (NewLayout), then the fill mask and the op
// schedule (BuildPlan).
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
