package apsp

import (
	"errors"
	"fmt"
	"math"

	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// Incremental reweighting: repair a solved distance matrix after a
// small set of edge-weight edits instead of solving again. The repair
// reads only the previous distances, their successor table and the
// graph — no Plan: the symbolic machinery is needed to execute a solve,
// and the repair executes none. This is the update-oriented APSP of
// Urakov & Timeryaev (arXiv:1308.1568):
//
//   - weight decreases only ever LOWER distances, and with non-negative
//     weights a shortest path crosses a decreased edge {u,v} at most
//     once, so ONE exact O(n²) row sweep folds each decrease in:
//     d'(x,z) = min(d(x,z), d(x,u)+w+d(v,z), d(x,v)+w+d(u,z)).
//     Decreases applied one at a time keep the matrix exact after every
//     sweep — no fixpoint iteration at all;
//   - weight increases can RAISE distances, but only for pairs whose
//     old shortest path was tight through an increased edge — and any
//     such pair's source has a tight path to an edge endpoint, so the
//     candidate ROWS are found in O(#increases · n). A scan over just
//     those rows marks the reset pairs, and each damaged row is then
//     repaired independently by a boundary Dijkstra over its reset
//     targets: the row's non-reset entries are provably final for the
//     edited graph, so they seed the frontier and only the reset
//     vertices are ever settled — O(Σ deg + |resets| log |resets|) per
//     row, independent of n.
//   - past a damage-fraction threshold — or once the relaxation probes
//     exceed a fixed multiple of n², meaning the edits rippled through
//     a large share of all pairs — the repair abandons itself and
//     reports FellBack: the caller solves the edited graph instead,
//     which is never slower than finishing the propagation.
//
// (Two coarser designs were measured first and lost: a worklist over
// the Plan's supernodal blocks loses to a warm re-solve even for
// single-edge edits — one changed column dirties whole block strips
// and full dense block products run — and a reset+recompute pass with
// an entry-level worklist pays O(n) per reset pair, which on graphs
// with many tied shortest paths, like integer-weighted grids, turns
// the tightness test's deliberate over-resetting into tens of
// milliseconds of recompute for edits that changed almost nothing.)

// EdgeEdit changes the weight of one EXISTING edge {U, V} to W. Edits
// may only reweight edges, never add or remove them — the repaired
// successor table shares the previous one's adjacency, and a re-solve
// reuses the structure's cached plan; an edge insertion or deletion
// would invalidate both.
type EdgeEdit struct {
	U, V int
	W    float64
}

// DefaultDamageThreshold is the seeded-pair fraction past which
// RepairRows gives up and reports FellBack.
const DefaultDamageThreshold = 0.25

// probeBudget bounds the relaxation probes at budget·n². An edit
// whose ripple exceeds that has invalidated a large share of all pairs
// and a warm re-solve is cheaper than finishing the propagation.
const probeBudget = 32

// RepairStats describes what one repair did.
type RepairStats struct {
	Edits     int // edits that survived validation and dedup
	Decreases int // edits that lowered a weight
	Increases int // edits that raised a weight

	ResetPairs     int     // vertex pairs invalidated by the increase phase
	AffectedRows   int     // rows whose distances the increases may change
	ResetRows      int     // affected rows actually holding reset pairs (rebuilt)
	TotalPairs     int     // n² (the damage denominator)
	DamageFraction float64 // ResetPairs / TotalPairs

	FellBack        bool  // true when a threshold gave up: no result, solve the edited graph
	Relaxations     int64 // probes run (sweeps + reset scans + Dijkstra edges)
	Writes          int64 // entries the repair actually improved
	RepairedColumns int   // successor-table targets (rows) rebuilt
}

// edgeDelta is a validated, deduplicated edit with its old weight.
type edgeDelta struct {
	u, v     int
	old, new float64
}

// normalizeEdits validates edits against g and collapses duplicates
// (last edit per edge wins). No-op edits (same weight) are dropped.
func normalizeEdits(g *graph.Graph, edits []EdgeEdit) ([]edgeDelta, error) {
	n := g.N()
	order := make([][2]int, 0, len(edits))
	last := make(map[[2]int]float64, len(edits))
	for i, e := range edits {
		u, v := e.U, e.V
		if u < 0 || u >= n || v < 0 || v >= n || u == v {
			return nil, fmt.Errorf("apsp: edit %d: {%d,%d} is not an edge of a %d-vertex graph", i, e.U, e.V, n)
		}
		if u > v {
			u, v = v, u
		}
		if math.IsNaN(e.W) || math.IsInf(e.W, 0) || e.W < 0 {
			return nil, fmt.Errorf("apsp: edit %d: weight %g for edge {%d,%d} must be finite and non-negative", i, e.W, e.U, e.V)
		}
		key := [2]int{u, v}
		if _, seen := last[key]; !seen {
			order = append(order, key)
		}
		last[key] = e.W
	}
	out := make([]edgeDelta, 0, len(order))
	for _, key := range order {
		old, ok := g.HasEdge(key[0], key[1])
		if !ok {
			return nil, fmt.Errorf("apsp: edit {%d,%d}: edge does not exist (reweighting cannot change the structure)", key[0], key[1])
		}
		if w := last[key]; w != old {
			out = append(out, edgeDelta{u: key[0], v: key[1], old: old, new: w})
		}
	}
	return out, nil
}

// Edited is a graph with a batch of EdgeEdits applied, together with
// the validated, deduplicated weight changes that made it: the one
// copy the registry fingerprints, the repair edits from and the
// repaired oracle keeps. ApplyEdits builds it.
type Edited struct {
	Graph  *graph.Graph
	deltas []edgeDelta
}

// ApplyEdits validates edits against g and returns a copy of g with
// them applied: every edit must name an existing edge and a finite
// non-negative weight, and the last edit of an edge wins.
func ApplyEdits(g *graph.Graph, edits []EdgeEdit) (*Edited, error) {
	if g == nil {
		return nil, fmt.Errorf("apsp: ApplyEdits: nil graph")
	}
	deltas, err := normalizeEdits(g, edits)
	if err != nil {
		return nil, err
	}
	out := g.Clone()
	for _, d := range deltas {
		out.SetEdge(d.u, d.v, d.new)
	}
	return &Edited{Graph: out, deltas: deltas}, nil
}

// RepairRows produces the PathResult for ed.Graph, starting from the
// solved result for the graph ed was applied to instead of solving
// again. prevDist yields those distances a row at a time and is asked
// for each row once, written straight into the working matrix the
// repair goes on to mutate (so a caller that stores the distances
// narrower pays one n² float64 buffer, not two). prevNext is the
// successor table extracted from them. Neither is mutated — in-flight
// queries on the old result stay valid while the caller swaps it out.
//
// The repaired distances are exactly the shortest-path distances of
// the edited graph; with weights whose path sums are float64-exact
// (integers, in particular) they are bit-identical to a fresh solve.
//
// threshold is the fraction of the n² pairs that may be seeded (changed
// by an edit or reset by the increase phase) before the repair gives up;
// 0 means DefaultDamageThreshold, and values >= 1 never give up (the
// probe budget is disabled too — for tests that need the propagation
// path unconditionally). Giving up returns no result and stats with
// FellBack set: the caller solves ed.Graph.
func RepairRows(ed *Edited, prevDist RowFunc, prevNext *Successors, threshold float64) (*PathResult, RepairStats, error) {
	var st RepairStats
	if ed == nil || prevDist == nil || prevNext == nil {
		return nil, st, fmt.Errorf("apsp: Repair: nil graph or result")
	}
	g2, deltas := ed.Graph, ed.deltas
	n := g2.N()
	if prevNext.n != n {
		return nil, st, fmt.Errorf("apsp: Repair: result covers %d vertices, graph has %d", prevNext.n, n)
	}
	if len(prevNext.adj.to) != 2*g2.M() {
		return nil, st, fmt.Errorf("apsp: Repair: successor table was built for %d edges, graph has %d", len(prevNext.adj.to)/2, g2.M())
	}
	for _, d := range deltas {
		st.Edits++
		if d.new < d.old {
			st.Decreases++
		} else {
			st.Increases++
		}
	}
	fellBack := func() (*PathResult, RepairStats, error) {
		st.FellBack = true
		return nil, st, nil
	}
	if threshold == 0 {
		threshold = DefaultDamageThreshold
	}
	st.TotalPairs = n * n
	if st.TotalPairs == 0 {
		st.TotalPairs = 1 // empty graphs: avoid 0/0 below
	}
	budget := int64(probeBudget) * int64(st.TotalPairs)
	if threshold >= 1 {
		budget = math.MaxInt64
	}

	// Cheap pre-guard, before any O(n²) inspection: editing a large
	// fraction of the edges seeds a comparable fraction of the pairs —
	// re-solve instead.
	if m := g2.M(); m > 0 && float64(len(deltas))/float64(m) > threshold {
		st.DamageFraction = 1
		return fellBack()
	}

	d := copyRows(prevDist, n)
	// dirty marks the targets whose successor rows are rebuilt: both
	// ends of every entry either phase writes. A changed d(x,z) dirties
	// x and z alike — extraction reads the distances towards a target
	// from its row, VerifyPaths and callers read them from its column.
	dirty := make([]bool, n)

	// The phases below lean on the matrix being value-symmetric
	// (d(x,y) = d(y,x), guaranteed for an undirected graph), reading
	// d(x,u) as row u entry x so every scan walks contiguous memory.

	// Phase 1 — decreases, one exact row sweep each. A row x can only
	// improve if x's distance to an endpoint strictly improves through
	// the edge (the improving path's endpoint prefix is itself an
	// improving path), so the affected sources are found in O(n); and
	// with non-negative weights a shortest path crosses the decreased
	// edge {u,v} at most once, so for every affected pair (x,z) the new
	// distance is min(d(x,z), d(x,u)+w+d(v,z), d(x,v)+w+d(u,z)) over
	// the pre-sweep matrix. Reading partially-updated entries is
	// harmless — every candidate stays a valid walk weight ≥ the true
	// distance. Applied one edit at a time, the matrix is exactly the
	// distances of the partially-edited graph after each sweep — no
	// fixpoint iteration, no worklist.
	affected := make([]int, 0, n)
	for _, del := range deltas {
		if del.new >= del.old {
			continue
		}
		w := del.new
		rowU := d[del.u*n : (del.u+1)*n]
		rowV := d[del.v*n : (del.v+1)*n]
		affected = affected[:0]
		for x := 0; x < n; x++ {
			if rowU[x]+w < rowV[x] || rowV[x]+w < rowU[x] {
				affected = append(affected, x)
			}
		}
		st.Relaxations += int64(n) + int64(len(affected))*int64(n)
		if st.Relaxations > budget {
			return fellBack()
		}
		for _, x := range affected {
			rowX := d[x*n : (x+1)*n]
			au := rowX[del.u] + w
			av := rowX[del.v] + w
			for z, dvz := range rowV {
				s := au + dvz
				if s2 := av + rowU[z]; s2 < s {
					s = s2
				}
				if s < rowX[z] {
					rowX[z] = s
					st.Writes++
					dirty[x], dirty[z] = true, true
				}
			}
		}
	}

	// Phase 2 — increases. The matrix is now exact for the graph with
	// only the decreases applied (which still carries every increased
	// edge at its OLD weight), so it is a min-plus fixpoint under which
	// the tightness tests below are meaningful.
	if st.Increases > 0 {
		if err := repairIncreases(g2, deltas, d, dirty, threshold, budget, &st); err != nil {
			if err == errRepairDamage {
				return fellBack()
			}
			return nil, st, err
		}
	}

	dist := &semiring.Matrix{Rows: n, Cols: n, V: d}

	// Successor repair: rebuild the targets the phases wrote to. Phase 1
	// writes only strict decreases and phase 2 only values that differ,
	// so for a decrease-only or increase-only batch the writes are
	// exactly the net changes, and for a mixed batch a superset (an
	// entry lowered and then raised back) — rebuilding a row whose
	// distances did not move reproduces it, so either is exact. Tied
	// entries the increase phase recomputes to their old value are not
	// writes and dirty nothing. Add the targets whose old tree used an
	// edited edge: the distance may be unchanged while the stored
	// pointer now disagrees with the new weight.
	for _, del := range deltas {
		for v := 0; v < n; v++ {
			if prevNext.at(v, del.u) == del.v || prevNext.at(v, del.v) == del.u {
				dirty[v] = true
			}
		}
	}
	targets := make([]int, 0, n)
	for v, isDirty := range dirty {
		if isDirty {
			targets = append(targets, v)
		}
	}
	next := prevNext.clone()
	if err := next.rebuild(g2, matrixRows(dist), targets); err != nil {
		return nil, st, fmt.Errorf("apsp: Repair: %w", err)
	}
	st.RepairedColumns = len(targets)
	return &PathResult{Dist: dist, next: next}, st, nil
}

// copyRows materialises the n rows of row as one fresh row-major slice.
func copyRows(row RowFunc, n int) []float64 {
	d := make([]float64, n*n)
	semiring.DefaultPool.ForRanges(n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			dst := d[v*n : (v+1)*n]
			if src := row(v, dst); &src[0] != &dst[0] {
				copy(dst, src)
			}
		}
	})
	return d
}

// errRepairDamage signals that the increase phase detected more damage
// (or projected more work) than its thresholds allow; RepairRows then
// reports FellBack.
var errRepairDamage = errors.New("apsp: repair damage threshold exceeded")

// repairIncreases repairs d (exact for the graph carrying every
// increased edge at its OLD weight — decreases already folded in) into
// the exact distances of g2. It works in three steps:
//
//  1. Affected sources. A row x can only change if x's distance to an
//     endpoint of some increased edge is tight through that edge at
//     its old weight (a tight pair's endpoint prefix is itself tight),
//     so the candidate rows are found in O(#increases · n). Every row
//     OUTSIDE the set is provably final for g2: none of its shortest
//     paths crosses an increased edge, so raising those edges changes
//     nothing in it — and if a pair (y,x) changes, y is itself
//     affected, so skipping unaffected rows loses no entries.
//  2. Reset scan, restricted to affected rows: every pair whose
//     distance is tight through an increased edge may now be too low.
//     The tolerance deliberately over-marks ties; a spurious reset
//     just gets recomputed to its old value in step 3.
//  3. Boundary Dijkstra per damaged row. Within row a, every
//     non-reset entry is final for g2 (same argument as step 1, per
//     pair), so the reset targets S are rebuilt by the package's one
//     dijkstra (Johnson's), relaxing ONLY vertices of S: each b ∈ S
//     is seeded with the best
//     step from a settled neighbour, min over {y ∉ S adjacent to b}
//     of d(a,y)+w(y,b), and edges inside S propagate the rest. Any
//     true shortest a→b path has a last vertex y outside S (possibly
//     a itself); the seed covers the y→S crossing and the in-S
//     relaxations cover the suffix, so the rebuilt values are exact.
//     Cost: O(Σ_b∈S deg(b) + |S| log |S|) per row — independent of n,
//     so rows whose resets are tie-induced false alarms cost almost
//     nothing.
//
// Rows are repaired independently (each reads only its own settled
// entries and edge weights), so the order is irrelevant. The boundary
// Dijkstra requires non-negative weights; graphs carrying a negative
// edge fall back instead (errRepairDamage), and the caller's solve
// handles them exactly.
func repairIncreases(g2 *graph.Graph, deltas []edgeDelta, d []float64, dirty []bool, threshold float64, budget int64, st *RepairStats) error {
	n := g2.N()

	aff := make([]bool, n)
	affRows := make([]int, 0, n)
	for _, del := range deltas {
		if del.new <= del.old {
			continue
		}
		rowU := d[del.u*n : (del.u+1)*n]
		rowV := d[del.v*n : (del.v+1)*n]
		for x := 0; x < n; x++ {
			if aff[x] {
				continue
			}
			if tightSum(rowU[x]+del.old, rowV[x]) || tightSum(rowV[x]+del.old, rowU[x]) {
				aff[x] = true
				affRows = append(affRows, x)
			}
		}
		st.Relaxations += int64(n)
	}
	st.AffectedRows = len(affRows)
	if len(affRows) == 0 {
		return nil
	}

	if CheckNonNegative(g2) != nil {
		return errRepairDamage
	}

	st.Relaxations += int64(st.Increases) * int64(len(affRows)) * int64(n)
	if st.Relaxations > budget {
		return errRepairDamage
	}
	// Reset scan. The tightness test is tightSum inlined (exact match
	// or within 1e-9 relative) — at #increases·|affected|·n probes the
	// call overhead is the phase's hot spot.
	reset := make([]bool, n*n)
	rowResets := make([][]int32, n)
	for _, del := range deltas {
		if del.new <= del.old {
			continue
		}
		rowU := d[del.u*n : (del.u+1)*n]
		rowV := d[del.v*n : (del.v+1)*n]
		for _, a := range affRows {
			au := rowU[a] + del.old
			av := rowV[a] + del.old
			if math.IsInf(au, 1) && math.IsInf(av, 1) {
				continue
			}
			drow := d[a*n : (a+1)*n]
			rra := reset[a*n : (a+1)*n]
			for b := 0; b < n; b++ {
				if a == b || rra[b] {
					continue
				}
				dab := drow[b]
				if math.IsInf(dab, 1) {
					continue
				}
				tol := 1e-9
				if dab > 1 {
					tol *= dab
				} else if dab < -1 {
					tol *= -dab
				}
				s1 := au + rowV[b] - dab
				s2 := av + rowU[b] - dab
				if (s1 <= tol && s1 >= -tol) || (s2 <= tol && s2 >= -tol) {
					rra[b] = true
					rowResets[a] = append(rowResets[a], int32(b))
					st.ResetPairs++
				}
			}
		}
	}
	st.DamageFraction = float64(st.ResetPairs) / float64(st.TotalPairs)
	if st.DamageFraction > threshold {
		return errRepairDamage
	}

	var h pairHeap
	inS := make([]bool, n)
	dist := make([]float64, n)
	for a, S := range rowResets {
		if len(S) == 0 {
			continue
		}
		st.ResetRows++
		row := d[a*n : (a+1)*n]
		for _, b := range S {
			inS[b] = true
		}
		for _, b := range S {
			adj := g2.Adj(int(b))
			best := semiring.Inf
			for _, e := range adj {
				if !inS[e.To] {
					if c := row[e.To] + e.W; c < best {
						best = c
					}
				}
			}
			dist[b] = best
			if !math.IsInf(best, 1) {
				h.push(best, int(b))
			}
			st.Relaxations += int64(len(adj))
		}
		st.Relaxations += dijkstra(g2, &h, dist, inS)
		for _, b := range S {
			inS[b] = false
			if nv := dist[b]; nv != row[b] {
				row[b] = nv
				st.Writes++
				dirty[a], dirty[b] = true, true
			}
		}
		if st.Relaxations > budget {
			return errRepairDamage
		}
	}
	return nil
}

// RepairWithOptions repairs prev, the solved float64 result for g, and
// when the repair falls back solves the edited graph warm instead:
// SparseAPSPWith on p ranks, whose plan cache in sopts.Plans already
// holds the structure, plus full successor extraction. The serving
// layer does not use it — the oracle registry answers a fallback with
// its own solve — but the tests and the bench harness hold results as
// float64 matrices.
func RepairWithOptions(g *graph.Graph, prev *PathResult, edits []EdgeEdit, p int, sopts SparseOptions, threshold float64) (*PathResult, *graph.Graph, RepairStats, error) {
	if prev == nil {
		return nil, nil, RepairStats{}, fmt.Errorf("apsp: Repair: nil graph or result")
	}
	ed, err := ApplyEdits(g, edits)
	if err != nil {
		return nil, nil, RepairStats{}, err
	}
	g2 := ed.Graph
	res, st, err := RepairRows(ed, matrixRows(prev.Dist), prev.next, threshold)
	if err != nil || !st.FellBack {
		return res, g2, st, err
	}
	solved, err := SparseAPSPWith(g2, p, sopts)
	if err != nil {
		return nil, nil, st, err
	}
	if res, err = SuccessorsFromDist(g2, solved.Dist); err != nil {
		return nil, nil, st, err
	}
	res.Report = solved.Report
	st.RepairedColumns = g2.N()
	return res, g2, st, nil
}
