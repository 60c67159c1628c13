package apsp

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

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
	RepairedColumns int   // successor-table targets (rows) left pending, walked on their first path query
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
// The repaired successor table is the one SuccessorsFromDist builds
// from them, word for word once its pending rows are walked
// (Successors.repaired). It walks them from the returned Dist on their
// first path query, so Dist must outlive the table unless the caller
// points it elsewhere first (Successors.ReadRowsFrom).
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
	res, err := repairMatrix(ed, d, prevNext, threshold, budget, &st)
	if res == nil {
		putBacking(d) // nothing else saw it
	}
	if err != nil {
		if err == errRepairDamage {
			return fellBack()
		}
		return nil, st, err
	}
	return res, st, nil
}

// repairMatrix runs both phases and the successor repair on d, the
// working copy of the previous distances; RepairRows owns d and takes it
// back when no result keeps it. errRepairDamage means a threshold gave up.
func repairMatrix(ed *Edited, d []float64, prevNext *Successors, threshold float64, budget int64, st *RepairStats) (*PathResult, error) {
	g2, deltas := ed.Graph, ed.deltas
	n := g2.N()
	ws := newRepairWorkers(n)

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
	// the pre-sweep matrix — which is what every row reads: its own
	// entries, and rows u and v from snapshots taken before the sweep.
	// Each affected row is then a function of the pre-sweep matrix
	// alone, so the rows sweep in bands on the pool and the result does
	// not depend on how many workers ran. Applied one edit at a time,
	// the matrix is exactly the distances of the partially-edited graph
	// after each sweep — no fixpoint iteration, no worklist.
	var affected []int
	var snapU, snapV []float64
	for _, del := range deltas {
		if del.new >= del.old {
			continue
		}
		if affected == nil {
			affected, snapU, snapV = make([]int, 0, n), make([]float64, n), make([]float64, n)
		}
		w := del.new
		copy(snapU, d[del.u*n:(del.u+1)*n])
		copy(snapV, d[del.v*n:(del.v+1)*n])
		affected = affected[:0]
		for x := 0; x < n; x++ {
			if snapU[x]+w < snapV[x] || snapV[x]+w < snapU[x] {
				affected = append(affected, x)
			}
		}
		st.Relaxations += int64(n) + int64(len(affected))*int64(n)
		if st.Relaxations > budget {
			return nil, errRepairDamage
		}
		ws.bands(len(affected), func(wk *repairWorker, _, lo, hi int) {
			for _, x := range affected[lo:hi] {
				rowX := d[x*n : (x+1)*n]
				au := rowX[del.u] + w
				av := rowX[del.v] + w
				for z, dvz := range snapV {
					s := au + dvz
					if s2 := av + snapU[z]; s2 < s {
						s = s2
					}
					if s < rowX[z] {
						rowX[z] = s
						wk.writes++
						wk.dirty[x], wk.dirty[z] = true, true
					}
				}
			}
		})
	}

	// Phase 2 — increases. The matrix is now exact for the graph with
	// only the decreases applied (which still carries every increased
	// edge at its OLD weight), so it is a min-plus fixpoint under which
	// the tightness tests below are meaningful.
	if st.Increases > 0 {
		if err := repairIncreases(g2, deltas, d, ws, threshold, budget, st); err != nil {
			return nil, err
		}
	}
	// dirty marks both ends of every entry either phase writes: a changed
	// d(x,z) is in row x and in row z. Phase 1 writes only strict
	// decreases and phase 2 only values that differ, so the writes are
	// the net changes, or for a mixed batch a superset (an entry lowered
	// and then raised back). The successor table decides from them and
	// the edits which rows to leave pending.
	dirty := ws.merge(st)
	dist := &semiring.Matrix{Rows: n, Cols: n, V: d}
	next, pending := prevNext.repaired(ed, dist, dirty)
	st.RepairedColumns = pending
	return &PathResult{Dist: dist, next: next}, nil
}

// copyRows materialises the n rows of row as one row-major slice drawn
// from the solvers' n² buffer pool (getBacking).
func copyRows(row RowFunc, n int) []float64 {
	d := getBacking(n * n)
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

// repairWorker is one pool goroutine's share of a repair: the targets
// the rows it swept dirtied, what it adds to RepairStats, and the
// increase phase's scratch — reset marks, and the boundary Dijkstra's
// heap, membership and distances — allocated once at n and reused for
// every row the goroutine takes.
type repairWorker struct {
	dirty                 []bool
	writes                int64
	resetPairs, resetRows int

	mark, inS []bool
	dist      []float64
	h         pairHeap
}

// repairWorkers holds a repairWorker per goroutine the pool runs, each
// made on first use.
type repairWorkers struct {
	n  int
	ws []*repairWorker
}

func newRepairWorkers(n int) *repairWorkers {
	return &repairWorkers{n: n, ws: make([]*repairWorker, max(1, min(semiring.DefaultPool.Size(), n)))}
}

// bandCount is how many contiguous bands count rows are cut into: a few
// per goroutine, so uneven rows balance.
func (r *repairWorkers) bandCount(count int) int { return min(4*len(r.ws), count) }

// bands cuts [0, count) into bandCount(count) contiguous bands and runs
// f(wk, b, lo, hi) for every band b = [lo, hi) on the pool, handing the
// bands out dynamically; every band a goroutine takes runs with that
// goroutine's repairWorker, so counters and scratch are never shared.
func (r *repairWorkers) bands(count int, f func(wk *repairWorker, b, lo, hi int)) {
	nb := r.bandCount(count)
	var next atomic.Int64
	semiring.DefaultPool.ForEach(min(len(r.ws), nb), func(k int) {
		if r.ws[k] == nil {
			r.ws[k] = &repairWorker{dirty: make([]bool, r.n)}
		}
		for b := int(next.Add(1)) - 1; b < nb; b = int(next.Add(1)) - 1 {
			f(r.ws[k], b, b*count/nb, (b+1)*count/nb)
		}
	})
}

// merge adds the workers' writes to st and returns the union of the
// targets they dirtied.
func (r *repairWorkers) merge(st *RepairStats) []bool {
	dirty := make([]bool, r.n)
	for _, wk := range r.ws {
		if wk == nil {
			continue
		}
		st.Writes += wk.writes
		for v, x := range wk.dirty {
			dirty[v] = dirty[v] || x
		}
	}
	return dirty
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
// Rows are repaired independently — each reads only its own entries,
// rows u and v of the increased edges and the edge weights, and writes
// only its own entries — so both the reset scan and the Dijkstras run in
// bands of affected rows on the pool, each goroutine with its own marks
// and Dijkstra scratch, and the result is the same for any worker count:
// a row's reset targets come out in the same order (increase by
// increase, ascending within one) whoever scans it. The boundary
// Dijkstra requires non-negative weights; graphs carrying a negative
// edge fall back instead (errRepairDamage), and the caller's solve
// handles them exactly.
func repairIncreases(g2 *graph.Graph, deltas []edgeDelta, d []float64, ws *repairWorkers, threshold float64, budget int64, st *RepairStats) error {
	n := g2.N()

	aff := make([]bool, n)
	affRows := make([]int, 0, n)
	var incs []edgeDelta
	for _, del := range deltas {
		if del.new <= del.old {
			continue
		}
		incs = append(incs, del)
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
	// Reset scan, one band of affected rows per task; a band keeps the
	// rows holding resets and their targets, back to back, for the
	// Dijkstra pass below. The tightness test is tightSum inlined (exact
	// match or within 1e-9 relative) — at #increases·|affected|·n probes
	// the call overhead is the phase's hot spot.
	type resetBand struct {
		rows, ends, targets []int32 // row rows[i] resets targets[ends[i-1]:ends[i]]
	}
	bands := make([]resetBand, ws.bandCount(len(affRows)))
	ws.bands(len(affRows), func(wk *repairWorker, bi, lo, hi int) {
		if wk.mark == nil {
			wk.mark = make([]bool, n)
		}
		rb, mark := &bands[bi], wk.mark
		for _, a := range affRows[lo:hi] {
			drow := d[a*n : (a+1)*n]
			start := len(rb.targets)
			for _, del := range incs {
				rowU := d[del.u*n : (del.u+1)*n]
				rowV := d[del.v*n : (del.v+1)*n]
				au := rowU[a] + del.old
				av := rowV[a] + del.old
				if math.IsInf(au, 1) && math.IsInf(av, 1) {
					continue
				}
				for b := 0; b < n; b++ {
					if a == b || mark[b] {
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
						mark[b] = true
						rb.targets = append(rb.targets, int32(b))
					}
				}
			}
			if len(rb.targets) > start {
				for _, b := range rb.targets[start:] {
					mark[b] = false
				}
				rb.rows = append(rb.rows, int32(a))
				rb.ends = append(rb.ends, int32(len(rb.targets)))
				wk.resetPairs += len(rb.targets) - start
			}
		}
	})
	for _, wk := range ws.ws {
		if wk != nil {
			st.ResetPairs += wk.resetPairs
		}
	}
	st.DamageFraction = float64(st.ResetPairs) / float64(st.TotalPairs)
	if st.DamageFraction > threshold {
		return errRepairDamage
	}

	// The Dijkstras, over the same bands. probes is the running total of
	// Relaxations across goroutines: once it passes the budget the repair
	// has given up, whichever rows are left, so they are skipped.
	var probes atomic.Int64
	probes.Store(st.Relaxations)
	ws.bands(len(affRows), func(wk *repairWorker, bi, _, _ int) {
		if wk.inS == nil {
			wk.inS, wk.dist = make([]bool, n), make([]float64, n)
		}
		rb, inS, dist := &bands[bi], wk.inS, wk.dist
		start := int32(0)
		for i, a := range rb.rows {
			S := rb.targets[start:rb.ends[i]]
			start = rb.ends[i]
			if probes.Load() > budget {
				return
			}
			wk.resetRows++
			row := d[int(a)*n : (int(a)+1)*n]
			var relax int64
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
					wk.h.push(best, int(b))
				}
				relax += int64(len(adj))
			}
			relax += dijkstra(g2, &wk.h, dist, inS)
			for _, b := range S {
				inS[b] = false
				if nv := dist[b]; nv != row[b] {
					row[b] = nv
					wk.writes++
					wk.dirty[a], wk.dirty[b] = true, true
				}
			}
			probes.Add(relax)
		}
	})
	st.Relaxations = probes.Load()
	for _, wk := range ws.ws {
		if wk != nil {
			st.ResetRows += wk.resetRows
		}
	}
	if st.Relaxations > budget {
		return errRepairDamage
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
