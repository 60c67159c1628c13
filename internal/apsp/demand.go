package apsp

import "math/bits"

// Demand-pruned communication (WirePruned, the default wire). The fill
// mask of fillmask.go answers a block-granularity question — can block
// (i, j) ever hold a finite entry? — which is enough to skip whole
// broadcasts but says nothing about the entries INSIDE a block that
// ships. This file answers the finer question at BuildPlan time: for
// each planned collective, which rows/columns of the payload can be
// folded into a finite output by at least one receiver? Everything
// else decodes to Inf at every consumer, so it never needs to travel —
// the same structure-before-values exchange sparsity-aware distributed
// SpGEMM performs, here precomputed symbolically and frozen into the
// Plan so warm solves and repairs pay nothing per solve.
//
// The sweep maintains one boolean matrix per supernodal block — a
// sound overapproximation of "entry may be finite" — and replays the
// numeric schedule of exec.go on it, level by level in the same phase
// order:
//
//	R1     M(k,k) ← boolean transitive closure of M(k,k)
//	R2     M(i,k) |= M(i,k) ⊗ M(k,k);  M(k,j) |= M(k,k) ⊗ M(k,j)
//	R4     M(I,J) |= M(I,K) ⊗ M(K,J)       (one term per planned unit)
//	trans  M(BJ,BI) ← M(BI,BJ)ᵀ            (replace, like CopyFrom)
//	R3     M(i,j) |= M(i,k) ⊗ M(k,j)
//
// where ⊗ is the boolean matrix product (min-plus finiteness: the
// product entry may be finite iff some k pairs two maybe-finite
// entries). Within each phase all demands are computed BEFORE any mask
// update is applied — the phases read operands written by earlier
// phases only (R3 products target blocks with no level-l coordinate,
// R4 products target ancestor blocks, transposes write the mirror half
// that is never a same-level source), so the pre-phase masks are
// exactly the operand state every receiver multiplies at. For the same
// reason R3 and R4 commute — both read the panels R2 left, neither
// writes a block the other touches — and the sweep's result does not
// depend on which runs first; it follows exec.go to stay comparable
// line by line.
//
// Soundness of a prune: a payload row t is dropped only when every
// consumer's left operand has a provably all-Inf column t (and
// symmetrically for columns against right-operand rows). A dropped
// row then contributes only Inf terms to every min-plus fold at every
// receiver, and min(x, Inf) = x bit-for-bit — which is why wire=pruned
// distances are bit-identical to wire=dense (pinned by the golden
// table and TestSparseAPSPMatchesClassicalFW).

// PruneSpec is a per-op prune descriptor frozen into the Plan: the
// ascending row/column indices of the payload at least one consumer
// can use. A nil axis means "keep all" (the full descriptor); an empty
// non-nil axis means no consumer can use anything, and the payload
// collapses to the 1-word empty encoding.
//
// ZeroDiag marks pivot broadcasts (R2): exact-zero diagonal entries of
// the payload D(k,k) may be dropped at pack time, because the only
// term D[t,t] = 0 contributes to any consumer's fold A ⊕= A⊗D (or
// D⊗A) is the value the target entry already holds — see
// semiring.PackPruned. It is set on every R2 op, never elsewhere: for
// other payloads a diagonal position is an ordinary entry.
type PruneSpec struct {
	Rows, Cols []int32
	ZeroDiag   bool
}

// entryMask is a boolean rows×cols matrix stored as w words per row.
type entryMask struct {
	rows, cols, w int
	bits          []uint64
}

func newEntryMask(rows, cols int) *entryMask {
	w := (cols + 63) / 64
	return &entryMask{rows: rows, cols: cols, w: w, bits: make([]uint64, rows*w)}
}

func (m *entryMask) set(r, c int) { m.bits[r*m.w+c/64] |= 1 << (c % 64) }

func (m *entryMask) row(r int) []uint64 { return m.bits[r*m.w : (r+1)*m.w] }

func (m *entryMask) empty() bool {
	if m == nil {
		return true
	}
	for _, word := range m.bits {
		if word != 0 {
			return false
		}
	}
	return true
}

// orMul folds the boolean product a ⊗ b into m (all dimensions must
// agree: m is a.rows×b.cols, a.cols == b.rows). Neither operand may
// alias m — callers snapshot when the schedule is self-referential.
func (m *entryMask) orMul(a, b *entryMask) {
	if a == nil || b == nil {
		return
	}
	for i := 0; i < a.rows; i++ {
		arow := a.row(i)
		dst := m.row(i)
		for wi, word := range arow {
			for word != 0 {
				k := wi*64 + trailingZeros(word)
				word &= word - 1
				if k >= a.cols {
					break
				}
				brow := b.row(k)
				for x := range dst {
					dst[x] |= brow[x]
				}
			}
		}
	}
}

// closure replaces m (square) with its boolean transitive closure —
// the mask image of ClassicalFW on the diagonal block.
func (m *entryMask) closure() {
	for k := 0; k < m.rows; k++ {
		krow := m.row(k)
		kw, kb := k/64, uint64(1)<<(k%64)
		for i := 0; i < m.rows; i++ {
			irow := m.row(i)
			if irow[kw]&kb != 0 {
				for x := range irow {
					irow[x] |= krow[x]
				}
			}
		}
	}
}

// transposeOf returns mᵀ as a fresh mask.
func (m *entryMask) transposeOf() *entryMask {
	t := newEntryMask(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.row(i)
		for wi, word := range row {
			for word != 0 {
				j := wi*64 + trailingZeros(word)
				word &= word - 1
				if j < m.cols {
					t.set(j, i)
				}
			}
		}
	}
	return t
}

// orRowAnyInto sets bit r of dst (a bitset over m's rows) for every
// row of m holding at least one set bit.
func (m *entryMask) orRowAnyInto(dst []uint64) {
	if m == nil {
		return
	}
	for r := 0; r < m.rows; r++ {
		for _, word := range m.row(r) {
			if word != 0 {
				dst[r/64] |= 1 << (r % 64)
				break
			}
		}
	}
}

// orColAnyInto sets bit c of dst (a bitset over m's columns) for every
// column of m holding at least one set bit.
func (m *entryMask) orColAnyInto(dst []uint64) {
	if m == nil {
		return
	}
	for r := 0; r < m.rows; r++ {
		row := m.row(r)
		for x := range row {
			dst[x] |= row[x]
		}
	}
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// demandState is the sweep's mutable mask matrix, indexed by 1-based
// supernode labels; nil entries are provably all-Inf blocks.
type demandState struct {
	n     int
	sizes []int
	m     []*entryMask // (i-1)*n + (j-1)
}

func (d *demandState) at(i, j int) *entryMask { return d.m[(i-1)*d.n+(j-1)] }

func (d *demandState) ensure(i, j int) *entryMask {
	idx := (i-1)*d.n + (j - 1)
	if d.m[idx] == nil {
		d.m[idx] = newEntryMask(d.sizes[i], d.sizes[j])
	}
	return d.m[idx]
}

// newDemandState mirrors Layout.BlocksPooled's initial structure: the
// diagonal of every non-empty supernode plus one bit per structural
// edge of the permuted graph.
func newDemandState(ly *Layout) *demandState {
	n := ly.ND.N
	d := &demandState{n: n, sizes: ly.ND.Sizes, m: make([]*entryMask, n*n)}
	for i := 1; i <= n; i++ {
		if d.sizes[i] == 0 {
			continue
		}
		diag := d.ensure(i, i)
		for t := 0; t < d.sizes[i]; t++ {
			diag.set(t, t)
		}
	}
	sup, loc := ly.vertexBlocks()
	for v := 0; v < ly.PG.N(); v++ {
		sv, lv := int(sup[v]), int(loc[v])
		for _, e := range ly.PG.Adj(v) {
			d.ensure(sv, int(sup[e.To])).set(lv, int(loc[e.To]))
		}
	}
	return d
}

// blockOf converts a rank back to its 1-based block coordinates.
func blockOf(rank, n int) (int, int) { return rank/n + 1, rank%n + 1 }

// keepList converts a demand bitset over n indices into a PruneSpec
// axis: nil when every index is demanded (pruning saves nothing on
// this axis), else the ascending kept list (possibly empty).
func keepList(bs []uint64, n int) []int32 {
	list := make([]int32, 0, n)
	for t := 0; t < n; t++ {
		if bs[t/64]&(1<<(t%64)) != 0 {
			list = append(list, int32(t))
		}
	}
	if len(list) == n {
		return nil
	}
	return list
}

// pruneFor assembles the op descriptor; a nil return is the `full`
// descriptor (no symbolic pruning on either axis).
func pruneFor(rows, cols []uint64, nr, nc int) *PruneSpec {
	var r, c []int32
	if rows != nil {
		r = keepList(rows, nr)
	}
	if cols != nil {
		c = keepList(cols, nc)
	}
	if r == nil && c == nil {
		return nil
	}
	return &PruneSpec{Rows: r, Cols: c}
}

func bitset(n int) []uint64 { return make([]uint64, (n+63)/64) }

// attachPrunes runs the symbolic demand sweep over the plan's schedule
// and bakes a PruneSpec into every broadcast and sequential-R4 send
// whose payload some receiver provably cannot fully use. Transpose
// sends are never symbolically pruned: the receiver's block BECOMES
// the payload (replace, not fold), so every entry is demanded — they
// still benefit from the pack-time numeric trim. Reduce payloads are
// raw vectors outside the pack layer and are left untouched.
func attachPrunes(pl *Plan, ly *Layout) {
	d := newDemandState(ly)
	n := pl.NSup
	for li := range pl.Levels {
		lv := &pl.Levels[li]

		// R1: diagonal closures.
		for _, k := range lv.R1 {
			if dk := d.at(k, k); dk != nil {
				dk.closure()
			}
		}

		// R2: demands against the pre-update panels, then the panel
		// mask updates in one batch (consumer blocks are pairwise
		// distinct across the level's R2 ops).
		type r2upd struct{ i, j, k int }
		var r2upds []r2upd
		for x := range lv.R2 {
			op := &lv.R2[x]
			k := op.BI // payload is the diagonal block (k, k)
			if op.Kind == opR2Left {
				// Payload is the RIGHT operand of A(i,k) ⊕= A(i,k) ⊗ D:
				// row t of D meets column t of every consumer's A(i,k).
				rows := bitset(d.sizes[k])
				for _, r := range op.Consumers {
					i, _ := blockOf(r, n)
					d.at(i, k).orColAnyInto(rows)
					r2upds = append(r2upds, r2upd{i, k, k})
				}
				op.Prune = pruneFor(rows, nil, d.sizes[k], d.sizes[k])
			} else {
				// Payload is the LEFT operand of A(k,j) ⊕= D ⊗ A(k,j):
				// column t of D meets row t of every consumer's A(k,j).
				cols := bitset(d.sizes[k])
				for _, r := range op.Consumers {
					_, j := blockOf(r, n)
					d.at(k, j).orRowAnyInto(cols)
					r2upds = append(r2upds, r2upd{k, j, k})
				}
				op.Prune = pruneFor(nil, cols, d.sizes[k], d.sizes[k])
			}
			// Pivot payloads always allow the zero-diagonal drop (the
			// `full` descriptor becomes a non-nil spec carrying only the
			// flag). On identity pivots — diagonal supernodes with no
			// internal fill, e.g. every leaf supernode of a star — the
			// whole broadcast collapses to the 1-word empty payload.
			if op.Prune == nil {
				op.Prune = &PruneSpec{ZeroDiag: true}
			} else {
				op.Prune.ZeroDiag = true
			}
		}
		for _, u := range r2upds {
			if p := d.at(u.i, u.j); p != nil {
				// The panel is both an operand and the destination; the
				// numeric kernel reads the PRE-update panel (via its
				// scratch clone), so the sweep multiplies a snapshot.
				if u.i == u.k { // M(k,j) |= M(k,k) ⊗ M(k,j)
					p.orMul(d.at(u.k, u.k), snapshotOf(p))
				} else { // M(i,k) |= M(i,k) ⊗ M(k,k)
					p.orMul(snapshotOf(p), d.at(u.k, u.k))
				}
			}
		}

		// R4, mapped strategy: a consumer's demand is defined by its
		// unit's OTHER operand (BuildPlan hands a panel only to
		// processors that host a planned unit).
		unitOf := make(map[int]*UnitOp, len(lv.R4Units))
		for x := range lv.R4Units {
			unitOf[lv.R4Units[x].Rank] = &lv.R4Units[x]
		}
		for x := range lv.R4Col {
			op := &lv.R4Col[x] // payload A(i,k): left operand of unit products
			k := op.BJ
			cols := bitset(d.sizes[k])
			for _, r := range op.Consumers {
				u := unitOf[r]
				d.at(u.K, u.J).orRowAnyInto(cols)
			}
			op.Prune = pruneFor(nil, cols, d.sizes[op.BI], d.sizes[k])
		}
		for x := range lv.R4Row {
			op := &lv.R4Row[x] // payload A(k,j): right operand
			k := op.BI
			rows := bitset(d.sizes[k])
			for _, r := range op.Consumers {
				u := unitOf[r]
				d.at(u.I, u.K).orColAnyInto(rows)
			}
			op.Prune = pruneFor(rows, nil, d.sizes[k], d.sizes[op.BJ])
		}

		// R4, sequential ablation: the same products, point-to-point.
		for x := range lv.R4Seq {
			op := &lv.R4Seq[x]
			cols := bitset(d.sizes[op.K])
			d.at(op.K, op.BJ).orRowAnyInto(cols)
			op.PruneA = pruneFor(nil, cols, d.sizes[op.BI], d.sizes[op.K])
			rows := bitset(d.sizes[op.K])
			d.at(op.BI, op.K).orColAnyInto(rows)
			op.PruneB = pruneFor(rows, nil, d.sizes[op.K], d.sizes[op.BJ])
		}

		// R4 mask updates (both strategies fold the same products).
		for x := range lv.R4Units {
			u := &lv.R4Units[x]
			a, b := d.at(u.I, u.K), d.at(u.K, u.J)
			if a != nil && b != nil && !a.empty() && !b.empty() {
				d.ensure(u.I, u.J).orMul(a, b)
			}
		}
		for x := range lv.R4Seq {
			op := &lv.R4Seq[x]
			a, b := d.at(op.BI, op.K), d.at(op.K, op.BJ)
			if a != nil && b != nil && !a.empty() && !b.empty() {
				d.ensure(op.BI, op.BJ).orMul(a, b)
			}
		}

		// Transposes replace the mirror block (CopyFrom semantics).
		// Sources are lower-half blocks and destinations upper-half, so
		// no op reads another's destination; still, snapshot first.
		type transUpd struct {
			i, j int
			t    *entryMask
		}
		var tps []transUpd
		for x := range lv.Trans {
			op := &lv.Trans[x]
			if src := d.at(op.BI, op.BJ); src != nil {
				tps = append(tps, transUpd{op.BJ, op.BI, src.transposeOf()})
			}
		}
		for _, tp := range tps {
			d.m[(tp.i-1)*d.n+(tp.j-1)] = tp.t
		}

		// R3: demands from the post-R2 panels — R4 and the transposes
		// above wrote ancestor × ancestor blocks only — then the one-unit
		// products (targets carry no level-l coordinate, so no R3
		// operand is written within the phase).
		type r3upd struct{ i, j, k int }
		var r3upds []r3upd
		for x := range lv.R3 {
			op := &lv.R3[x]
			if op.Kind == opR3Row {
				// Payload A(i,k) is the LEFT operand of
				// A(i,j) ⊕= A(i,k) ⊗ A(k,j): its column t meets row t
				// of the consumer's column panel A(k,j).
				i, k := op.BI, op.BJ
				cols := bitset(d.sizes[k])
				for _, r := range op.Consumers {
					_, j := blockOf(r, n)
					d.at(k, j).orRowAnyInto(cols)
					r3upds = append(r3upds, r3upd{i, j, k})
				}
				op.Prune = pruneFor(nil, cols, d.sizes[i], d.sizes[k])
			} else {
				// Payload A(k,j) is the RIGHT operand: its row t meets
				// column t of the consumer's row panel A(i,k).
				k, j := op.BI, op.BJ
				rows := bitset(d.sizes[k])
				for _, r := range op.Consumers {
					i, _ := blockOf(r, n)
					d.at(i, k).orColAnyInto(rows)
				}
				op.Prune = pruneFor(rows, nil, d.sizes[k], d.sizes[j])
			}
		}
		for _, u := range r3upds {
			a, b := d.at(u.i, u.k), d.at(u.k, u.j)
			if a != nil && b != nil && !a.empty() && !b.empty() {
				d.ensure(u.i, u.j).orMul(a, b)
			}
		}
	}
}

// snapshotOf returns a deep copy of a mask.
func snapshotOf(a *entryMask) *entryMask {
	if a == nil {
		return nil
	}
	return &entryMask{rows: a.rows, cols: a.cols, w: a.w, bits: append([]uint64(nil), a.bits...)}
}
