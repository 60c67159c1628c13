package apsp

import (
	"math/bits"

	"sparseapsp/internal/semiring"
)

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
// numeric schedule on it, op by op through each level's op list:
//
//	R1     M(k,k) ← boolean transitive closure of M(k,k)
//	R2     M(i,k) |= M(i,k) ⊗ M(k,k);  M(k,j) |= M(k,k) ⊗ M(k,j)
//	R4     M(I,J) |= M(I,K) ⊗ M(K,J)       (one term per planned unit)
//	trans  M(BJ,BI) ← M(BI,BJ)ᵀ            (replace, like CopyFrom)
//	R3     M(i,j) |= M(i,k) ⊗ M(k,j)
//
// where ⊗ is the boolean matrix product (min-plus finiteness: the
// product entry may be finite iff some k pairs two maybe-finite
// entries). An op's demands are computed BEFORE its own mask update,
// and no op writes a block another op of its phase reads (R2 updates
// write their own pivot's panels, R3 products target blocks with no
// level-l coordinate, R4 products target ancestor blocks, transposes
// write the mirror half that is never a same-level source), so the
// masks at each op are exactly the operand state every receiver
// multiplies at. For the same reason R3 and R4 commute — both read the
// panels R2 left, neither writes a block the other touches — and the
// sweep's result does not depend on which runs first; it follows the
// op list to stay comparable op by op.
//
// Soundness of a prune: a payload row t is dropped only when every
// consumer's left operand has a provably all-Inf column t (and
// symmetrically for columns against right-operand rows). A dropped
// row then contributes only Inf terms to every min-plus fold at every
// receiver, and min(x, Inf) = x bit-for-bit — which is why wire=pruned
// distances are bit-identical to wire=dense (pinned by the golden
// table and TestSparseAPSPMatchesClassicalFW).
//
// Exact prices: the sweep also keeps the mask of every broadcast, seq and
// transpose payload as of its send (sendDemand). For finite weights the
// masks are not just sound but exact — an entry is finite exactly when
// its bit is set — so packPrice can say what semiring.PackPruned will
// ship for any descriptor, word for word, before any weight exists: the
// demand trimmed on both axes to its finite entries, the zero diagonal
// left out, or the classic encoding when that is shorter. The tree
// placement's descent replays its clocks at these prices
// (place.go, TestPlanClockIsExact).

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
// A frozen mask is a payload's as of its send (demandState.send): the
// sweep never writes it again, finite counts its set bits and live is the
// bitset of its rows holding one.
type entryMask struct {
	rows, cols, w int
	bits          []uint64
	frozen        bool
	finite        int
	live          []uint64
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
// the mask image of ClassicalFW on the diagonal block — and returns the
// flops ClassicalFW charges: the block's size for every (pivot, row)
// pair it visits, in the same k-then-i order, with the row's pivot entry
// finite.
func (m *entryMask) closure() int64 {
	var flops int64
	for k := 0; k < m.rows; k++ {
		krow := m.row(k)
		kw, kb := k/64, uint64(1)<<(k%64)
		for i := 0; i < m.rows; i++ {
			irow := m.row(i)
			if irow[kw]&kb != 0 {
				flops += int64(m.rows)
				for x := range irow {
					irow[x] |= krow[x]
				}
			}
		}
	}
	return flops
}

// count is the number of m's set bits.
func (m *entryMask) count() int64 {
	var n int
	for _, word := range m.bits {
		n += bits.OnesCount64(word)
	}
	return int64(n)
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
// supernode labels; nil entries are provably all-Inf blocks. work holds
// the flops the masks alone price (Plan.Cost): a diagonal op's closure,
// and per consumer of an R2 column pivot its update, whose left operand
// is the consumer's own panel.
type demandState struct {
	n     int
	sizes []int
	m     []*entryMask // (i-1)*n + (j-1)
	work  map[workKey]int64
}

// workKey names a step the sweep prices: pivot block k's closure on its
// owner, or its column pivot's update on a consumer. Each pivot has one
// diagonal op and one column broadcast, and neither moves a rank, so the
// key holds wherever the placement's drops move the op or whichever
// consumers they take out of it.
type workKey struct{ k, rank int }

func (d *demandState) at(i, j int) *entryMask { return d.m[(i-1)*d.n+(j-1)] }

// own returns block (i, j)'s mask for writing: a fresh one for an all-Inf
// block, a copy of one frozen by a send.
func (d *demandState) own(i, j int) *entryMask {
	idx := (i-1)*d.n + (j - 1)
	switch m := d.m[idx]; {
	case m == nil:
		d.m[idx] = newEntryMask(d.sizes[i], d.sizes[j])
	case m.frozen:
		d.m[idx] = snapshotOf(m)
	}
	return d.m[idx]
}

// send returns block (i, j)'s mask as a payload ships it, frozen — the
// sweep copies it before writing the block again (own) — with its set
// bits counted. An all-Inf block ships an empty mask.
func (d *demandState) send(i, j int) *entryMask {
	m := d.at(i, j)
	if m == nil {
		m = newEntryMask(d.sizes[i], d.sizes[j])
	}
	if !m.frozen {
		m.frozen = true
		m.live = bitset(m.rows)
		for r := 0; r < m.rows; r++ {
			for _, word := range m.row(r) {
				if word != 0 {
					m.live[r/64] |= 1 << (r % 64)
				}
				m.finite += bits.OnesCount64(word)
			}
		}
	}
	return m
}

// newDemandState mirrors Layout.BlocksPooled's initial structure: the
// diagonal of every non-empty supernode plus one bit per structural
// edge of the permuted graph.
func newDemandState(ly *Layout) *demandState {
	n := ly.ND.N
	d := &demandState{n: n, sizes: ly.ND.Sizes, m: make([]*entryMask, n*n), work: make(map[workKey]int64)}
	for i := 1; i <= n; i++ {
		if d.sizes[i] == 0 {
			continue
		}
		diag := d.own(i, i)
		for t := 0; t < d.sizes[i]; t++ {
			diag.set(t, t)
		}
	}
	sup, loc := ly.ND.VertexBlocks()
	for v := 0; v < ly.PG.N(); v++ {
		sv, lv := int(sup[v]), int(loc[v])
		for _, e := range ly.PG.Adj(v) {
			d.own(sv, int(sup[e.To])).set(lv, int(loc[e.To]))
		}
	}
	return d
}

// blockOf converts a rank back to its 1-based block coordinates, and
// rankOf is its inverse: block (i, j) lives on rank (i−1)·n + (j−1).
func blockOf(rank, n int) (int, int) { return rank/n + 1, rank%n + 1 }

func rankOf(i, j, n int) int { return (i-1)*n + j - 1 }

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

// attachPrunes runs the symbolic demand sweep over the plan's schedule,
// keeps the flops it prices on the plan (Plan.work), and bakes a
// PruneSpec into every broadcast and sequential-R4 send
// whose payload some receiver provably cannot fully use. Transpose
// sends are never symbolically pruned: the receiver's block BECOMES
// the payload (replace, not fold), so every entry is demanded — they
// still benefit from the pack-time numeric trim. Reduce payloads are
// raw vectors outside the pack layer and are left untouched.
//
// A broadcast's descriptors end up per edge — the message into position
// i carries the union of what the members of the subtree rooted at i
// fold — but that depends on the tree, which placeTrees chooses later.
// Until then every edge carries the whole group's union (wholeGroup), and
// attachPrunes returns what the sweep knows of every sending op: each
// broadcast's per-member demand, from which placeTrees freezes the
// per-edge descriptors of the trees it chooses, and every payload's mask,
// at which it prices them.
func attachPrunes(pl *Plan, ly *Layout) map[*Op]*sendDemand {
	sends, work := sweepPlan(pl, ly, true)
	pl.work = work
	for op, sd := range sends {
		if sd.need != nil {
			sd.need.wholeGroup(op)
		}
	}
	return sends
}

// sendDemand is what the demand sweep knows of one sending op as of its
// send: the mask of each payload — a seq op's A(BI,K) and A(K,BJ), every
// other kind's one block — at which packPrice prices its messages, and a
// broadcast's per-member demand (nil for the other kinds, and when the
// sweep only replays the masks).
type sendDemand struct {
	mask [2]*entryMask
	need *bcastNeed
}

// perMember is sd.need, nil for a nil sd.
func (sd *sendDemand) perMember() *bcastNeed {
	if sd == nil {
		return nil
	}
	return sd.need
}

// maskOf is the mask of op's part-th payload.
func (sd *sendDemand) maskOf(op *Op, part int) *entryMask {
	if op.Kind == opSeq {
		return sd.mask[part]
	}
	return sd.mask[0]
}

// sweepPlan replays the demand sweep over pl's schedule as it stands and
// returns what it knows of every broadcast, seq and transpose op, and the
// flops the masks alone price (demandState.work). With freeze set it is
// attachPrunes' sweep: it also computes each broadcast's per-member
// demand and writes each seq op's descriptors. Without, it only reads the
// plan — the masks are the same for any trees and drops, which change no
// mask update — so a plan that kept no record of its build's sweep can be
// priced (Plan.Cost).
func sweepPlan(pl *Plan, ly *Layout, freeze bool) (map[*Op]*sendDemand, map[workKey]int64) {
	d := newDemandState(ly)
	sends := make(map[*Op]*sendDemand)
	for _, ops := range pl.Levels {
		unitOf := make(map[int]*Op)
		for x := range ops {
			if ops[x].Kind == opUnit {
				unitOf[ops[x].Root] = &ops[x]
			}
		}
		for x := range ops {
			if sd := d.sweep(&ops[x], unitOf, freeze); sd != nil {
				sends[&ops[x]] = sd
			}
		}
	}
	return sends, d.work
}

// sweep records op's payload masks and, with freeze set, its demand —
// what each broadcast member folds, a seq op's descriptors — from the
// masks as they stand, then applies op's mask update (the file comment
// says why op by op is sound). unitOf maps a rank to the level's unit on
// it.
func (d *demandState) sweep(op *Op, unitOf map[int]*Op, freeze bool) *sendDemand {
	switch op.Kind {
	case opDiag:
		if d.at(op.BI, op.BI) != nil {
			d.work[workKey{op.BI, op.Root}] = d.own(op.BI, op.BI).closure()
		}
	case opUnit:
		d.mul(op.BI, op.K, op.BJ)
	case opSeq:
		sd := &sendDemand{mask: [2]*entryMask{d.send(op.BI, op.K), d.send(op.K, op.BJ)}}
		if freeze {
			op.Prune = []*PruneSpec{
				d.demand(op.BI, op.K, true, [][2]int{{op.K, op.BJ}}),
				d.demand(op.K, op.BJ, false, [][2]int{{op.BI, op.K}}),
			}
		}
		d.mul(op.BI, op.K, op.BJ)
		return sd
	case opTrans:
		sd := &sendDemand{mask: [2]*entryMask{d.send(op.BI, op.BJ)}}
		if src := d.at(op.BI, op.BJ); src != nil {
			d.m[(op.BJ-1)*d.n+(op.BI-1)] = src.transposeOf()
		}
		return sd
	case opReduce:
	default:
		sd := &sendDemand{mask: [2]*entryMask{d.send(op.BI, op.BJ)}}
		// The payload is the left operand of every consumer's product
		// (R2 row pivots, R4 column panels, R3 row broadcasts) or the
		// right one; others[c] is the consumer's other operand.
		left := op.Kind == opR2Right || op.Kind == opR4Aik || op.Kind == opR3Row
		others := make([][2]int, len(op.Consumers))
		for c, r := range op.Consumers {
			i, j := blockOf(r, d.n) // R2: the consumer's own panel
			switch op.Kind {
			case opR4Aik:
				i, j = unitOf[r].K, unitOf[r].BJ
			case opR4Akj:
				i, j = unitOf[r].BI, unitOf[r].K
			case opR3Row:
				i = op.BJ
			case opR3Col:
				j = op.BI
			}
			others[c] = [2]int{i, j}
		}
		if freeze {
			sd.need = d.need(op, left, others)
		}
		switch op.Kind {
		case opR2Left, opR2Right:
			// Pivot payloads always allow the zero-diagonal drop (the
			// `full` descriptor becomes a non-nil spec carrying only the
			// flag). On identity pivots — diagonal supernodes with no
			// internal fill, e.g. every leaf supernode of a star — the
			// whole broadcast collapses to the 1-word empty payload.
			if freeze {
				sd.need.zeroDiag = true
			}
			// The panel is both an operand and the destination; the
			// numeric kernel reads the PRE-update panel (via its scratch
			// clone), so the sweep multiplies a snapshot.
			// A frozen panel is that snapshot already: own writes a copy.
			k := op.BI
			for c, o := range others {
				pre := d.at(o[0], o[1])
				if pre == nil {
					continue
				}
				if !left { // A ⊕= A ⊗ D charges A's finite entries × D's width
					d.work[workKey{k, op.Consumers[c]}] = pre.count() * int64(d.sizes[k])
				}
				if !pre.frozen {
					pre = snapshotOf(pre)
				}
				if left { // M(k,j) |= M(k,k) ⊗ M(k,j)
					d.own(o[0], o[1]).orMul(d.at(k, k), pre)
				} else { // M(i,k) |= M(i,k) ⊗ M(k,k)
					d.own(o[0], o[1]).orMul(pre, d.at(k, k))
				}
			}
		case opR3Row:
			for _, o := range others {
				d.mul(op.BI, op.BJ, o[1]) // M(i,j) |= M(i,k) ⊗ M(k,j)
			}
		}
		return sd
	}
	return nil
}

// demand returns the descriptor of payload block (bi, bj), given the
// other operand of every product it enters: as the left operand, its
// column t meets row t of each other operand, so it keeps the columns
// some other operand has a maybe-finite row for; as the right operand,
// symmetrically, the rows.
func (d *demandState) demand(bi, bj int, left bool, others [][2]int) *PruneSpec {
	axis := d.axis(bi, bj, left, others)
	if left {
		return pruneFor(nil, axis, d.sizes[bi], d.sizes[bj])
	}
	return pruneFor(axis, nil, d.sizes[bi], d.sizes[bj])
}

// axis is demand's kept axis as a bitset: the columns (left) or rows the
// products with the given other operands can fold.
func (d *demandState) axis(bi, bj int, left bool, others [][2]int) []uint64 {
	if left {
		cols := bitset(d.sizes[bj])
		for _, o := range others {
			d.at(o[0], o[1]).orRowAnyInto(cols)
		}
		return cols
	}
	rows := bitset(d.sizes[bi])
	for _, o := range others {
		d.at(o[0], o[1]).orColAnyInto(rows)
	}
	return rows
}

// need returns broadcast op's per-member demand: others[c] is the other
// operand of consumer c's product, and members outside Consumers — the
// R2 relays — demand nothing.
func (d *demandState) need(op *Op, left bool, others [][2]int) *bcastNeed {
	n := &bcastNeed{rows: d.sizes[op.BI], cols: d.sizes[op.BJ], onRows: !left, member: make([][]uint64, len(op.Group))}
	for c, r := range op.Consumers {
		n.member[position(op.Group, r)] = d.axis(op.BI, op.BJ, left, others[c:c+1])
	}
	for m := range n.member {
		if n.member[m] == nil {
			n.member[m] = bitset(n.dim())
		}
	}
	return n
}

// bcastNeed is one broadcast's demand per member, kept from the sweep
// until placeTrees has chosen the broadcast's tree: member[m] is the
// bitset of payload rows (onRows) or columns that Group[m] folds, and it
// is permuted with Group. Every descriptor of the op derives from it.
type bcastNeed struct {
	rows, cols int // payload dimensions
	onRows     bool
	zeroDiag   bool // an R2 pivot: every descriptor carries the flag
	member     [][]uint64
}

// dim is the length of the pruned axis.
func (n *bcastNeed) dim() int {
	if n.onRows {
		return n.rows
	}
	return n.cols
}

// unions fills dst with the subtree demands of the tree (arr, parent):
// dst[p] is the union of what the members of the subtree rooted at
// position p fold, where arr[p] indexes member (nil: the identity) and
// parent is the tree over positions. Parents precede children, so one
// reverse sweep folds every subtree into its parent — a mirror holder's
// into the root's, which stays the whole group's. dst must have a slot
// per position; its slots' storage is reused.
func (n *bcastNeed) unions(arr, parent []int32, dst [][]uint64) [][]uint64 {
	q := len(parent)
	for p := 0; p < q; p++ {
		m := p
		if arr != nil {
			m = int(arr[p])
		}
		dst[p] = append(dst[p][:0], n.member[m]...)
	}
	for p := q - 1; p > 0; p-- {
		up := dst[max(parent[p], 0)]
		for x, w := range dst[p] {
			up[x] |= w
		}
	}
	return dst[:q]
}

// spec is the descriptor of a kept-axis bitset.
func (n *bcastNeed) spec(bs []uint64) *PruneSpec {
	var s *PruneSpec
	if n.onRows {
		s = pruneFor(bs, nil, n.rows, n.cols)
	} else {
		s = pruneFor(nil, bs, n.rows, n.cols)
	}
	if n.zeroDiag {
		if s == nil {
			s = &PruneSpec{}
		}
		s.ZeroDiag = true
	}
	return s
}

// words is packWords of spec(bs), counted without building it (before
// msgWords' cap at the whole group's words).
func (n *bcastNeed) words(bs []uint64) int64 {
	kept := 0
	for _, w := range bs {
		kept += bits.OnesCount64(w)
	}
	nr, nc := n.rows, n.cols
	if n.onRows {
		nr = kept
	} else {
		nc = kept
	}
	return packWords(n.rows, n.cols, nr, nc, kept == n.dim() && !n.zeroDiag)
}

// wholeGroup gives every position of op the whole group's descriptor:
// the union of every member's demand, which any tree's root subtree is.
func (n *bcastNeed) wholeGroup(op *Op) {
	all := bitset(n.dim())
	for _, bs := range n.member {
		for x, w := range bs {
			all[x] |= w
		}
	}
	spec := n.spec(all)
	op.Prune = make([]*PruneSpec, len(op.Group))
	for i := range op.Prune {
		op.Prune[i] = spec
	}
}

// freeze sets op.Prune to the subtree demands of op's tree as it stands,
// using buf (a slot per member) for the unions.
func (n *bcastNeed) freeze(op *Op, buf [][]uint64) {
	sub := n.unions(nil, op.Parent, buf)
	op.Prune = make([]*PruneSpec, len(sub))
	for p, bs := range sub {
		op.Prune[p] = n.spec(bs)
	}
}

// axes returns the demand of a kept-axis bitset as rows × columns, a nil
// axis demanding every index.
func (n *bcastNeed) axes(bs []uint64) (rows, cols []uint64) {
	if n.onRows {
		return bs, nil
	}
	return nil, bs
}

// rect is the part of a payload's mask a broadcast member holds: the rows
// and columns of the pruned encoding it decoded, a nil axis holding every
// index. The root holds its whole block; a relay whose message came in a
// classic encoding holds what its parent held.
type rect struct{ rows, cols []uint64 }

// packPrice returns the words semiring.PackPruned ships when it packs a
// block whose finite entries are m's inside held, for the demand rows ×
// cols (a nil axis demands every index; zeroDiag as in PruneSpec), and
// the rectangle the receiver holds once it decodes them. keep is the
// storage of the kept rectangle (a row slot of m.rows bits, a column slot
// of m.cols) and filter scratch of m.w words.
//
// The price is exact: for finite weights an entry is finite exactly when
// the sweep's mask marks it, and with no negative cycle every diagonal
// entry of a pivot block is 0, so the kept rows and columns — the demand
// trimmed on both axes to its finite entries, the zero diagonal left out
// — and the length of the classic encoding are what pack finds. A pivot
// (zeroDiag) ships the indices kept on both axes as a triangle
// (semiring.TriangleLen): the distances, and so every pivot, are their
// own transposes bit for bit (TestSymmetricPayloadsAtSend).
func (m *entryMask) packPrice(held rect, rows, cols []uint64, zeroDiag bool, keep rect, filter []uint64) (int64, rect) {
	filter = filter[:m.w]
	for x := range filter {
		f := ^uint64(0)
		if held.cols != nil {
			f &= held.cols[x]
		}
		if cols != nil {
			f &= cols[x]
		}
		filter[x] = f
	}
	kr, kc := keep.rows[:len(m.live)], keep.cols[:m.w]
	clear(kr)
	clear(kc)
	nr := 0
	for xr, scan := range m.live {
		if held.rows != nil {
			scan &= held.rows[xr]
		}
		if rows != nil {
			scan &= rows[xr]
		}
		for ; scan != 0; scan &= scan - 1 {
			r := xr*64 + bits.TrailingZeros64(scan)
			if m.w == 1 { // one word a row: most blocks
				v := m.bits[r] & filter[0]
				if zeroDiag && xr == 0 {
					v &^= 1 << r
				}
				if v != 0 {
					kc[0] |= v
					kr[xr] |= 1 << (r % 64)
					nr++
				}
				continue
			}
			var any uint64
			for x, word := range m.row(r) {
				v := word & filter[x]
				if zeroDiag && x == xr {
					v &^= 1 << (r % 64)
				}
				kc[x] |= v
				any |= v
			}
			if any != 0 {
				kr[xr] |= 1 << (r % 64)
				nr++
			}
		}
	}
	if nr == 0 {
		return 1, rect{kr, kc}
	}
	nc := 0
	for _, word := range kc {
		nc += bits.OnesCount64(word)
	}
	s := 0
	if zeroDiag && m.rows == m.cols {
		for x, word := range kc {
			s += bits.OnesCount64(word & kr[x])
		}
	}
	pruned := int64(semiring.TriangleLen(nr, nc, s))
	if classic := int64(semiring.ClassicLen(m.rows*m.cols, m.finiteIn(held))); classic <= pruned {
		return classic, held
	}
	return pruned, rect{kr, kc}
}

// finiteIn counts m's set bits inside held.
func (m *entryMask) finiteIn(held rect) int {
	if held.rows == nil && held.cols == nil {
		return m.finite
	}
	n := 0
	for xr, scan := range m.live {
		if held.rows != nil {
			scan &= held.rows[xr]
		}
		for ; scan != 0; scan &= scan - 1 {
			for x, word := range m.row(xr*64 + bits.TrailingZeros64(scan)) {
				if held.cols != nil {
					word &= held.cols[x]
				}
				n += bits.OnesCount64(word)
			}
		}
	}
	return n
}

// mul folds M(i,k) ⊗ M(k,j) into M(i,j) unless an operand is provably
// all-Inf.
func (d *demandState) mul(i, k, j int) {
	if a, b := d.at(i, k), d.at(k, j); !a.empty() && !b.empty() {
		d.own(i, j).orMul(a, b)
	}
}

// snapshotOf returns a deep copy of a mask.
func snapshotOf(a *entryMask) *entryMask {
	if a == nil {
		return nil
	}
	return &entryMask{rows: a.rows, cols: a.cols, w: a.w, bits: append([]uint64(nil), a.bits...)}
}
