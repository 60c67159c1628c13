package apsp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"

	"sparseapsp/internal/comm"
	"sparseapsp/internal/etree"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/partition"
)

// The symbolic half of 2D-SPARSE-APSP. Algorithm 1 is really two
// algorithms fused together: a symbolic one (nested dissection → eTree
// → fill mask → the per-level R_l^1..R_l^4 schedule, all decided by
// graph STRUCTURE alone) and a numeric one (the min-plus block updates
// on actual weights). A Plan is the symbolic half reified: an
// immutable, rank-independent artifact that fully enumerates the solve
// — every collective's group, root and tag, every panel update and
// computing-unit assignment, the mask-derived skip set — built once
// from (Layout, p, wire, strategy) and replayed by ExecuteOpts
// (dataflow.go) against any weights with the same structure. Supernodal
// sparse factorization calls these the symbolic and numeric phases;
// the serving layer exploits the split by caching Plans under a
// weights-independent StructureFingerprint so N solves on one topology
// pay the symbolic cost once.

// Kinds of broadcast payload consumption. The kind decides what a
// consumer rank does with the payload it received.
const (
	opR2Left  uint8 = iota // P(i,k): A ⊕= A ⊗ D  (pivot arrives from the column broadcast)
	opR2Right              // P(k,j): A ⊕= D ⊗ A
	opR3Row                // capture payload as the rank's R_l^3 row panel A(i,k)
	opR3Col                // capture payload as the rank's R_l^3 column panel A(k,j)
	opR4Aik                // capture payload as the unit's left operand A(i,k)
	opR4Akj                // capture payload as the unit's right operand A(k,j)
)

// BcastOp is one planned broadcast: the payload block (BI, BJ) travels
// from Root to every rank of Group along the binomial tree in group
// order. A group is a set plus a chosen order: the set is who needs the
// payload, the order — Root first, then as placeTrees (place.go)
// arranged the members — decides who relays, and with it the charged
// critical path. Consumers are the member ranks that act on the payload
// according to Kind; members outside Consumers only relay, which beyond
// the root happens in R2 pivot groups alone.
type BcastOp struct {
	Group     []int
	Root      int
	Tag       int
	BI, BJ    int
	Consumers []int
	Kind      uint8
	// Prune is the symbolic demand descriptor of the payload (nil =
	// full, every entry demanded; always nil under WireDense); see
	// demand.go.
	Prune *PruneSpec
}

// UnitOp assigns the computing unit A(I,K) ⊗ A(K,J) of Corollary 5.5
// to Rank (= processor P_{f,g}).
type UnitOp struct {
	Rank, I, K, J int
}

// ReduceOp folds the units of block (BI, BJ) into its owner: Group are
// the unit processors (contiguous columns of one row), Root the block
// owner, which need not be a member.
type ReduceOp struct {
	Group  []int
	Root   int
	Tag    int
	BI, BJ int
}

// SeqOp is one unit of the Section 5.2.2 "trivial strategy" ablation:
// both panel owners send directly to the block owner, which folds the
// product locally.
type SeqOp struct {
	K, BI, BJ          int
	AikOwner, AkjOwner int
	Owner              int
	TagA, TagB         int
	// PruneA / PruneB are the demand descriptors of the A(BI,K) and
	// A(K,BJ) payloads (nil = full); see demand.go.
	PruneA, PruneB *PruneSpec
}

// TransOp mirrors the computed lower half of R_l^4 to its transpose
// position (Algorithm 1 line 25): Src = owner of (BI, BJ) sends, Dst =
// owner of (BJ, BI) receives and transposes in place.
type TransOp struct {
	Src, Dst int
	Tag      int
	BI, BJ   int
}

// planLevel is the complete op schedule of one eTree level. A rank runs
// the phases in the order R1 diagonal pivots, R2 pivot broadcasts +
// panel updates, then R4 — the mapped strategy (panel broadcasts to
// unit processors, unit products, reduces) or the sequential ablation —
// and its transpose sends, and R3 (panel broadcasts + one-unit
// products) last: R3 and R4 both depend on R2 alone and touch disjoint
// blocks, so the long R4 chain starts first and the wide R3 fan-out
// overlaps it (DESIGN.md §3). The fields below are grouped by region,
// not by that order. Per-phase lists are globally ordered; a rank
// replays only the ops it belongs to, in list order. Every broadcast
// listed has at least one consumer. planBuilder.level lists each group
// in eTree label order; that is only the arrangement placeTrees starts
// from, never what a built plan replays.
type planLevel struct {
	R1       []int // supernode labels whose diagonal owner runs ClassicalFW
	R2       []BcastOp
	R3       []BcastOp
	R4Col    []BcastOp
	R4Row    []BcastOp
	R4Units  []UnitOp
	R4Reduce []ReduceOp
	R4Seq    []SeqOp
	Trans    []TransOp
}

// rankLevel is one rank's view of a planLevel: indices into the
// per-phase op lists, restricted to the ops the rank participates in.
// Precomputing these is what makes a warm Execute skip every
// membership test the fused solver re-ran per solve.
type rankLevel struct {
	Diag   bool    // run ClassicalFW on the owned diagonal block
	R2     []int32 // indices into planLevel.R2
	R3     []int32
	R4Col  []int32
	R4Row  []int32
	Unit   int32 // index into planLevel.R4Units, -1 if none
	Reduce []int32
	Seq    []int32
	Trans  []int32
}

// Plan is the immutable symbolic artifact: everything about a
// 2D-SPARSE-APSP solve that does not depend on edge weights. It holds
// the ordering (ND result), eTree and fill mask it was derived from,
// the per-level op schedule, a per-rank index of that schedule, and the
// tag space the per-plan allocator consumed. Build once with
// BuildPlan, replay any number of times with ExecuteOpts; plans are safe
// for concurrent use by many solves.
type Plan struct {
	P     int
	H     int
	NSup  int // supernodes, 2^H − 1
	Wire  WireFormat
	R4Seq bool

	ND   *partition.Result
	Tree *etree.Tree
	Fill *FillMask

	Levels []planLevel
	ranks  [][]rankLevel // [rank][level-1]
	Tags   int           // tags consumed by the per-plan allocator

	hash string // lazily computed content hash
	once sync.Once

	// Lowered dataflow graph (dataflow.go), built lazily on the first
	// execute and shared by all subsequent ones: the lowering is a pure
	// function of the symbolic schedule, so like the plan itself it is
	// weights-independent and immutable once built.
	dfOnce sync.Once
	df     *dfProgram
}

// ScratchWords returns the scratch-arena words rank needs for an
// Execute: the R2 panel updates clone the owned block, so the arena is
// sized to exactly that block.
func (p *Plan) ScratchWords(rank int) int {
	i, j := rank/p.NSup+1, rank%p.NSup+1
	return p.ND.Sizes[i] * p.ND.Sizes[j]
}

// OpCount returns the total number of planned operations (collectives,
// point-to-point exchanges, unit products and diagonal updates) — the
// size of the symbolic schedule the mask left standing.
func (p *Plan) OpCount() int {
	n := 0
	for _, lv := range p.Levels {
		n += len(lv.R1) + len(lv.R2) + len(lv.R3) + len(lv.R4Col) +
			len(lv.R4Row) + len(lv.R4Units) + len(lv.R4Reduce) + len(lv.R4Seq) + len(lv.Trans)
	}
	return n
}

// Hash returns a content hash of the full symbolic schedule (ordering,
// tree shape, fill-driven op lists, groups, roots, tags). Every rank —
// indeed every process — deriving a Plan from the same (graph
// structure, p, seed, options) must produce the same hash; the
// cross-rank determinism test pins this, because a single diverging
// group order would deadlock or silently mis-cost a real machine.
func (p *Plan) Hash() string {
	p.once.Do(func() {
		h := sha256.New()
		w := &hashWriter{h: h}
		w.ints(p.P, p.H, p.NSup, int(p.Wire), boolInt(p.R4Seq), p.Tags)
		w.intSlice(p.ND.Perm)
		w.intSlice(p.ND.Sizes)
		for _, lv := range p.Levels {
			w.intSlice(lv.R1)
			for _, op := range lv.R2 {
				w.bcast(op)
			}
			for _, op := range lv.R3 {
				w.bcast(op)
			}
			for _, op := range lv.R4Col {
				w.bcast(op)
			}
			for _, op := range lv.R4Row {
				w.bcast(op)
			}
			for _, u := range lv.R4Units {
				w.ints(u.Rank, u.I, u.K, u.J)
			}
			for _, r := range lv.R4Reduce {
				w.intSlice(r.Group)
				w.ints(r.Root, r.Tag, r.BI, r.BJ)
			}
			for _, s := range lv.R4Seq {
				w.ints(s.K, s.BI, s.BJ, s.AikOwner, s.AkjOwner, s.Owner, s.TagA, s.TagB)
				w.prune(s.PruneA)
				w.prune(s.PruneB)
			}
			for _, t := range lv.Trans {
				w.ints(t.Src, t.Dst, t.Tag, t.BI, t.BJ)
			}
		}
		p.hash = hex.EncodeToString(h.Sum(nil))
	})
	return p.hash
}

type hashWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *hashWriter) ints(vs ...int) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(w.buf[:], uint64(int64(v)))
		w.h.Write(w.buf[:])
	}
}

func (w *hashWriter) intSlice(vs []int) {
	w.ints(len(vs))
	w.ints(vs...)
}

func (w *hashWriter) bcast(op BcastOp) {
	w.intSlice(op.Group)
	w.ints(op.Root, op.Tag, op.BI, op.BJ, int(op.Kind))
	w.intSlice(op.Consumers)
	w.prune(op.Prune)
}

func (w *hashWriter) prune(p *PruneSpec) {
	if p == nil {
		w.ints(-1)
		return
	}
	w.ints(boolInt(p.ZeroDiag))
	w.int32Axis(p.Rows)
	w.int32Axis(p.Cols)
}

// int32Axis hashes one PruneSpec axis, keeping nil ("all") distinct
// from empty ("none").
func (w *hashWriter) int32Axis(vs []int32) {
	if vs == nil {
		w.ints(-2)
		return
	}
	w.ints(len(vs))
	for _, v := range vs {
		w.ints(int(v))
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// BuildPlan runs the symbolic phase: it walks the eTree schedule of
// Algorithm 1 once, consulting the fill mask, and records every op
// some processor acts on — a broadcast nobody folds is not planned —
// then chooses the member order of every broadcast group from a replay
// of the model's clocks over that schedule (placeTrees, place.go).
// The resulting Plan executed against ly's weights yields distances
// bit-identical to the pre-split solver and the charged costs the
// golden cost test pins.
func BuildPlan(ly *Layout, p int, wire WireFormat, r4 R4Strategy) (*Plan, error) {
	pl, err := buildLabelOrder(ly, p, wire, r4)
	if err != nil {
		return nil, err
	}
	placeTrees(pl)
	pl.ranks = indexRanks(pl)
	return pl, nil
}

// buildLabelOrder is BuildPlan up to the tree placement: every op is
// planned and every payload rectangle frozen, each broadcast group
// still lists its members in eTree label order, and the per-rank index
// is not built yet.
func buildLabelOrder(ly *Layout, p int, wire WireFormat, r4 R4Strategy) (*Plan, error) {
	h, err := HeightForP(p)
	if err != nil {
		return nil, err
	}
	if ly.Tree.H != h {
		return nil, fmt.Errorf("apsp: layout has tree height %d, machine p=%d needs %d", ly.Tree.H, p, h)
	}
	if !wire.valid() {
		return nil, fmt.Errorf("apsp: unknown wire format %v (valid: pruned, dense)", wire)
	}
	b := &planBuilder{
		tr:    ly.Tree,
		sizes: ly.ND.Sizes,
		mask:  ly.Fill,
		wire:  wire,
		grid:  comm.Grid{Rows: ly.Tree.N, Cols: ly.Tree.N},
	}
	pl := &Plan{
		P:     p,
		H:     h,
		NSup:  ly.Tree.N,
		Wire:  wire,
		R4Seq: r4 == R4Sequential,
		ND:    ly.ND,
		Tree:  ly.Tree,
		Fill:  ly.Fill,
	}
	for l := 1; l <= h; l++ {
		lv, err := b.level(l, pl.R4Seq)
		if err != nil {
			return nil, err
		}
		pl.Levels = append(pl.Levels, lv)
	}
	if wire == WirePruned {
		// Demand sweep (demand.go): bake the per-op prune descriptors
		// into the schedule. Purely symbolic — warm solves and repairs
		// replay the frozen descriptors at zero per-solve cost.
		attachPrunes(pl, ly)
	}
	pl.Tags = b.tags
	return pl, nil
}

// planBuilder carries the symbolic state of one BuildPlan run, plus
// the per-plan tag allocator: every collective and point-to-point
// exchange gets a fresh tag, so no two concurrently-active ops can
// collide regardless of tree height (the fused solver's packed
// (level, phase, x, y) encoding capped machines at h ≤ 8).
type planBuilder struct {
	tr    *etree.Tree
	sizes []int
	mask  *FillMask
	wire  WireFormat
	grid  comm.Grid
	tags  int
}

func (b *planBuilder) tag() int {
	t := b.tags
	b.tags++
	return t
}

// rank converts 1-based supernode labels to a machine rank.
func (b *planBuilder) rank(i, j int) int { return b.grid.Rank(i-1, j-1) }

func (b *planBuilder) active(k int) bool { return b.sizes[k] > 0 }

// mayFill mirrors the fused solver's skip predicate: in dense-wire
// mode nothing is skipped; otherwise the mask's verdict is shared by
// every rank, which is what keeps skip decisions collective-safe.
func (b *planBuilder) mayFill(l, i, j int) bool {
	if b.wire == WireDense {
		return true
	}
	return b.mask.At(l, i, j)
}

// addBcast plans op unless nobody folds its payload: a broadcast
// without a consumer would only charge its hops (a full panel under
// WireDense), so it gets no tag and no place in the schedule.
func (b *planBuilder) addBcast(ops *[]BcastOp, op BcastOp) {
	if len(op.Consumers) == 0 {
		return
	}
	op.Tag = b.tag()
	*ops = append(*ops, op)
}

func (b *planBuilder) level(l int, r4seq bool) (planLevel, error) {
	tr := b.tr
	var lv planLevel

	// R_l^1: the diagonal owners of level l run ClassicalFW locally
	// (empty pivots too — a 0×0 update charges nothing, matching the
	// fused solver).
	lv.R1 = append(lv.R1, tr.LevelNodes(l)...)

	// R_l^2: pivot broadcasts down the pivot column and row. The pivot
	// diagonal always holds distance 0, so the collective always runs;
	// panels the mask proves all-Inf skip only their (vacuous) update.
	for _, k := range tr.LevelNodes(l) {
		if !b.active(k) {
			continue
		}
		rel := tr.RelatedSet(k)
		col := BcastOp{Root: b.rank(k, k), Tag: b.tag(), BI: k, BJ: k, Kind: opR2Left}
		for _, i := range rel {
			col.Group = append(col.Group, b.rank(i, k))
			if i != k && b.mayFill(l, i, k) {
				col.Consumers = append(col.Consumers, b.rank(i, k))
			}
		}
		lv.R2 = append(lv.R2, col)
		row := BcastOp{Root: b.rank(k, k), Tag: b.tag(), BI: k, BJ: k, Kind: opR2Right}
		for _, j := range rel {
			row.Group = append(row.Group, b.rank(k, j))
			if j != k && b.mayFill(l, k, j) {
				row.Consumers = append(row.Consumers, b.rank(k, j))
			}
		}
		lv.R2 = append(lv.R2, row)
	}

	// R_l^4 (absent at the root level, which has no ancestors), then the
	// transpose sends (line 25), shared by both strategies: a block the
	// mask proves still all-Inf after this level has an equally empty
	// mirror, so both sides skip the exchange.
	if l < tr.H {
		if r4seq {
			b.levelR4Sequential(l, &lv)
		} else if err := b.levelR4Mapped(l, &lv); err != nil {
			return planLevel{}, err
		}
		for _, blk := range tr.R4Lower(l) {
			if blk.I == blk.J || b.sizes[blk.I] == 0 || b.sizes[blk.J] == 0 {
				continue
			}
			if !b.anyActiveUnit(l, blk.I) || !b.mayFill(l+1, blk.I, blk.J) {
				continue
			}
			lv.Trans = append(lv.Trans, TransOp{
				Src: b.rank(blk.I, blk.J), Dst: b.rank(blk.J, blk.I),
				Tag: b.tag(), BI: blk.I, BJ: blk.J,
			})
		}
	}

	// R_l^3: row broadcasts of the column panels A(i,k) along row i,
	// column broadcasts of the row panels A(k,j) down column j; the
	// unique-pivot blocks capture and multiply. A panel travels to the
	// processors that fold it and to nobody else: the group is the root
	// plus the consumers, and a panel nobody folds — one the mask proves
	// all-Inf, or any level-1 panel, since leaves have no descendants and
	// R_1^3 is empty — is not broadcast at all.
	for _, k := range tr.LevelNodes(l) {
		if !b.active(k) {
			continue
		}
		rel := tr.RelatedSet(k)
		for _, i := range rel {
			if i == k || !b.mayFill(l, i, k) {
				continue
			}
			op := BcastOp{Root: b.rank(i, k), BI: i, BJ: k, Kind: opR3Row}
			for _, j := range rel {
				if b.r3Pivot(l, i, j) == k {
					op.Group = append(op.Group, b.rank(i, j))
					op.Consumers = append(op.Consumers, b.rank(i, j))
				} else if j == k {
					op.Group = append(op.Group, op.Root)
				}
			}
			b.addBcast(&lv.R3, op)
		}
		for _, j := range rel {
			if j == k || !b.mayFill(l, k, j) {
				continue
			}
			op := BcastOp{Root: b.rank(k, j), BI: k, BJ: j, Kind: opR3Col}
			for _, i := range rel {
				if b.r3Pivot(l, i, j) == k {
					op.Group = append(op.Group, b.rank(i, j))
					op.Consumers = append(op.Consumers, b.rank(i, j))
				} else if i == k {
					op.Group = append(op.Group, op.Root)
				}
			}
			b.addBcast(&lv.R3, op)
		}
	}
	return lv, nil
}

// levelR4Mapped plans the paper's strategy: panel broadcasts to the
// Corollary 5.5 unit processors, one unit product per processor, and a
// binomial reduce per block.
func (b *planBuilder) levelR4Mapped(l int, lv *planLevel) error {
	tr := b.tr
	// Column-panel broadcasts (line 14): P(i,k) → the processors whose
	// unit A(i,k) ⊗ A(k,j) is planned below, which capture it as their
	// left operand. A target whose other operand the mask proves all-Inf
	// hosts no unit and is handed nothing.
	for _, k := range tr.LevelNodes(l) {
		if !b.active(k) {
			continue
		}
		for a := l + 1; a <= tr.H; a++ {
			i := tr.AncestorAtLevel(k, a)
			if !b.mayFill(l, i, k) {
				continue
			}
			op := BcastOp{Root: b.rank(i, k), BI: i, BJ: k, Kind: opR4Aik}
			op.Group = append(op.Group, op.Root)
			for _, u := range tr.R4BroadcastTargetsColPanel(l, i, k) {
				if !b.mayFill(l, k, u.J) {
					continue
				}
				r := b.grid.Rank(u.F-1, u.G-1)
				if r != op.Root {
					op.Group = append(op.Group, r)
				}
				op.Consumers = append(op.Consumers, r)
			}
			b.addBcast(&lv.R4Col, op)
		}
	}
	// Row-panel broadcasts (line 17), likewise.
	for _, k := range tr.LevelNodes(l) {
		if !b.active(k) {
			continue
		}
		for c := l + 1; c <= tr.H; c++ {
			j := tr.AncestorAtLevel(k, c)
			if !b.mayFill(l, k, j) {
				continue
			}
			op := BcastOp{Root: b.rank(k, j), BI: k, BJ: j, Kind: opR4Akj}
			op.Group = append(op.Group, op.Root)
			for _, u := range tr.R4BroadcastTargetsRowPanel(l, k, j) {
				if !b.mayFill(l, u.I, k) {
					continue
				}
				r := b.grid.Rank(u.F-1, u.G-1)
				if r != op.Root {
					op.Group = append(op.Group, r)
				}
				op.Consumers = append(op.Consumers, r)
			}
			b.addBcast(&lv.R4Row, op)
		}
	}
	// Unit products (line 21): a unit exists iff both its panels can be
	// finite — exactly when both broadcasts above were planned with its
	// processor as a consumer, so the executor's captured operands are
	// always present.
	seen := make(map[int]bool)
	for _, u := range tr.UnitsForLevel(l) {
		if !b.active(u.K) || !b.mayFill(l, u.I, u.K) || !b.mayFill(l, u.K, u.J) {
			continue
		}
		r := b.grid.Rank(u.F-1, u.G-1)
		if seen[r] {
			return fmt.Errorf("apsp: plan: unit processor P(%d,%d) assigned twice at level %d", u.F, u.G, l)
		}
		seen[r] = true
		lv.R4Units = append(lv.R4Units, UnitOp{Rank: r, I: u.I, K: u.K, J: u.J})
	}
	// Reduces (line 23): the units of block (i,j) live on one processor
	// row in contiguous columns.
	for _, blk := range tr.R4Lower(l) {
		row, cols := tr.UnitProcessorsFor(l, blk.I, blk.J)
		pivots := tr.UnitsFor(l, blk.I, blk.J)
		var group []int
		for x, g := range cols {
			if b.active(pivots[x]) && b.mayFill(l, blk.I, pivots[x]) && b.mayFill(l, pivots[x], blk.J) {
				group = append(group, b.grid.Rank(row-1, g-1))
			}
		}
		if len(group) == 0 {
			continue
		}
		lv.R4Reduce = append(lv.R4Reduce, ReduceOp{
			Group: group, Root: b.rank(blk.I, blk.J), Tag: b.tag(), BI: blk.I, BJ: blk.J,
		})
	}
	return nil
}

// levelR4Sequential plans the Section 5.2.2 "trivial strategy"
// ablation: the block owner receives both panels of every unit
// directly and folds locally — 2q serialized receives instead of the
// mapped O(log q).
func (b *planBuilder) levelR4Sequential(l int, lv *planLevel) {
	tr := b.tr
	for _, blk := range tr.R4Lower(l) {
		for _, k := range tr.UnitsFor(l, blk.I, blk.J) {
			if !b.active(k) || !b.mayFill(l, blk.I, k) || !b.mayFill(l, k, blk.J) {
				continue
			}
			lv.R4Seq = append(lv.R4Seq, SeqOp{
				K: k, BI: blk.I, BJ: blk.J,
				AikOwner: b.rank(blk.I, k), AkjOwner: b.rank(k, blk.J),
				Owner: b.rank(blk.I, blk.J), TagA: b.tag(), TagB: b.tag(),
			})
		}
	}
}

// r3Pivot returns the unique active pivot k ∈ Q_l for which block
// (i, j) lies in R_l^3, or 0 — the plan-time twin of the fused
// solver's region3Pivot.
func (b *planBuilder) r3Pivot(l, i, j int) int {
	tr := b.tr
	if tr.RegionOf(l, i, j) != 3 {
		return 0
	}
	lower := i
	if tr.Level(j) < tr.Level(lower) {
		lower = j
	}
	k := tr.AncestorAtLevel(lower, l)
	if !b.active(k) {
		return 0
	}
	return k
}

// anyActiveUnit reports whether block (i, ·) has at least one active
// pivot at level l (i.e. it was actually updated and needs mirroring).
func (b *planBuilder) anyActiveUnit(l, i int) bool {
	for _, k := range b.tr.DescendantsAtLevel(i, l) {
		if b.active(k) {
			return true
		}
	}
	return false
}

// indexRanks builds the per-rank schedule index: for every rank, the
// indices of the ops it participates in, phase by phase, preserving
// each phase's global order.
func indexRanks(p *Plan) [][]rankLevel {
	n := p.NSup
	rk := func(i, j int) int { return (i-1)*n + (j - 1) }
	ranks := make([][]rankLevel, p.P)
	for r := range ranks {
		ranks[r] = make([]rankLevel, p.H)
		for l := range ranks[r] {
			ranks[r][l].Unit = -1
		}
	}
	for li := range p.Levels {
		lv := &p.Levels[li]
		for _, k := range lv.R1 {
			ranks[rk(k, k)][li].Diag = true
		}
		for x, op := range lv.R2 {
			for _, r := range op.Group {
				ranks[r][li].R2 = append(ranks[r][li].R2, int32(x))
			}
		}
		for x, op := range lv.R3 {
			for _, r := range op.Group {
				ranks[r][li].R3 = append(ranks[r][li].R3, int32(x))
			}
		}
		for x, op := range lv.R4Col {
			for _, r := range op.Group {
				ranks[r][li].R4Col = append(ranks[r][li].R4Col, int32(x))
			}
		}
		for x, op := range lv.R4Row {
			for _, r := range op.Group {
				ranks[r][li].R4Row = append(ranks[r][li].R4Row, int32(x))
			}
		}
		for x, u := range lv.R4Units {
			ranks[u.Rank][li].Unit = int32(x)
		}
		for x, op := range lv.R4Reduce {
			member := false
			for _, r := range op.Group {
				ranks[r][li].Reduce = append(ranks[r][li].Reduce, int32(x))
				if r == op.Root {
					member = true
				}
			}
			if !member {
				ranks[op.Root][li].Reduce = append(ranks[op.Root][li].Reduce, int32(x))
			}
		}
		for x, op := range lv.R4Seq {
			seen := map[int]bool{}
			for _, r := range []int{op.AikOwner, op.AkjOwner, op.Owner} {
				if !seen[r] {
					seen[r] = true
					ranks[r][li].Seq = append(ranks[r][li].Seq, int32(x))
				}
			}
		}
		for x, op := range lv.Trans {
			ranks[op.Src][li].Trans = append(ranks[op.Src][li].Trans, int32(x))
			if op.Dst != op.Src {
				ranks[op.Dst][li].Trans = append(ranks[op.Dst][li].Trans, int32(x))
			}
		}
	}
	return ranks
}

// StructureFingerprint identifies the weights-independent structure of
// a sparse solve: it is the cache key under which Plans are reused.
// Two solves share a fingerprint iff they have the same vertex count,
// the same structural edge set (weights excluded), the same ND seed
// and machine size, and the same plan-shaping options — which, because
// nested dissection, the eTree and the fill mask are all deterministic
// functions of exactly those inputs, means they share the ordering,
// eTree and fill mask, and therefore the entire symbolic schedule.
type StructureFingerprint [sha256.Size]byte

// String renders the fingerprint as lowercase hex.
func (f StructureFingerprint) String() string { return hex.EncodeToString(f[:]) }

// StructureFingerprintOf computes the plan cache key for solving g on
// p ranks with the given seed, wire format and R4 strategy. It costs
// O(m log m) — edge sorting — and touches no weights, so graphs that
// differ only in weights (the weight-update serving workload) map to
// the same Plan.
func StructureFingerprintOf(g *graph.Graph, p int, seed int64, wire WireFormat, r4 R4Strategy) StructureFingerprint {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(g.N()))
	for _, e := range g.Edges() {
		put(uint64(e.U))
		put(uint64(e.V))
	}
	put(uint64(p))
	put(uint64(seed))
	put(uint64(wire))
	put(uint64(r4))
	var f StructureFingerprint
	h.Sum(f[:0])
	return f
}

// PlanCache retains built Plans keyed by StructureFingerprint so
// repeated solves on one topology pay the symbolic cost (nested
// dissection, eTree, fill mask, schedule enumeration) exactly once. It
// is safe for concurrent use; a warm hit returns the shared immutable
// Plan with zero symbolic work. There is no eviction: a Plan is a few
// schedule tables, orders of magnitude smaller than the n² distance
// matrices the oracle registry already budgets.
//
// A cache created with NewPlanCacheAt additionally fronts a disk
// PlanStore: memory misses fall through to disk (DiskHits — still zero
// symbolic work), and fresh builds are persisted (DiskWrites), so the
// symbolic cost of a structure is paid once per fleet lifetime, not
// once per process.
type PlanCache struct {
	mu         sync.Mutex
	plans      map[StructureFingerprint]*Plan
	store      *PlanStore // nil for a memory-only cache
	builds     int64
	hits       int64
	diskHits   int64
	diskWrites int64
	diskErrors int64
	buildNanos int64
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{plans: make(map[StructureFingerprint]*Plan)}
}

func (c *PlanCache) lookup(fp StructureFingerprint) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pl, ok := c.plans[fp]
	if ok {
		c.hits++
		return pl, true
	}
	if c.store == nil {
		return nil, false
	}
	// Disk fallthrough, performed under the lock: it is the cold path
	// (at most once per structure per process), and holding the lock
	// keeps racing lookups from decoding the same file twice. A load
	// failure of any kind degrades to a miss — the caller rebuilds.
	pl, ok, err := c.store.Load(fp)
	if err != nil {
		c.diskErrors++
		return nil, false
	}
	if !ok {
		return nil, false
	}
	c.plans[fp] = pl
	c.diskHits++
	return pl, true
}

// Peek returns the cached plan for fp without counting a hit —
// introspection for stats/experiment code, never the solve path.
func (c *PlanCache) Peek(fp StructureFingerprint) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pl, ok := c.plans[fp]
	return pl, ok
}

// store records a freshly built plan (and the nanoseconds the symbolic
// phase took). Two racing builders of the same structure both count as
// builds; the last stored plan wins, which is harmless because builds
// are deterministic.
func (c *PlanCache) put(fp StructureFingerprint, pl *Plan, nanos int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans[fp] = pl
	c.builds++
	c.buildNanos += nanos
	if c.store != nil {
		if err := c.store.Save(fp, pl); err != nil {
			c.diskErrors++
		} else {
			c.diskWrites++
		}
	}
}

// PlanCacheStats is a snapshot of a cache's counters. Hits counts
// solves that skipped the symbolic phase entirely; BuildNanos is the
// total wall-clock the symbolic phase has cost so far. The Disk
// counters stay zero for a memory-only cache: DiskHits are memory
// misses satisfied by decoding a persisted plan (also zero symbolic
// work — a disk hit is NOT a build), DiskWrites are fresh builds
// persisted, DiskErrors are load/save failures that degraded to
// memory-only behavior.
type PlanCacheStats struct {
	Builds     int64
	Hits       int64
	DiskHits   int64
	DiskWrites int64
	DiskErrors int64
	Entries    int
	BuildNanos int64
}

// Stats returns the cache counters at this instant.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Builds: c.builds, Hits: c.hits,
		DiskHits: c.diskHits, DiskWrites: c.diskWrites, DiskErrors: c.diskErrors,
		Entries: len(c.plans), BuildNanos: c.buildNanos,
	}
}
