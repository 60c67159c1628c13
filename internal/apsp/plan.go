package apsp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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
// — every collective's group and root, every panel update and
// computing-unit assignment, the mask-derived skip set — built once
// from (Layout, p, wire, strategy) and replayed by ExecuteOpts
// (dataflow.go) against any weights with the same structure. Supernodal
// sparse factorization calls these the symbolic and numeric phases;
// the serving layer exploits the split by caching Plans under a
// weights-independent StructureFingerprint so N solves on one topology
// pay the symbolic cost once.
//
// The schedule is one op table: per level, one list of Op records in
// execution order. Everything that needs to know what an op means reads
// the record through three definitions — appendMessages (the messages
// an op sends), the rankState steps of exec.go (what a participant does
// with a payload) and the per-rank program indexRanks derives — so the
// executors, the lowering, the placement and demand sweeps, the codec
// and the hash cannot disagree about it.

// Op kinds, declared in execution order: a level lists its ops sorted by
// opPhase, so every rank meets R1, R2, R4 (panels, units, then reduces
// or the sequential sends), the transposes and R3 last. R3 and R4 both
// depend on R2 alone and touch disjoint blocks, so the long R4 chain
// starts first and the wide R3 fan-out overlaps it (DESIGN.md §3).
const (
	opDiag    uint8 = iota // R1: Root runs ClassicalFW on its diagonal block (BI, BI)
	opR2Left               // R2 pivot D = A(BI,BI) down its column: consumers run A ⊕= A ⊗ D
	opR2Right              // R2 pivot along its row: consumers run A ⊕= D ⊗ A
	opR4Aik                // R4 column panel A(BI,BJ): consumers capture their unit's left operand
	opR4Akj                // R4 row panel A(BI,BJ): consumers capture their unit's right operand
	opUnit                 // R4 unit product A(BI,K) ⊗ A(K,BJ) on processor Root (Corollary 5.5)
	opReduce               // R4 binomial reduce of the units of (BI,BJ) into Root
	opSeq                  // R4 sequential ablation: Group sends A(BI,K) and A(K,BJ), Root folds the product
	opTrans                // Algorithm 1 line 25: Group[0] sends (BI,BJ), Root stores its transpose
	opR3Row                // R3 row broadcast of A(BI,BJ): consumers capture their row panel
	opR3Col                // R3 column broadcast of A(BI,BJ): consumers capture their column panel

	// Glue steps of a rank's program, never in an op list.
	kindR4Release // drop the unit and its operands after the rank's last R4 step
	kindR3Combine // multiply the captured R3 panels into the owned block, drop them
	kindInit      // register the owned block's memory: each rank's first step
	kindMark      // close a level (the per-level phase costs)
	numKinds
)

const numOpKinds = kindR4Release

// opPhase is the order of the kinds within a level; the kinds of one
// phase interleave.
var opPhase = [numOpKinds]uint8{0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 8}

// opSendClass labels the words each kind sends in the report.
var opSendClass = [numOpKinds]comm.SendClass{
	opR2Left: comm.SendR2, opR2Right: comm.SendR2,
	opR4Aik: comm.SendR4Panel, opR4Akj: comm.SendR4Panel,
	opReduce: comm.SendR4Reduce, opSeq: comm.SendR4Seq, opTrans: comm.SendTrans,
	opR3Row: comm.SendR3, opR3Col: comm.SendR3,
}

func isBcast(kind uint8) bool {
	switch kind {
	case opR2Left, opR2Right, opR4Aik, opR4Akj, opR3Row, opR3Col:
		return true
	}
	return false
}

// Op is one planned operation: a collective, a point-to-point exchange
// or a local product; the kind list says which fields it uses. A
// broadcast is a set plus a chosen tree: the set is who needs the
// payload; Group lists it in the order the members receive, Root first,
// and Parent names the position each member receives from. A member sends
// to its children in position order, so the tree — who relays, to whom,
// in which order — decides the charged critical path. placeTrees
// (place.go) chooses it. Members outside Consumers only relay, which
// beyond the root happens in R2 pivot groups and, on the pruned wire, in
// an R4 panel group whose unit processor lost its unit to dropDead but
// relays the panel on (dead.go). On the pruned wire a
// broadcast of A(BI,BJ) may also list mirror holders, with Parent -1:
// ranks that already hold A(BJ,BI) = A(BI,BJ)ᵀ — its owner, or a consumer
// of the level's earlier broadcast of it (mirrorOwner, capturesMirror).
// A holder receives nothing and sends its children slices of what it
// holds, transposed (Plan.mirrorHeld).
type Op struct {
	Kind      uint8
	BI, BJ    int     // the block the op ships, reduces into or updates
	K         int     // unit and seq: the pivot of A(BI,K) ⊗ A(K,BJ); 0 otherwise
	Root      int     // broadcast root; reduce, seq and transpose destination; diag and unit rank
	Group     []int   // broadcast members in receive order, Root first; reduce members; seq: the owners of A(BI,K), A(K,BJ); transpose: the source
	Parent    []int32 // broadcast: Group[i] receives from Group[Parent[i]]; Parent[0] = -1, else Parent[i] < i or -1 for a mirror holder; nil for the other kinds
	Consumers []int   // the broadcast members that act on the payload
	// Prune holds the symbolic demand descriptors of the op's payloads,
	// one per message part (msg.part). A broadcast has one per position:
	// the message into Group[i] carries Prune[i], the demand of the
	// subtree rooted at position i, so Prune[0] is the whole group's — what
	// a consuming root keeps — and a child's never exceeds its parent's. A
	// seq op has A(BI,K)'s and A(K,BJ)'s. A nil entry is full, every entry
	// demanded; the list is nil under WireDense and for the other kinds;
	// see demand.go.
	Prune []*PruneSpec
}

// prune returns the descriptor of the op's part-th payload: nil (full)
// when the op carries none.
func (op *Op) prune(part int) *PruneSpec {
	if part < len(op.Prune) {
		return op.Prune[part]
	}
	return nil
}

// payload returns the block the op's part-th payload carries: A(BI,K)
// and A(K,BJ) for a seq op, (BI, BJ) for every other kind.
func (op *Op) payload(part int) (int, int) {
	switch {
	case op.Kind != opSeq:
		return op.BI, op.BJ
	case part == 0:
		return op.BI, op.K
	}
	return op.K, op.BJ
}

// mirrorOwner returns the rank owning the mirror of the block broadcast
// op ships, which may serve the broadcast as a holder (Op), or -1 when op
// takes none: the R4 and R3 panel broadcasts do, whose mirror A(BJ,BI)
// its owner holds, current, from the level's R2 step on — R4 writes
// blocks with both coordinates above the level, R3 blocks with neither
// at it. An R2 pivot is its own mirror, owned by the root.
func mirrorOwner(op *Op, nsup int) int {
	switch op.Kind {
	case opR2Right, opR4Aik, opR4Akj, opR3Row, opR3Col:
		return (op.BJ-1)*nsup + op.BI - 1
	}
	return -1
}

// prunedAxis is the axis a panel broadcast's descriptor spec keeps a
// list on: the columns of a left operand — an R2 row pivot, an R4 column
// panel, an R3 row panel — else the rows.
func prunedAxis(kind uint8, spec *PruneSpec) []int32 {
	switch {
	case spec == nil:
		return nil
	case kind == opR2Right || kind == opR4Aik || kind == opR3Row:
		return spec.Cols
	}
	return spec.Rows
}

// capturesMirror reports whether rank r, a consumer of pair — the
// broadcast of A(j,k) that the level runs before later's of A(k,j) —
// decoded every index of A(k,j) = A(j,k)ᵀ that spec keeps on later's
// pruned axis: the slice of A(j,k) it kept on pair's.
func capturesMirror(pair, later *Op, r int, spec *PruneSpec) bool {
	return contains(pair.Consumers, r) &&
		axisCovers(prunedAxis(pair.Kind, pair.prune(position(pair.Group, r))), prunedAxis(later.Kind, spec))
}

// mirrorPair is the kind of the broadcast of a payload's mirror that the
// level runs before a broadcast of kind, whose consumers may hold it; 0
// for none.
func mirrorPair(kind uint8) uint8 {
	switch kind {
	case opR2Right:
		return opR2Left
	case opR4Akj:
		return opR4Aik
	case opR3Col:
		return opR3Row
	}
	return 0
}

// holdsMirror reports whether broadcast position i is a mirror holder.
func (op *Op) holdsMirror(i int) bool { return i > 0 && i < len(op.Parent) && op.Parent[i] < 0 }

// msg is one point-to-point message of an op: src sends the op's
// part-th payload to dst. A broadcast's part is the receiver's position,
// whose subtree demand (Op.Prune) the message carries.
type msg struct{ src, dst, part int }

// appendMessages appends the messages of op to buf, in an order that
// meets every rank's messages in the rank's program order. A broadcast is
// comm.Ctx.BcastTree's: one message into each member but the root, from
// its parent, in position order — so a member receives before it sends
// and sends to its children in position order. A reduce is
// comm.Ctx.ReduceTo's: a binomial reduce to the root if it is a member,
// else to group[0], which forwards the result; a member receives at
// increasing bit distances before its one send. Seq and transpose ops
// send member i's part i to the root, except from a member that is the
// root. Diag and unit ops send nothing. The lowering wires the dataflow
// graph from this and the placement replays its clocks over it; the
// machine reference runs comm's own collectives, so the executor-equality
// suites check this expansion.
func appendMessages(buf []msg, op *Op) []msg {
	group, root := op.Group, op.Root
	q := len(group)
	switch kind := op.Kind; {
	case isBcast(kind):
		for i := 1; i < q; i++ {
			if !op.holdsMirror(i) {
				buf = append(buf, msg{group[op.Parent[i]], group[i], i})
			}
		}
	case kind == opReduce && q > 0: // dropDead empties a reduce before it goes
		rootPos := max(position(group, root), 0)
		for mask := 1; mask < q; mask <<= 1 {
			for rel := mask; rel < q; rel += 2 * mask {
				buf = append(buf, msg{group[(rel+rootPos)%q], group[(rel-mask+rootPos)%q], 0})
			}
		}
		if group[rootPos] != root {
			buf = append(buf, msg{group[0], root, 0})
		}
	case kind == opSeq || kind == opTrans:
		for i, r := range group {
			if r != root {
				buf = append(buf, msg{r, root, i})
			}
		}
	}
	return buf
}

// position returns the index of x in list, or -1.
func position(list []int, x int) int {
	for i, v := range list {
		if v == x {
			return i
		}
	}
	return -1
}

func contains(list []int, x int) bool { return position(list, x) >= 0 }

// step is one entry of a rank's program: its part in one op, or a glue
// step between ops. Both executors and the lowering walk a rank's steps
// in order, so no execute scans an op to find the rank's role in it.
type step struct {
	level int32 // index into Plan.Levels; -1 for kindInit
	op    int32 // index into the level's ops; kindR3Combine: the row panel the rank captured (-1 none)
	kind  uint8 // the op's kind or a glue kind
	use   bool  // the rank consumes the broadcast, or is a reduce, seq or transpose member; kindR3Combine: the column panel is the row panel's mirror
}

// Plan is the immutable symbolic artifact: everything about a
// 2D-SPARSE-APSP solve that does not depend on edge weights. It holds
// the ordering (ND result), eTree and fill mask it was derived from,
// the per-level op table and every rank's program over it. Build once
// with BuildPlan, replay any number of times with ExecuteOpts; plans
// are safe for concurrent use by many solves.
type Plan struct {
	P     int
	H     int
	NSup  int // supernodes, 2^H − 1
	Wire  WireFormat
	R4Seq bool

	ND   *partition.Result
	Tree *etree.Tree
	Fill *FillMask

	Levels [][]Op   // per eTree level, the ops in execution order
	ranks  [][]step // per rank, its program over every level

	sum  [sha256.Size]byte // lazily computed content hash
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
	for _, ops := range p.Levels {
		n += len(ops)
	}
	return n
}

// Hash returns a content hash of the full symbolic schedule: the sha256
// of the plan's encoded body (planio.go). Every rank — indeed every
// process — deriving a Plan from the same (graph structure, p, seed,
// options) must produce the same hash; the cross-rank determinism test
// pins this, because a single diverging broadcast tree would deadlock or
// silently mis-cost a real machine.
func (p *Plan) Hash() string {
	sum := p.digest()
	return hex.EncodeToString(sum[:])
}

func (p *Plan) digest() [sha256.Size]byte {
	p.once.Do(func() { p.sum = sha256.Sum256(p.appendBody(nil)) })
	return p.sum
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
// then chooses the tree of every broadcast from a replay
// of the model's clocks over that schedule (placeTrees, place.go), which
// on the pruned wire also takes out every fold the demand sweep proves
// the identity (dropDead, dead.go). It checks the plan it built as
// DecodePlan checks one it reads (planValidator), and returns an error
// rather than a plan that cannot run.
// The resulting Plan executed against ly's weights yields distances
// bit-identical to the pre-split solver and the charged costs the
// golden cost test pins.
func BuildPlan(ly *Layout, p int, wire WireFormat, r4 R4Strategy) (*Plan, error) {
	pl, sends, err := buildLabelOrder(ly, p, wire, r4)
	if err != nil {
		return nil, err
	}
	placeTrees(pl, sends)
	if err := pl.validate(); err != nil {
		return nil, err
	}
	pl.ranks = indexRanks(pl)
	return pl, nil
}

// buildLabelOrder is BuildPlan up to the tree placement: every op is
// planned and every payload rectangle frozen, each broadcast is still
// the binomial tree over its members in eTree label order (labelTree)
// with every edge carrying the whole group's payload, and the per-rank
// programs are not built yet. It also returns what the demand sweep
// knows of every sending op (nil under WireDense): what each member of a
// broadcast demands, from which placeTrees freezes the per-edge
// descriptors of the trees it chooses, and each payload's mask, at which
// it prices them.
func buildLabelOrder(ly *Layout, p int, wire WireFormat, r4 R4Strategy) (*Plan, map[*Op]*sendDemand, error) {
	h, err := HeightForP(p)
	if err != nil {
		return nil, nil, err
	}
	if ly.Tree.H != h {
		return nil, nil, fmt.Errorf("apsp: layout has tree height %d, machine p=%d needs %d", ly.Tree.H, p, h)
	}
	if !wire.valid() {
		return nil, nil, fmt.Errorf("apsp: unknown wire format %v (valid: pruned, dense)", wire)
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
		ops, err := b.level(l, pl.R4Seq)
		if err != nil {
			return nil, nil, err
		}
		for x := range ops {
			if isBcast(ops[x].Kind) {
				labelTree(&ops[x])
			}
		}
		pl.Levels = append(pl.Levels, ops)
	}
	if wire == WireDense {
		return pl, nil, nil
	}
	// Demand sweep (demand.go): bake the per-op prune descriptors into
	// the schedule. Purely symbolic — warm solves and repairs replay the
	// frozen descriptors at zero per-solve cost.
	return pl, attachPrunes(pl, ly), nil
}

// planBuilder carries the symbolic state of one BuildPlan run.
type planBuilder struct {
	tr    *etree.Tree
	sizes []int
	mask  *FillMask
	wire  WireFormat
	grid  comm.Grid
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

// appendBcast plans op unless nobody folds its payload: a broadcast
// without a consumer would only charge its hops (a full panel under
// WireDense), so it gets no place in the schedule.
func appendBcast(ops []Op, op Op) []Op {
	if len(op.Consumers) == 0 {
		return ops
	}
	return append(ops, op)
}

// labelTree turns a broadcast group listed in eTree label order into
// comm.Ctx.Bcast's binomial tree over that order, rooted at op.Root:
// the tree placeTrees starts from, never what a built plan replays.
func labelTree(op *Op) {
	q := len(op.Group)
	rootPos := position(op.Group, op.Root)
	order, parent := comm.BinomialTree(q)
	group := make([]int, q)
	for i, rel := range order {
		group[i] = op.Group[(int(rel)+rootPos)%q]
	}
	op.Group, op.Parent = group, parent
}

// level plans the ops of eTree level l in execution order. Each group
// lists its members in eTree label order; buildLabelOrder makes each
// broadcast's the binomial tree over that order.
func (b *planBuilder) level(l int, r4seq bool) ([]Op, error) {
	tr := b.tr
	var ops []Op

	// R_l^1: the diagonal owners of level l run ClassicalFW locally
	// (empty pivots too — a 0×0 update charges nothing, matching the
	// fused solver).
	for _, k := range tr.LevelNodes(l) {
		ops = append(ops, Op{Kind: opDiag, BI: k, BJ: k, Root: b.rank(k, k)})
	}

	// R_l^2: pivot broadcasts down the pivot column and row, planned for
	// every active pivot over its whole related set — the consumers are
	// the panels the mask lets fill, the other members relay. On the
	// pruned wire dropDead (dead.go) later takes out every consumer whose
	// update the pivot's entries prove the identity, the members left
	// relaying to no one, and a pivot whose consumers all go; one planned
	// with no consumer stays.
	for _, k := range tr.LevelNodes(l) {
		if !b.active(k) {
			continue
		}
		col := Op{Kind: opR2Left, BI: k, BJ: k, Root: b.rank(k, k)}
		row := Op{Kind: opR2Right, BI: k, BJ: k, Root: b.rank(k, k)}
		for _, x := range tr.RelatedSet(k) {
			col.Group = append(col.Group, b.rank(x, k))
			if x != k && b.mayFill(l, x, k) {
				col.Consumers = append(col.Consumers, b.rank(x, k))
			}
			row.Group = append(row.Group, b.rank(k, x))
			if x != k && b.mayFill(l, k, x) {
				row.Consumers = append(row.Consumers, b.rank(k, x))
			}
		}
		ops = append(ops, col, row)
	}

	// R_l^4 (absent at the root level, which has no ancestors), then the
	// transpose sends (line 25), shared by both strategies: a block the
	// mask proves still all-Inf after this level has an equally empty
	// mirror, so both sides skip the exchange.
	if l < tr.H {
		var err error
		if r4seq {
			ops = b.levelR4Sequential(l, ops)
		} else if ops, err = b.levelR4Mapped(l, ops); err != nil {
			return nil, err
		}
		for _, blk := range tr.R4Lower(l) {
			if blk.I == blk.J || b.sizes[blk.I] == 0 || b.sizes[blk.J] == 0 {
				continue
			}
			if !b.anyActiveUnit(l, blk.I) || !b.mayFill(l+1, blk.I, blk.J) {
				continue
			}
			ops = append(ops, Op{Kind: opTrans, BI: blk.I, BJ: blk.J,
				Root: b.rank(blk.J, blk.I), Group: []int{b.rank(blk.I, blk.J)}})
		}
	}

	// R_l^3: row broadcasts of the column panels A(i,k) along row i,
	// column broadcasts of the row panels A(k,j) down column j; the
	// unique-pivot blocks capture and multiply. A panel travels to the
	// processors that fold it and to nobody else: the group is the root
	// plus the consumers, and a panel nobody folds — one the mask proves
	// all-Inf, or any level-1 panel, since leaves have no descendants and
	// R_1^3 is empty — is not broadcast at all. On the pruned wire the
	// mirror of a sink block is not a consumer either (r3Folds).
	for _, k := range tr.LevelNodes(l) {
		if !b.active(k) {
			continue
		}
		rel := tr.RelatedSet(k)
		for _, i := range rel {
			if i == k || !b.mayFill(l, i, k) {
				continue
			}
			op := Op{Kind: opR3Row, BI: i, BJ: k, Root: b.rank(i, k)}
			for _, j := range rel {
				if b.r3Folds(l, i, j, k) {
					op.Group = append(op.Group, b.rank(i, j))
					op.Consumers = append(op.Consumers, b.rank(i, j))
				} else if j == k {
					op.Group = append(op.Group, op.Root)
				}
			}
			ops = appendBcast(ops, op)
		}
		for _, j := range rel {
			if j == k || !b.mayFill(l, k, j) {
				continue
			}
			op := Op{Kind: opR3Col, BI: k, BJ: j, Root: b.rank(k, j)}
			for _, i := range rel {
				if b.r3Folds(l, i, j, k) {
					op.Group = append(op.Group, b.rank(i, j))
					op.Consumers = append(op.Consumers, b.rank(i, j))
				} else if i == k {
					op.Group = append(op.Group, op.Root)
				}
			}
			ops = appendBcast(ops, op)
		}
	}
	return ops, nil
}

// levelR4Mapped plans the paper's strategy: panel broadcasts to the
// Corollary 5.5 unit processors, one unit product per processor, and a
// binomial reduce per block.
func (b *planBuilder) levelR4Mapped(l int, ops []Op) ([]Op, error) {
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
			op := Op{Kind: opR4Aik, BI: i, BJ: k, Root: b.rank(i, k)}
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
			ops = appendBcast(ops, op)
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
			op := Op{Kind: opR4Akj, BI: k, BJ: j, Root: b.rank(k, j)}
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
			ops = appendBcast(ops, op)
		}
	}
	// Unit products (line 21): a unit exists iff both its panels can be
	// finite — exactly when both broadcasts above were planned with its
	// processor as a consumer, so the executor's captured operands are
	// always present (a diagonal block's unit may later be left its
	// column panel alone, which it mirrors: dropMirrors, place.go).
	seen := make(map[int]bool)
	for _, u := range tr.UnitsForLevel(l) {
		if !b.active(u.K) || !b.mayFill(l, u.I, u.K) || !b.mayFill(l, u.K, u.J) {
			continue
		}
		r := b.grid.Rank(u.F-1, u.G-1)
		if seen[r] {
			return nil, fmt.Errorf("apsp: plan: unit processor P(%d,%d) assigned twice at level %d", u.F, u.G, l)
		}
		seen[r] = true
		ops = append(ops, Op{Kind: opUnit, BI: u.I, BJ: u.J, K: u.K, Root: r})
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
		if len(group) > 0 {
			ops = append(ops, Op{Kind: opReduce, BI: blk.I, BJ: blk.J, Root: b.rank(blk.I, blk.J), Group: group})
		}
	}
	return ops, nil
}

// levelR4Sequential plans the Section 5.2.2 "trivial strategy"
// ablation: the block owner receives both panels of every unit
// directly and folds locally — 2q serialized receives instead of the
// mapped O(log q).
func (b *planBuilder) levelR4Sequential(l int, ops []Op) []Op {
	for _, blk := range b.tr.R4Lower(l) {
		for _, k := range b.tr.UnitsFor(l, blk.I, blk.J) {
			if !b.active(k) || !b.mayFill(l, blk.I, k) || !b.mayFill(l, k, blk.J) {
				continue
			}
			ops = append(ops, Op{Kind: opSeq, BI: blk.I, BJ: blk.J, K: k, Root: b.rank(blk.I, blk.J),
				Group: []int{b.rank(blk.I, k), b.rank(k, blk.J)}})
		}
	}
	return ops
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

// r3Folds reports whether rank (i, j) folds the level-l R3 panels of
// pivot k: block (i, j) lies in R_l^3 under k and, on the pruned wire, is
// not the mirror of a sink (sinkMirror). The dense wire, Algorithm 1's
// own schedule, computes both orientations.
func (b *planBuilder) r3Folds(l, i, j, k int) bool {
	return b.r3Pivot(l, i, j) == k && (b.wire == WireDense || !sinkMirror(b.tr, l, i, j))
}

// sinkMirror reports whether block (i, j) is the mirror of a level-l
// sink: an off-diagonal pair whose coordinates both lie below level l.
// R3 writes such a pair at level l and no op after it reads the pair —
// every later level's R3 only writes it again, and the panels later
// levels read all have a coordinate at their own level or above — so only
// the final matrix sees it, and AssembleOriginal reads the orientation
// ownsBlock names.
func sinkMirror(tr *etree.Tree, l, i, j int) bool {
	return !ownsBlock(i, j) && tr.Level(i) < l && tr.Level(j) < l
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

// indexRanks builds every rank's program: its init step, then per level
// its part in each op in op-list order, the R4 release after its last
// R4 step if it holds an operand or a unit, the R3 combine after its
// last R3 step if it captured a panel — mirroring the row panel if the
// rank owns a diagonal block and captured no column panel — and the
// level's mark.
func indexRanks(pl *Plan) [][]step {
	ranks := make([][]step, pl.P)
	for r := range ranks {
		ranks[r] = []step{{level: -1, op: -1, kind: kindInit}}
	}
	held := make([]bool, pl.P)    // an R4 operand or unit is captured
	rowOp := make([]int32, pl.P)  // the R3 row panel captured, -1 none
	colHeld := make([]bool, pl.P) // the R3 column panel is captured
	uses := make([]int, pl.P)     // uses[r] == stamp: r consumes the broadcast at hand
	stamp := 0
	for li, ops := range pl.Levels {
		l := int32(li)
		add := func(r, x int, use bool) {
			ranks[r] = append(ranks[r], step{level: l, op: int32(x), kind: ops[x].Kind, use: use})
		}
		release := func() {
			for r := range held {
				if held[r] {
					ranks[r] = append(ranks[r], step{level: l, op: -1, kind: kindR4Release})
					held[r] = false
				}
			}
		}
		for r := range rowOp {
			rowOp[r], colHeld[r] = -1, false
		}
		r4open := true
		for x := range ops {
			op := &ops[x]
			if r4open && opPhase[op.Kind] > opPhase[opReduce] {
				release()
				r4open = false
			}
			switch {
			case op.Kind == opDiag || op.Kind == opUnit:
				add(op.Root, x, false)
				held[op.Root] = held[op.Root] || op.Kind == opUnit
			case isBcast(op.Kind):
				stamp++
				for _, c := range op.Consumers {
					uses[c] = stamp
				}
				for _, r := range op.Group {
					use := uses[r] == stamp
					add(r, x, use)
					switch {
					case !use:
					case op.Kind == opR4Aik || op.Kind == opR4Akj:
						held[r] = true
					case op.Kind == opR3Row && rowOp[r] < 0:
						rowOp[r] = int32(x)
					case op.Kind == opR3Col:
						colHeld[r] = true
					}
				}
			default: // reduce, seq, transpose: the members, then a root outside them
				for _, r := range op.Group {
					add(r, x, true)
				}
				if !contains(op.Group, op.Root) {
					add(op.Root, x, false)
				}
			}
		}
		if r4open {
			release()
		}
		for r := range ranks {
			if rowOp[r] >= 0 || colHeld[r] {
				i, j := blockOf(r, pl.NSup)
				mirrored := i == j && !colHeld[r]
				ranks[r] = append(ranks[r], step{level: l, op: rowOp[r], kind: kindR3Combine, use: mirrored})
			}
			ranks[r] = append(ranks[r], step{level: l, op: -1, kind: kindMark})
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
