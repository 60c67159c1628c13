package apsp

import (
	"fmt"

	"sparseapsp/internal/etree"
)

// planValidator checks every op of a plan against its header before
// anything indexes by it — indexRanks, the lowering and the executors
// take the op table as given. DecodePlan runs it on every plan it reads,
// and BuildPlan on every plan it builds (Plan.validate), so a placement
// change that builds an unrunnable plan fails where it is built. It
// checks what they assume: every group is a set of ranks holding its
// root (a broadcast's at position 0) and consumers, and every
// broadcast's Parent is a tree over it; every op
// but a unit is rooted at the owner of the block it ships or updates,
// and a seq or transpose source at the owner of the block it sends; an
// R2 pivot or an R3 panel reaches only ranks in its column or row; a
// rank's R4 and R3 captures pair up into operands of matching
// dimensions; on the pruned wire no R3 panel reaches the mirror of a
// sink block (sinkMirror), whose owned orientation alone folds it; and
// every prune descriptor is canonical and, down a broadcast's tree,
// never wider than its parent's (prunes). It does not prove the schedule
// complete — a dropped op still decodes, which the content hash guards
// against.
type planValidator struct {
	caller  string // the function whose errors it reports
	p, nsup int
	sizes   []int
	tr      *etree.Tree
	pruned  bool
	// member[r] == epoch marks rank r as a member of the group under
	// validation; bumping epoch clears the set.
	member []int
	epoch  int
	// Per rank, the level's unit and, per capturing kind, the panel it
	// captures (op indices, -1 none).
	unit []int
	held [numOpKinds][]int
}

// capturing lists the broadcast kinds whose consumers keep the payload
// for a later step.
var capturing = [...]uint8{opR4Aik, opR4Akj, opR3Row, opR3Col}

// newPlanValidator validates plans of p ranks over nsup supernodes of
// the given sizes, reporting its errors in caller's name.
func newPlanValidator(caller string, p, nsup int, sizes []int, tr *etree.Tree, pruned bool) *planValidator {
	v := &planValidator{caller: caller, p: p, nsup: nsup, sizes: sizes, tr: tr, pruned: pruned,
		member: make([]int, p), unit: make([]int, p)}
	for _, k := range capturing {
		v.held[k] = make([]int, p)
	}
	return v
}

// validate checks every level of pl as DecodePlan checks a plan it reads.
func (pl *Plan) validate() error {
	v := newPlanValidator("BuildPlan", pl.P, pl.NSup, pl.ND.Sizes, pl.Tree, pl.Wire == WirePruned)
	for li, ops := range pl.Levels {
		if err := v.level(li+1, ops); err != nil {
			return err
		}
	}
	return nil
}

func (v *planValidator) errorf(format string, args ...any) error {
	return fmt.Errorf("apsp: "+v.caller+": "+format, args...)
}

func (v *planValidator) rank(r int) bool  { return r >= 0 && r < v.p }
func (v *planValidator) block(b int) bool { return b >= 1 && b <= v.nsup }

// owner is the rank of block (i, j).
func (v *planValidator) owner(i, j int) int { return (i-1)*v.nsup + j - 1 }

// reaches reports whether broadcast op may hand its payload to rank c:
// an R2 pivot updates, and an R3 panel combines into, the consumer's own
// block, so it travels down its column or along its row.
func (v *planValidator) reaches(op *Op, c int) bool {
	switch op.Kind {
	case opR2Left, opR3Col:
		return c%v.nsup+1 == op.BJ
	case opR2Right, opR3Row:
		return c/v.nsup+1 == op.BI
	}
	return true
}

// group validates a member list as a set — in range, non-empty,
// pairwise distinct — and leaves it marked for inGroup. A broadcast's
// tree is the plan's choice (place.go), and tree checks only that it is
// one; a repeated or missing member, though, panics in comm's groupPos
// or deadlocks the replay.
func (v *planValidator) group(group []int) error {
	v.epoch++
	for _, g := range group {
		if !v.rank(g) || v.member[g] == v.epoch {
			return v.errorf("group %v lists rank %d twice or outside [0,%d)", group, g, v.p)
		}
		v.member[g] = v.epoch
	}
	return nil
}

func (v *planValidator) inGroup(r int) bool { return v.rank(r) && v.member[r] == v.epoch }

// tree validates a broadcast's Parent list — one entry per member, -1
// for the root and a mirror holder (which level checks), an earlier
// position for every other member — which is what appendMessages and
// comm.Ctx.BcastTree take as given; every other kind carries none.
func (v *planValidator) tree(op *Op) error {
	name := dfKindNames[op.Kind]
	if !isBcast(op.Kind) {
		if op.Parent != nil {
			return v.errorf("%s op carries a broadcast tree", name)
		}
		return nil
	}
	if len(op.Parent) != len(op.Group) || op.Parent[0] != -1 {
		return v.errorf("%s tree %v does not root %d members at position 0", name, op.Parent, len(op.Group))
	}
	for i, up := range op.Parent[1:] {
		switch {
		case up == -1:
		case up < 0 || int(up) >= len(op.Group):
			return v.errorf("%s member at position %d has parent %d out of range", name, i+1, up)
		case int(up) > i:
			return v.errorf("%s member at position %d has parent %d, not an earlier position", name, i+1, up)
		}
	}
	return nil
}

// pruneAxis validates one axis of a PruneSpec against the block
// dimension it indexes: ascending, in range, no duplicates — what the
// executor's pack path assumes — and canonical: a list keeping every
// index is written nil.
func (v *planValidator) pruneAxis(axis []int32, dim int) error {
	if axis != nil && len(axis) == dim {
		return v.errorf("prune axis keeps all %d indices but is not nil", dim)
	}
	prev := int32(-1)
	for _, x := range axis {
		if x <= prev || int(x) >= dim {
			return v.errorf("prune index %d invalid for dimension %d", x, dim)
		}
		prev = x
	}
	return nil
}

// prunes validates an op's descriptors: one per payload part or none, in
// canonical form over the block each part ships, and on a broadcast the
// invariant a relay depends on — it can forward only what it received —
// so no position's descriptor keeps an entry its parent's drops, and the
// op carries one ZeroDiag value.
func (v *planValidator) prunes(op *Op) error {
	name := dfKindNames[op.Kind]
	parts := 0
	switch {
	case isBcast(op.Kind):
		parts = len(op.Group)
	case op.Kind == opSeq:
		parts = 2
	}
	if len(op.Prune) != 0 && len(op.Prune) != parts {
		return v.errorf("%s op carries %d prune descriptors", name, len(op.Prune))
	}
	for part, spec := range op.Prune {
		if spec != nil && spec.Rows == nil && spec.Cols == nil && !spec.ZeroDiag {
			return v.errorf("%s op's prune descriptor %d is full but not nil", name, part)
		}
		if spec != nil {
			bi, bj := op.payload(part)
			if err := firstErr(v.pruneAxis(spec.Rows, v.sizes[bi]), v.pruneAxis(spec.Cols, v.sizes[bj])); err != nil {
				return err
			}
		}
		switch {
		case !isBcast(op.Kind):
		case zeroDiag(spec) != zeroDiag(op.Prune[0]):
			return v.errorf("%s op mixes ZeroDiag values", name)
		case part > 0 && !covers(op.Prune[max(op.Parent[part], 0)], spec):
			return v.errorf("%s position %d keeps entries its parent's payload drops", name, part)
		}
	}
	return nil
}

func zeroDiag(spec *PruneSpec) bool { return spec != nil && spec.ZeroDiag }

// covers reports whether descriptor outer keeps every entry inner keeps.
// A nil descriptor or axis is full: it covers anything and is covered
// only by full.
func covers(outer, inner *PruneSpec) bool {
	if outer == nil {
		return true
	}
	if inner == nil {
		return outer.Rows == nil && outer.Cols == nil
	}
	return axisCovers(outer.Rows, inner.Rows) && axisCovers(outer.Cols, inner.Cols)
}

// axisCovers is covers on one ascending keep-list.
func axisCovers(outer, inner []int32) bool {
	if outer == nil {
		return true
	}
	if inner == nil {
		return false
	}
	j := 0
	for _, x := range inner {
		for j < len(outer) && outer[j] < x {
			j++
		}
		if j == len(outer) || outer[j] != x {
			return false
		}
	}
	return true
}

// op validates one op record; the kind list in plan.go says which
// fields each kind uses, and an unused field must be zero or empty.
func (v *planValidator) op(op *Op) error {
	name := dfKindNames[op.Kind]
	if !v.block(op.BI) || !v.block(op.BJ) || !v.rank(op.Root) {
		return v.errorf("%s op on block (%d,%d) at rank %d out of range", name, op.BI, op.BJ, op.Root)
	}
	if pivot := op.Kind == opUnit || op.Kind == opSeq; pivot && !v.block(op.K) || !pivot && op.K != 0 {
		return v.errorf("%s op with pivot %d", name, op.K)
	}
	switch members := len(op.Group); {
	case (isBcast(op.Kind) || op.Kind == opReduce) && members > 0:
	case op.Kind == opSeq && members == 2, op.Kind == opTrans && members == 1:
	case members == 0 && (op.Kind == opDiag || op.Kind == opUnit):
	default:
		return v.errorf("%s op with %d group members", name, members)
	}
	if op.Group != nil {
		if err := v.group(op.Group); err != nil {
			return err
		}
	}
	owner := v.owner(op.BI, op.BJ)
	switch {
	case (op.Kind == opDiag || op.Kind == opR2Left || op.Kind == opR2Right) && op.BI != op.BJ:
		return v.errorf("%s op on off-diagonal block (%d,%d)", name, op.BI, op.BJ)
	case op.Kind == opTrans && (op.BI == op.BJ || op.Group[0] != owner || op.Root != v.owner(op.BJ, op.BI)):
		return v.errorf("transpose of (%d,%d) from rank %d to rank %d", op.BI, op.BJ, op.Group[0], op.Root)
	case op.Kind == opSeq && (op.Group[0] != v.owner(op.BI, op.K) || op.Group[1] != v.owner(op.K, op.BJ)):
		return v.errorf("seq op over (%d,%d) via %d from ranks %v", op.BI, op.BJ, op.K, op.Group)
	case op.Kind != opUnit && op.Kind != opTrans && op.Root != owner:
		return v.errorf("%s op on block (%d,%d) rooted at rank %d, not its owner", name, op.BI, op.BJ, op.Root)
	case isBcast(op.Kind) && op.Group[0] != op.Root:
		return v.errorf("%s root %d is not at position 0 of its group", name, op.Root)
	case !isBcast(op.Kind) && op.Consumers != nil:
		return v.errorf("%s op lists consumers", name)
	}
	if err := v.tree(op); err != nil {
		return err
	}
	for _, c := range op.Consumers {
		if !v.inGroup(c) || !v.reaches(op, c) {
			return v.errorf("%s consumer %d is outside its group or its block's row or column", name, c)
		}
	}
	return v.prunes(op)
}

// level validates level l's op table: every op, the phase order, the
// captures — at most one panel of each capturing kind per rank, on the
// pruned wire no R3 panel at the mirror of a level-l sink block, the R3
// row and column panels a rank combines meet at one pivot, and a
// diagonal block's rank that captures an R3 panel captures the row
// panel, which its combine mirrors if it has no column panel — and the
// R4 products: at most one unit per rank, handed the column panel that
// is its left operand and, unless it computes a diagonal block (whose
// right operand is that panel's mirror), the row panel too, and every
// reduce member hosts a unit over the reduced block.
func (v *planValidator) level(l int, ops []Op) error {
	for r := range v.unit {
		v.unit[r] = -1
		for _, k := range capturing {
			v.held[k][r] = -1
		}
	}
	for x := range ops {
		op := &ops[x]
		if err := v.op(op); err != nil {
			return err
		}
		if x > 0 && opPhase[op.Kind] < opPhase[ops[x-1].Kind] {
			return v.errorf("%s op after a %s op", dfKindNames[op.Kind], dfKindNames[ops[x-1].Kind])
		}
		for p := range op.Group {
			if op.holdsMirror(p) {
				if err := v.holder(op, p, ops[:x]); err != nil {
					return err
				}
			}
		}
		switch held := v.held[op.Kind]; {
		case op.Kind == opUnit:
			if v.unit[op.Root] >= 0 {
				return v.errorf("unit processor %d assigned twice", op.Root)
			}
			v.unit[op.Root] = x
		case held != nil:
			for _, c := range op.Consumers {
				if held[c] >= 0 {
					return v.errorf("rank %d captures two %s panels of one kind", c, dfKindNames[op.Kind])
				}
				held[c] = x
				r3 := op.Kind == opR3Row || op.Kind == opR3Col
				if i, j := blockOf(c, v.nsup); r3 && v.pruned && sinkMirror(v.tr, l, i, j) {
					return v.errorf("R3 panel reaches rank %d, the mirror of sink block (%d,%d) at level %d", c, j, i, l)
				}
			}
		}
	}
	for r := range v.unit {
		row, col := v.held[opR3Row][r], v.held[opR3Col][r]
		if row >= 0 && col >= 0 && ops[row].BJ != ops[col].BI {
			return v.errorf("rank %d combines R3 panels of pivots %d and %d", r, ops[row].BJ, ops[col].BI)
		}
		if i, j := blockOf(r, v.nsup); i == j && col >= 0 && row < 0 {
			return v.errorf("diagonal rank %d combines an R3 column panel without its row panel", r)
		}
	}
	for x := range ops {
		switch op := &ops[x]; op.Kind {
		case opUnit:
			a, b := v.held[opR4Aik][op.Root], v.held[opR4Akj][op.Root]
			mirrored := b < 0 && op.BI == op.BJ
			if a < 0 || ops[a].BI != op.BI || ops[a].BJ != op.K || !mirrored && (b < 0 || ops[b].BI != op.K || ops[b].BJ != op.BJ) {
				return v.errorf("unit on rank %d is not handed its operand panels", op.Root)
			}
		case opReduce:
			for _, r := range op.Group {
				if u := v.unit[r]; u < 0 || ops[u].BI != op.BI || ops[u].BJ != op.BJ {
					return v.errorf("reduce member %d hosts no unit over (%d,%d)", r, op.BI, op.BJ)
				}
			}
		}
	}
	return nil
}

// holder validates the mirror holder at position p of broadcast op, a
// member with no parent: on the pruned wire, either the owner of the
// payload's mirror (mirrorOwner) or a consumer of the level's earlier
// broadcast of that mirror whose descriptor there covers what its subtree
// here is sent (capturesMirror).
func (v *planValidator) holder(op *Op, p int, earlier []Op) error {
	r, name := op.Group[p], dfKindNames[op.Kind]
	switch owner := mirrorOwner(op, v.nsup); {
	case !v.pruned || owner < 0:
		return v.errorf("%s member at position %d has no parent", name, p)
	case r == owner:
		return nil
	}
	for y := len(earlier) - 1; y >= 0; y-- {
		if pair := &earlier[y]; pair.Kind == mirrorPair(op.Kind) && pair.BI == op.BJ && pair.BJ == op.BI {
			if capturesMirror(pair, op, r, op.prune(p)) {
				return nil
			}
			break
		}
	}
	return v.errorf("%s mirror holder %d at position %d holds no slice of (%d,%d) covering its subtree", name, r, p, op.BJ, op.BI)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
