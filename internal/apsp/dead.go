package apsp

import "slices"

// Dead work: the last pass of placeTrees on the pruned wire. Algorithm 1
// plans its R2, R3 and R4 groups from the block-level fill mask, but the
// demand sweep's entry masks prove that some planned folds cannot change
// a value: an R2 panel update against a pivot that, on everything the
// panel can reach, is the zero diagonal; an R3 product whose operands
// meet at no finite entry; and every product into a 1×1 diagonal block,
// whose one entry starts at 0, which no min-fold of non-negative sums
// lowers. The pass takes them out of the schedule with the receipts
// that only fed them (DESIGN.md §3 "Dead work", EXPERIMENTS.md E48).

// dropDead removes, from the plan the descent placed, every participant
// whose fold is provably the identity:
//
//   - an R2 consumer whose payload at its own demand, the zero diagonal
//     left out (packPrice), is the empty encoding;
//   - an R2 member that neither folds nor relays — unless the pivot was
//     planned with no consumer at all, which stays whole;
//   - an R3 rank (i, j) whose row panel is empty at its demand — its
//     demand is the column panel's finite rows, so the product is then
//     empty — or that is handed no row panel, or whose block is a 1×1
//     diagonal;
//   - a unit into a 1×1 diagonal block, with its processor's two panel
//     receipts; the block's reduce loses the member, and goes with the
//     last.
//
// A participant leaves a broadcast only as a leaf. A dead relay stays: an
// R3 rank keeps folding its panels, which then leave neither of the
// level's two R3 broadcasts, and a unit processor relays its panel on to
// the members below it and folds nothing. A mirror holder that serves
// stays, and so does the capture it serves from, with the unit that
// capture feeds. An op all of whose participants left goes. The drop is
// guarded like the mirror drop (drop). The demand sweep's masks do not
// change: every fold left out was the identity on them too.
func (pc *placer) dropDead() {
	dw := &deadWork{pc: pc, idle: make(map[*Op]bool), edited: make(map[*Op]bool),
		stuck: make([]uint8, pc.pl.P), rowOf: make([]*Op, pc.pl.P)}
	for c := range dw.dead {
		dw.dead[c] = make([]int8, pc.pl.P)
	}
	pc.drop(func(ops []Op) func(*Op, *sendDemand) bool {
		gone := dw.level(ops)
		return func(op *Op, _ *sendDemand) bool {
			switch {
			case op.Kind == opUnit:
				return !gone[op.Root]
			case op.Kind == opReduce:
				return len(op.Group) > 0
			case isBcast(op.Kind):
				return dw.idle[op] || len(op.Consumers) > 0
			}
			return true
		}
	})
}

// deadWork is one dropDead run's state; the rank-indexed slices are
// scratch, reset per level.
type deadWork struct {
	pc     *placer
	idle   map[*Op]bool // the pivots planned with no consumer, left whole
	edited map[*Op]bool // the ops the pass changed
	stuck  []uint8      // per rank, a bit per bundle it cannot leave
	dead   [3][]int8    // per R2 pivot, R2 row pivot and R3 bundle, per rank: 0 not known yet, 1 live, -1 dead
	rowOf  []*Op        // per R3 rank, the row panel it folds
}

// isDead memoizes fold's verdict on rank r's membership of a broadcast of
// kind, an R2 or R3 one.
func (dw *deadWork) isDead(kind uint8, r int, fold func() bool) bool {
	memo := dw.dead[bundle(kind)]
	if memo[r] == 0 {
		memo[r] = 1
		if fold() {
			memo[r] = -1
		}
	}
	return memo[r] < 0
}

// bundle numbers the bundle a membership of a broadcast of kind belongs
// to: the op itself for an R2 pivot — a rank is in at most one of each
// kind per level — the level's R3 panels, or its R4 panels.
func bundle(kind uint8) int {
	switch kind {
	case opR2Left:
		return 0
	case opR2Right:
		return 1
	case opR3Row, opR3Col:
		return 2
	}
	return 3
}

// level drops the dead work of one level's ops: the dead leaves of its
// broadcasts until none is left — a relay whose children all left is a
// leaf — and the members of its reduces whose unit goes. It returns, per
// rank, whether the rank's unit goes; such a rank still in an R4 panel's
// tree stays there as a relay that folds nothing.
func (dw *deadWork) level(ops []Op) (gone []bool) {
	pc, sizes := dw.pc, dw.pc.pl.ND.Sizes
	gone = make([]bool, pc.pl.P)
	for _, memo := range dw.dead {
		clear(memo)
	}
	clear(dw.rowOf)
	for x := range ops {
		switch op := &ops[x]; {
		case op.Kind == opUnit:
			gone[op.Root] = op.BI == op.BJ && sizes[op.BI] == 1
		case isBcast(op.Kind) && len(op.Consumers) == 0:
			dw.idle[op] = true
		case op.Kind == opR3Row:
			for _, r := range op.Consumers {
				dw.rowOf[r] = op
			}
		}
	}
	for x := range ops {
		if op := &ops[x]; op.Kind == opR4Aik || op.Kind == opR4Akj {
			relays := op.relays()
			for p, r := range op.Group {
				if relays[p] && op.holdsMirror(p) {
					gone[r] = false // it serves from its capture
				}
			}
		}
	}
	// Only the R3 bundles and the captures of serving holders tie one op's
	// drops to another's, so after the first round only R2 and R3 ops can
	// have a leaf left to drop: an R4 panel's all left in its first.
	for round, dropped := 0, true; dropped; round++ {
		dropped = false
		// An R3 rank stays in both panels while it relays in one, and a
		// mirror holder that serves keeps the capture it serves from.
		clear(dw.stuck)
		for x := range ops {
			op := &ops[x]
			r3, pair := op.Kind == opR3Row || op.Kind == opR3Col, mirrorPair(op.Kind)
			if !r3 && pair == 0 {
				continue
			}
			relays := op.relays()
			for p, r := range op.Group {
				if r3 && (p == 0 || relays[p]) {
					dw.stuck[r] |= 1 << bundle(op.Kind)
				}
				if pair != 0 && relays[p] && op.holdsMirror(p) {
					dw.stuck[r] |= 1 << bundle(pair)
				}
			}
		}
		for x := range ops {
			op := &ops[x]
			if !isBcast(op.Kind) || dw.idle[op] || round > 0 && (op.Kind == opR4Aik || op.Kind == opR4Akj) {
				continue
			}
			sd := pc.sends[op]
			for dropLeaves(op, sd.need, func(r int) bool {
				switch {
				case dw.stuck[r]&(1<<bundle(op.Kind)) != 0:
					return false
				case op.Kind == opR4Aik || op.Kind == opR4Akj:
					return gone[r]
				case op.Kind == opR2Left || op.Kind == opR2Right:
					return dw.isDead(op.Kind, r, func() bool {
						return !contains(op.Consumers, r) || pc.emptyAt(sd, position(op.Group, r))
					})
				}
				return dw.isDead(op.Kind, r, func() bool { return dw.r3Dead(r) })
			}) {
				dropped, dw.edited[op] = true, true
			}
		}
	}
	for x := range ops {
		op := &ops[x]
		switch op.Kind {
		case opR4Aik, opR4Akj:
			need := pc.sends[op].need
			for m, r := range op.Group {
				if gone[r] && contains(op.Consumers, r) {
					if !dw.edited[op] {
						need.member = slices.Clone(need.member) // the saved list stays whole
					}
					op.Consumers = slices.DeleteFunc(slices.Clone(op.Consumers), func(c int) bool { return c == r })
					need.member[m], dw.edited[op] = bitset(need.dim()), true
				}
			}
		case opReduce:
			if slices.ContainsFunc(op.Group, func(r int) bool { return gone[r] }) {
				op.Group = slices.DeleteFunc(slices.Clone(op.Group), func(r int) bool { return gone[r] })
			}
		}
	}
	for x := range ops {
		if op := &ops[x]; dw.edited[op] {
			pc.sends[op].need.freeze(op, pc.union)
		}
	}
	return gone
}

// r3Dead reports whether R3 rank r's combine is the identity: its block is
// a 1×1 diagonal, it is handed no row panel, or its row panel is empty at
// its demand — which is the column panel's finite rows, so the product is
// then empty.
func (dw *deadWork) r3Dead(r int) bool {
	i, j := blockOf(r, dw.pc.pl.NSup)
	row := dw.rowOf[r]
	return row == nil || i == j && dw.pc.pl.ND.Sizes[i] == 1 || dw.pc.emptyAt(dw.pc.sends[row], position(row.Group, r))
}

// emptyAt reports whether the payload of sd's broadcast ships the empty
// encoding at the demand of its member at position m: packPrice from the
// whole block, the zero diagonal of a pivot left out.
func (pc *placer) emptyAt(sd *sendDemand, m int) bool {
	need := sd.need
	rows, cols := need.axes(need.member[m])
	w, _ := sd.mask[0].packPrice(rect{}, rows, cols, need.zeroDiag, pc.keep[0], pc.filter)
	return w == 1
}
