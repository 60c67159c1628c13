package apsp

import "sparseapsp/internal/comm"

// pricer walks every rank's program (Plan.ranks) beside Plan.Cost's
// replay and charges each step what exec.go's step charges the rank: the
// flops its kernels count and the words it holds. Both are functions of
// the structure. Memory is whole rows×cols blocks. A kernel charges the
// finite entries of its left operand times the right operand's width
// (semiring.MulAddInto), and finiteness is what the demand sweep's masks
// mark: a consumer's decoded operand is its payload's mask inside the
// rectangle the replay says it decodes (placeStep.got), a diagonal
// closure and an R2 column update are priced by the sweep itself
// (demandState.work). A rank's steps run only when the replay is about
// to deliver one of its messages (upTo), so its clock holds the flops of
// exactly the steps before that message, as an executed rank's does.
type pricer struct {
	pl    *Plan
	clock []tick // the replay's
	at    map[*Op]*placeStep
	work  map[*Op][]int64
	ranks []rankPrice
	ids   []string      // the level marks
	marks [][]comm.Cost // per level, each rank's clock at its mark
}

// rankPrice is one rank's pricing state: the next step of its program,
// the flops on its clock and its own, the words it holds and their peak,
// and the blocks it holds beside its own (rankState's captures).
type rankPrice struct {
	next                     int
	flops, local, mem, peak  int64
	aik, akj, unit, row, col held
}

// held is a block a rank holds beside its own: its words and finite
// entries.
type held struct {
	words, finite int64
	ok            bool
}

// newPricer prices pc's plan beside pc's replay: pc has listed every step
// with what each position decodes, and work is the sweep's.
func newPricer(pc *placer, work map[*Op][]int64) *pricer {
	pl := pc.pl
	pr := &pricer{pl: pl, clock: pc.clock, at: make(map[*Op]*placeStep, len(pc.steps)), work: work,
		ranks: make([]rankPrice, pl.P), marks: make([][]comm.Cost, len(pl.Levels))}
	for i := range pc.steps {
		pr.at[pc.steps[i].op] = &pc.steps[i]
	}
	for li := range pr.marks {
		pr.ids = append(pr.ids, levelName(int32(li)))
		pr.marks[li] = make([]comm.Cost, pl.P)
	}
	return pr
}

// upTo runs rank r's steps up to its part in op, or with op nil to the
// end of its program.
func (pr *pricer) upTo(r int, op *Op) {
	prog, rp := pr.pl.ranks[r], &pr.ranks[r]
	for ; rp.next < len(prog); rp.next++ {
		st := prog[rp.next]
		if op != nil && st.kind < numOpKinds && &pr.pl.Levels[st.level][st.op] == op {
			return
		}
		pr.step(r, rp, st)
	}
}

// step charges rank r one step of its program.
func (pr *pricer) step(r int, rp *rankPrice, st step) {
	sizes := pr.pl.ND.Sizes
	words := func(i, j int) int64 { return int64(sizes[i] * sizes[j]) }
	bi, bj := blockOf(r, pr.pl.NSup)
	switch st.kind {
	case kindInit:
		rp.hold(words(bi, bj))
		return
	case kindMark:
		pr.marks[st.level][r] = comm.Cost{Latency: pr.clock[r].msgs, Bandwidth: pr.clock[r].words, Flops: rp.flops}
		return
	case kindR4Release:
		rp.drop(&rp.unit, &rp.aik, &rp.akj)
		return
	case kindR3Combine:
		if st.use { // the column panel is the row panel's mirror
			rp.col = rp.row
			rp.hold(rp.col.words)
		}
		if rp.row.ok && rp.col.ok {
			rp.charge(rp.row.finite * int64(sizes[bj]))
		}
		rp.drop(&rp.row, &rp.col)
		return
	}
	op := &pr.pl.Levels[st.level][st.op]
	switch op.Kind {
	case opDiag:
		rp.charge(pr.work[op][0])
	case opUnit:
		if !rp.akj.ok {
			rp.akj = rp.aik
			rp.hold(rp.akj.words)
		}
		if !pr.pl.ownsUnitBlock(op) {
			rp.unit = held{words: words(op.BI, op.BJ), ok: true}
			rp.hold(rp.unit.words)
		}
		rp.charge(rp.aik.finite * int64(sizes[op.BJ]))
	case opReduce:
		if r == op.Root {
			rp.charge(words(bi, bj))
		}
	case opSeq:
		if r == op.Root { // both operands arrive, and go after the product
			rp.peak = max(rp.peak, rp.mem+words(op.BI, op.K)+words(op.K, op.BJ))
			rp.charge(pr.at[op].got[0] * int64(sizes[op.BJ]))
		}
	case opTrans:
	default:
		if !st.use {
			return
		}
		d := held{words(op.BI, op.BJ), pr.at[op].got[position(op.Group, r)], true}
		rp.hold(d.words)
		switch op.Kind {
		case opR2Left: // the update's left operand is the rank's own panel
			rp.charge(pr.work[op][position(op.Consumers, r)])
			rp.mem -= d.words
		case opR2Right:
			rp.charge(d.finite * int64(sizes[bj]))
			rp.mem -= d.words
		case opR4Aik:
			rp.aik = d
		case opR4Akj:
			rp.akj = d
		case opR3Row:
			rp.row = d
		case opR3Col:
			rp.col = d
		}
	}
}

// hold adds words to the rank's memory.
func (rp *rankPrice) hold(words int64) {
	rp.mem += words
	rp.peak = max(rp.peak, rp.mem)
}

// drop releases the blocks held.
func (rp *rankPrice) drop(blocks ...*held) {
	for _, b := range blocks {
		if b.ok {
			rp.mem -= b.words
			*b = held{}
		}
	}
}

// charge adds flops to the rank's clock and its own work.
func (rp *rankPrice) charge(flops int64) {
	rp.flops += flops
	rp.local += flops
}
