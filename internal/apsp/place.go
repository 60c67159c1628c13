package apsp

import (
	"cmp"
	"slices"
	"sort"

	"sparseapsp/internal/comm"
)

// Tree placement: the last symbolic pass of BuildPlan. A broadcast is an
// explicit tree over its group (Op.Parent), and §3.1's model charges
// every message to the sender and to the receiver, so who relays, and
// how many sends a member makes in a row, decides how long the level's
// dependent chain gets. BuildPlan knows every message of the solve and —
// once the demand sweep has frozen the payload rectangles — an upper
// bound on its size, so it can replay the machine's cost clocks
// symbolically and choose each broadcast's tree from them. The pass
// rewrites a broadcast's Op.Group order, Op.Parent and the per-position
// descriptors that follow from the tree (Op.Prune) and nothing else: the
// same members receive and fold the same payload, only the tree it
// travels down, and so what each edge carries, changes (DESIGN.md §3
// "Broadcast trees", EXPERIMENTS.md E30, E40, E41). Its last step,
// dropMirrors, then removes the leaves that fold a panel against its own
// mirror (DESIGN.md §3 "Mirror operands", E44). The messages are
// appendMessages', the expansion the dataflow lowering wires, so the
// clock replayed here is the one the executors charge
// (TestPlanClockIsExact).

// tick is the communication half of comm.Cost: messages and words along
// the critical path. Both components are advanced and max-merged
// independently, exactly like the machine's clock.
type tick struct{ msgs, words int64 }

func (t tick) plus(w int64) tick { return tick{t.msgs + 1, t.words + w} }

func (t tick) add(o tick) tick { return tick{t.msgs + o.msgs, t.words + o.words} }

func (t tick) max(o tick) tick {
	if o.msgs > t.msgs {
		t.msgs = o.msgs
	}
	if o.words > t.words {
		t.words = o.words
	}
	return t
}

// within reports whether neither component of t exceeds o's.
func (t tick) within(o tick) bool { return t.msgs <= o.msgs && t.words <= o.words }

// less orders by words, then messages — the order candidates and sort
// keys are preferred in.
func (t tick) less(o tick) bool {
	if t.words != o.words {
		return t.words < o.words
	}
	return t.msgs < o.msgs
}

// treeShape is the binomial tree over q members in receive order
// (comm.BinomialTree) and the two position orders the binomial
// candidates fill. It depends on q alone.
type treeShape struct {
	parent []int32
	// rel numbers the positions as Bcast does, root-relative: the order
	// the candidates break their remaining ties in, so that over a
	// binomial tree they break them as over the label order it came from.
	rel []int32
	// relays: positions 1..q-1, most children first, then earliest
	// receive slot — where an idle member is most useful.
	relays []int32
	// finish: positions 1..q-1 by earliest finish (receive slot plus own
	// sends) — where a member with a long remaining chain should sit.
	finish []int32
}

func newTreeShape(q int) *treeShape {
	rel, parent := comm.BinomialTree(q)
	sh := &treeShape{parent: parent, rel: rel}
	slot := make([]int, q)     // message step at which the position holds the payload
	children := make([]int, q) // sends the position makes
	for pos := 1; pos < q; pos++ {
		up := parent[pos]
		children[up]++
		slot[pos] = slot[up] + children[up]
	}
	for pos := 1; pos < q; pos++ {
		sh.relays = append(sh.relays, int32(pos))
		sh.finish = append(sh.finish, int32(pos))
	}
	sort.Slice(sh.relays, func(a, b int) bool {
		x, y := sh.relays[a], sh.relays[b]
		if children[x] != children[y] {
			return children[x] > children[y]
		}
		if slot[x] != slot[y] {
			return slot[x] < slot[y]
		}
		return rel[x] < rel[y]
	})
	sort.Slice(sh.finish, func(a, b int) bool {
		x, y := sh.finish[a], sh.finish[b]
		if fx, fy := slot[x]+children[x], slot[y]+children[y]; fx != fy {
			return fx < fy
		}
		return rel[x] < rel[y]
	})
	return sh
}

// placeStep is one op of the plan's message schedule, in execution
// order. Only broadcasts are re-arranged; every other op's messages are
// simulated and never reordered.
type placeStep struct {
	op *Op
	// w[part] is the words of one message of each payload part
	// (msg.part): a broadcast's per receiving position, w[0] being the
	// whole group's.
	w []int64
	// tails[i] is the longest remaining path from broadcast member
	// op.Group[i]'s program point just after the op; nil for the rest.
	tails []tick
	// need is a broadcast's per-member demand under the pruned wire of a
	// plan being placed, permuted with op.Group; nil otherwise.
	need *bcastNeed
}

// msgWords bounds from above the words one message of op's part-th
// payload carries: a reduce's raw unit body under both wires, the raw
// body under WireDense, else what Plan.pack ships for the frozen demand
// rectangle (packWords) — capped, on a broadcast edge, at the whole
// group's bound: pack falls back to the classic encoding whenever that is
// shorter, so a sub-rectangle never ships more than the whole group's
// payload would.
func (pl *Plan) msgWords(op *Op, part int) int64 {
	bi, bj := op.payload(part)
	rows, cols := pl.ND.Sizes[bi], pl.ND.Sizes[bj]
	if pl.Wire == WireDense || op.Kind == opReduce {
		return int64(rows * cols)
	}
	prune := op.prune(part)
	nr, nc := rows, cols
	if prune != nil && prune.Rows != nil {
		nr = len(prune.Rows)
	}
	if prune != nil && prune.Cols != nil {
		nc = len(prune.Cols)
	}
	w := packWords(rows, cols, nr, nc, prune == nil)
	if isBcast(op.Kind) && part > 0 {
		w = min(w, pl.msgWords(op, 0))
	}
	return w
}

// packWords bounds the words Plan.pack ships on the pruned wire for a
// rows×cols payload whose descriptor keeps nr rows and nc columns: one
// word when the kept rectangle is empty, the dense encoding under the
// full descriptor, else the pruned encoding of the rectangle.
func packWords(rows, cols, nr, nc int, full bool) int64 {
	switch {
	case nr == 0 || nc == 0:
		return 1
	case full:
		return int64(1 + rows*cols)
	}
	return int64(3 + nr + nc + nr*nc)
}

// deliver charges one message of w words on the forward clocks, like
// comm.Replay's ChargeSend / ChargeRecv: the message carries the
// sender's pre-send clock, the sender is charged, the receiver
// max-merges and is charged.
func deliver(clock []tick, src, dst int, w int64) {
	sent := clock[src]
	clock[src] = sent.plus(w)
	clock[dst] = clock[dst].max(sent).plus(w)
}

// undeliver extends the longest remaining paths backwards over one
// message: the sender pays it and then continues along either rank,
// the receiver pays it and continues along its own.
func undeliver(tail []tick, src, dst int, w int64) {
	tail[src] = tail[src].max(tail[dst]).plus(w)
	tail[dst] = tail[dst].plus(w)
}

// candidate is a tree over a broadcast's members: arr[p] is the index
// (into the group as it stands) of the member at position p, parent the
// tree over positions.
type candidate struct{ arr, parent []int32 }

// placer carries one placeTrees run: the schedule, the per-rank clocks
// of the two sweeps and the scratch the candidate trees are built and
// scored in.
type placer struct {
	pl     *Plan
	steps  []placeStep
	clock  []tick // forward sweep: per-rank clock
	tail   []tick // backward sweep: per-rank longest remaining path
	shapes []*treeShape
	msgs   []msg // the messages of the op at hand
	// perEdge: candidate trees are scored at each edge's subtree demand;
	// otherwise every edge weighs the whole group's (Prune[0]).
	perEdge bool

	// Candidate scratch, sized to the largest group.
	pos      []tick       // per-position clocks of the tree being scored
	ready    []tick       // per-member clock before the op
	byReady  []int32      // members 1..q-1 by ascending ready clock
	byTail   []int32      // members 1..q-1 by descending tail
	cand     [4]candidate // (b)–(e) of choose
	edge     []int64      // per-position words of the message into it
	union    [][]uint64   // per-position subtree demand
	regroup  []int
	retails  []tick
	reneed   [][]uint64
	identity []int32
}

func (pc *placer) shape(q int) *treeShape {
	if pc.shapes[q] == nil {
		pc.shapes[q] = newTreeShape(q)
	}
	return pc.shapes[q]
}

// binomialRounds is how many rounds re-arrange members over the binomial
// tree only; placeRounds is how often the two sweeps run at whole-group
// words, the later rounds also growing greedy trees. Each round
// recomputes the tails from the previous round's trees. A third binomial
// round still moved 13 of 416 sweep cells (never for the worse), not
// enough to pay for a third of the pass's time (E30); the two greedy
// rounds are E40's. On the pruned wire one more round follows at
// per-edge words (E41).
const (
	binomialRounds = 2
	placeRounds    = 4
)

// placeTrees chooses the tree of every broadcast (chooseTrees), then
// drops the members that fold a panel against its own mirror
// (dropMirrors); see the file comment and DESIGN.md §3. It must run
// after attachPrunes (the payload rectangles are its word sizes; needs
// is what it returned) and before indexRanks.
func placeTrees(pl *Plan, needs map[*Op]*bcastNeed) {
	chooseTrees(pl, needs)
	dropMirrors(pl, needs)
}

// chooseTrees chooses the tree of every broadcast. The placeRounds
// rounds weigh every message of a broadcast at the whole group's
// rectangle, an upper bound on every edge. The per-position descriptors
// are then frozen from the chosen trees, and a final round under the
// same rule weighs each candidate's edges at their subtree demand.
// Scoring per-edge words from the first round measured worse, with a
// message count rising (E41).
func chooseTrees(pl *Plan, needs map[*Op]*bcastNeed) {
	pc := newPlacer(pl, needs)
	for round := 0; round < placeRounds; round++ {
		pc.backward()
		pc.forward(true, round >= binomialRounds)
	}
	if len(needs) == 0 {
		return // WireDense: every edge ships the whole block
	}
	pc.perEdge = true
	for i := range pc.steps {
		st := &pc.steps[i]
		if st.need != nil {
			st.need.freeze(st.op, pc.union)
		}
		pc.weigh(st)
	}
	pc.backward()
	pc.forward(true, true)
}

// newPlacer lists every op that sends, each message weighed at the
// descriptor it carries; needs (nil to replay the plan as it stands)
// attaches each broadcast's per-member demand.
func newPlacer(pl *Plan, needs map[*Op]*bcastNeed) *placer {
	pc := &placer{pl: pl, clock: make([]tick, pl.P), tail: make([]tick, pl.P)}
	maxQ, maxAxis := 0, 0
	for _, ops := range pl.Levels {
		for x := range ops {
			op := &ops[x]
			if op.Kind == opDiag || op.Kind == opUnit {
				continue
			}
			st := placeStep{op: op, w: make([]int64, 1)}
			if op.Kind == opSeq {
				st.w = make([]int64, 2)
			}
			if isBcast(op.Kind) {
				st.w = make([]int64, len(op.Group))
				st.tails = make([]tick, len(op.Group))
				st.need = needs[op]
				maxQ = max(maxQ, len(op.Group))
				maxAxis = max(maxAxis, pl.ND.Sizes[op.BI], pl.ND.Sizes[op.BJ])
			}
			pc.weigh(&st)
			pc.steps = append(pc.steps, st)
		}
	}
	pc.shapes = make([]*treeShape, maxQ+1)
	pc.pos = make([]tick, maxQ)
	pc.ready = make([]tick, maxQ)
	pc.byReady = make([]int32, 0, maxQ)
	pc.byTail = make([]int32, 0, maxQ)
	for c := range pc.cand {
		pc.cand[c] = candidate{arr: make([]int32, maxQ), parent: make([]int32, maxQ)}
	}
	pc.edge = make([]int64, maxQ)
	pc.union = make([][]uint64, maxQ)
	for p := range pc.union {
		pc.union[p] = make([]uint64, 0, (maxAxis+63)/64)
	}
	pc.regroup = make([]int, maxQ)
	pc.retails = make([]tick, maxQ)
	pc.reneed = make([][]uint64, maxQ)
	pc.identity = make([]int32, maxQ)
	for i := range pc.identity {
		pc.identity[i] = int32(i)
	}
	return pc
}

// weigh sets the words of each of st's messages from the op's
// descriptors as they stand: until placeTrees freezes the per-edge ones,
// every position of a broadcast holds the whole group's.
func (pc *placer) weigh(st *placeStep) {
	for part := range st.w {
		st.w[part] = pc.pl.msgWords(st.op, part)
	}
}

// messages expands st's op as it stands into pc.msgs.
func (pc *placer) messages(st *placeStep) []msg {
	pc.msgs = appendMessages(pc.msgs[:0], st.op)
	return pc.msgs
}

// backward computes, for every rank's program point, the longest
// remaining path — a property of the ops still to run and their current
// trees, independent of any clock — and records it per broadcast
// member.
func (pc *placer) backward() {
	for r := range pc.tail {
		pc.tail[r] = tick{}
	}
	for i := len(pc.steps) - 1; i >= 0; i-- {
		st := &pc.steps[i]
		for m := range st.tails {
			st.tails[m] = pc.tail[st.op.Group[m]]
		}
		msgs := pc.messages(st)
		for e := len(msgs) - 1; e >= 0; e-- {
			undeliver(pc.tail, msgs[e].src, msgs[e].dst, st.w[msgs[e].part])
		}
	}
}

// forward replays the clocks in execution order. With choose set, every
// broadcast of three or more members gets its tree chosen first
// (choose); grow adds the greedy trees to the candidates.
func (pc *placer) forward(choose, grow bool) {
	for r := range pc.clock {
		pc.clock[r] = tick{}
	}
	for i := range pc.steps {
		st := &pc.steps[i]
		if choose && len(st.tails) >= 3 {
			pc.choose(st, grow)
		}
		for _, m := range pc.messages(st) {
			deliver(pc.clock, m.src, m.dst, st.w[m.part])
		}
	}
}

// score runs the candidate on scratch clocks and returns the longest
// path through any member: max over members of clock after the op +
// remaining tail.
func (pc *placer) score(st *placeStep, c candidate) tick {
	w := pc.edgeWords(st, c)
	for p, m := range c.arr {
		pc.pos[p] = pc.ready[m]
	}
	for p := 1; p < len(c.arr); p++ {
		deliver(pc.pos, int(c.parent[p]), p, w[p])
	}
	var worst tick
	for p, m := range c.arr {
		worst = worst.max(pc.pos[p].add(st.tails[m]))
	}
	return worst
}

// edgeWords returns the words of the message into each position of
// candidate c: the whole group's until the per-edge round, then the
// union of what the members of the position's subtree fold.
func (pc *placer) edgeWords(st *placeStep, c candidate) []int64 {
	w := pc.edge[:len(c.arr)]
	if !pc.perEdge {
		for p := range w {
			w[p] = st.w[0]
		}
		return w
	}
	for p, bs := range st.need.unions(c.arr, c.parent, pc.union) {
		w[p] = min(st.need.words(bs), st.w[0]) // msgWords' cap
	}
	return w
}

// sortMembers fills dst with members 1..q-1 ordered by key, ascending or
// descending, ties by the shape's rel.
func sortMembers(dst []int32, sh *treeShape, key []tick, desc bool) []int32 {
	dst = dst[:0]
	for m := 1; m < len(sh.rel); m++ {
		dst = append(dst, int32(m))
	}
	slices.SortFunc(dst, func(a, b int32) int {
		ka, kb := key[a], key[b]
		if desc {
			ka, kb = kb, ka
		}
		switch {
		case ka.less(kb):
			return -1
		case kb.less(ka):
			return 1
		}
		return cmp.Compare(sh.rel[a], sh.rel[b])
	})
	return dst
}

// grow builds a greedy tree into c: the recipients, in the order given,
// each go to the holder — the root or a member placed before — that
// minimises the longer of the two paths the send opens, the recipient's
// arrival plus its tail and the holder's clock after the send plus its
// own tail; ties go to the earlier arrival, then the earlier holder.
func (pc *placer) grow(st *placeStep, recipients []int32, c candidate) {
	w := st.w[0]
	hold := pc.pos // per position: the holder's clock after its sends so far
	c.arr[0], c.parent[0], hold[0] = 0, -1, pc.ready[0]
	for k, r := range recipients {
		at := k + 1
		best := -1
		var bestScore, bestArrive tick
		for h := 0; h < at; h++ {
			sent := hold[h]
			arrive := pc.ready[r].max(sent).plus(w)
			sc := arrive.add(st.tails[r]).max(sent.plus(w).add(st.tails[c.arr[h]]))
			if best < 0 || sc.less(bestScore) || sc == bestScore && arrive.less(bestArrive) {
				best, bestScore, bestArrive = h, sc, arrive
			}
		}
		hold[best] = hold[best].plus(w)
		hold[at] = bestArrive
		c.arr[at], c.parent[at] = r, int32(best)
	}
}

// choose scores candidate trees over st's group and installs the best
// admissible one:
//
//	(a) as it stands;
//	(b) the binomial tree, members by ascending ready clock onto the
//	    positions with the most children, then the earliest receive —
//	    busy members become late leaves, idle ones relay;
//	(c) the binomial tree, members by descending tail onto the
//	    positions that finish earliest — the longest remaining chain is
//	    served first;
//
// and with grow set, the greedy trees (grow) over
//
//	(d) the members by descending tail;
//	(e) the members by ascending ready clock.
//
// A candidate is admissible only if neither of its components exceeds
// (a)'s. The critical path is the maximum of clock + tail over the cut
// just after this op; the tails do not depend on this op's tree and
// non-members are untouched, so an admissible tree cannot lengthen any
// path in either component — whatever the sort keys and the greedy do.
// Among the admissible, fewer words wins, then fewer messages.
func (pc *placer) choose(st *placeStep, grow bool) {
	op := st.op
	g := op.Group
	q := len(g)
	sh := pc.shape(q)
	for m, r := range g {
		pc.ready[m] = pc.clock[r]
	}
	asStands := pc.score(st, candidate{pc.identity[:q], op.Parent})
	pc.byReady = sortMembers(pc.byReady, sh, pc.ready[:q], false)
	pc.byTail = sortMembers(pc.byTail, sh, st.tails, true)
	var best *candidate
	bestScore := asStands
	consider := func(c *candidate) {
		if sc := pc.score(st, *c); sc.within(asStands) && sc.less(bestScore) {
			best, bestScore = c, sc
		}
	}
	for c, members := range [2][]int32{pc.byReady, pc.byTail} {
		cand := &pc.cand[c]
		cand.arr, cand.parent = cand.arr[:q], sh.parent
		cand.arr[0] = 0
		for k, p := range [2][]int32{sh.relays, sh.finish}[c] {
			cand.arr[p] = members[k]
		}
		consider(cand)
	}
	if grow {
		for c, members := range [2][]int32{pc.byTail, pc.byReady} {
			cand := &pc.cand[2+c]
			cand.arr, cand.parent = cand.arr[:q], cand.parent[:q]
			pc.grow(st, members, *cand)
			consider(cand)
		}
	}
	if best == nil {
		return
	}
	for p, m := range best.arr {
		pc.regroup[p] = g[m]
		pc.retails[p] = st.tails[m]
		if st.need != nil {
			pc.reneed[p] = st.need.member[m]
		}
	}
	copy(g, pc.regroup[:q])
	copy(st.tails, pc.retails[:q])
	copy(op.Parent, best.parent)
	if st.need != nil {
		copy(st.need.member, pc.reneed[:q])
	}
	if pc.perEdge {
		st.need.freeze(op, pc.union)
		pc.weigh(st)
	}
}

// dropMirrors removes the receipts a rank can do without: a rank that
// folds a diagonal block (i, i) multiplies A(i,k) by A(k,i) = A(i,k)ᵀ —
// the R4 unit of an ancestor's diagonal block and the R3 combine of a
// descendant's alike — so it can transpose the A(i,k) it receives
// anyway, the R4 column panel or the R3 row panel
// (rankState.unitProduct, combineR3), instead of receiving A(k,i) too.
// From every R4 row-panel broadcast the pass drops each member whose
// unit computes a diagonal block, from every R3 column broadcast each
// diagonal-block member that captures its row panel, and either only if
// it relays to no one; a broadcast left without a consumer goes, and the
// per-edge descriptors are re-frozen from the members that remain. The
// dropped member's demand is the kept panel's transposed: the demand
// sweep's masks are symmetric like the distances, so the payload it
// kept covers it.
//
// It runs after the trees are chosen: deleting a leaf only deletes
// charges from the replayed clocks, so no rank's clock gets later
// (TestMirrorDropNeverLengthensAClock). The placer run without these
// members from the start has no such guarantee, and measured above the
// parent in 26 of 208 sweep cells, the served grid among them (E44).
func dropMirrors(pl *Plan, needs map[*Op]*bcastNeed) {
	type fold struct {
		kind uint8 // the broadcast of the mirror panel
		rank int
	}
	for li, ops := range pl.Levels {
		pivot := make(map[fold]int) // the k of the A(i,k) a rank folds into a diagonal block
		for _, op := range ops {
			switch {
			case op.Kind == opUnit && op.BI == op.BJ:
				pivot[fold{opR4Akj, op.Root}] = op.K
			case op.Kind == opR3Row:
				for _, r := range op.Consumers {
					if i, j := blockOf(r, pl.NSup); i == j {
						pivot[fold{opR3Col, r}] = op.BJ
					}
				}
			}
		}
		kept := ops[:0]
		for x := range ops {
			op := &ops[x]
			if op.Kind == opR4Akj || op.Kind == opR3Col {
				dropLeaves(op, needs[op], func(r int) bool {
					k, ok := pivot[fold{op.Kind, r}]
					return ok && k == op.BI
				})
				if len(op.Consumers) == 0 {
					continue
				}
			}
			kept = append(kept, *op)
		}
		pl.Levels[li] = kept
	}
}

// dropLeaves removes from broadcast op every member past the root that
// relays to no one and drop selects — from its tree, its consumers and
// need (nil under WireDense) — and re-freezes op's descriptors.
func dropLeaves(op *Op, need *bcastNeed, drop func(r int) bool) {
	q := len(op.Group)
	relays := make([]bool, q)
	for p := 1; p < q; p++ {
		relays[op.Parent[p]] = true
	}
	at := make([]int32, q) // old position -> new
	n := 0
	for p, r := range op.Group {
		if p > 0 && !relays[p] && drop(r) {
			op.Consumers = slices.DeleteFunc(op.Consumers, func(c int) bool { return c == r })
			continue
		}
		at[p] = int32(n)
		op.Group[n] = r
		if p > 0 {
			op.Parent[n] = at[op.Parent[p]]
		}
		if need != nil {
			need.member[n] = need.member[p]
		}
		n++
	}
	if n == q {
		return
	}
	op.Group, op.Parent = op.Group[:n], op.Parent[:n]
	if need != nil {
		need.member = need.member[:n]
		need.freeze(op, make([][]uint64, n))
	}
}
