package apsp

import (
	"slices"
	"sort"

	"sparseapsp/internal/comm"
	"sparseapsp/internal/semiring"
)

// Tree placement: the last symbolic pass of BuildPlan. A broadcast is an
// explicit tree over its group (Op.Parent), and §3.1's model charges
// every message to the sender and to the receiver, so who relays, and
// how many sends a member makes in a row, decides how long the level's
// dependent chain gets. BuildPlan knows every message of the solve and —
// from the demand sweep's masks — its exact size, so it can replay the
// machine's cost clocks symbolically and choose each broadcast's tree
// from them. The pass rewrites a broadcast's Op.Group order, Op.Parent
// and the per-position descriptors that follow from the tree (Op.Prune)
// and nothing else: the same members receive and fold the same payload,
// only the tree it travels down, and so what each edge carries, changes
// (DESIGN.md §3 "Broadcast trees", EXPERIMENTS.md E30, E40, E41).
// dropMirrors then removes the leaves that fold a panel against its own
// mirror (DESIGN.md §3 "Mirror operands", E44), and a descent at exact
// prices re-places the trees that remain (E45). The messages are
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
	// sd is what the demand sweep knows of the op under the pruned wire:
	// its payload masks and, for a broadcast of a plan being placed, its
	// per-member demand, permuted with op.Group. Nil otherwise.
	sd *sendDemand
}

// need is st's per-member demand, nil when it has none.
func (st *placeStep) need() *bcastNeed { return st.sd.perMember() }

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
	return int64(semiring.PrunedLen(nr, nc))
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
	// exact: every message weighs what pack ships for it (packPrice);
	// otherwise msgWords' bound.
	exact bool
	// focus: choose leaves alone a broadcast none of whose members is on
	// a critical path (crit, as the backward sweep found it) in either
	// component.
	focus bool
	crit  tick

	// Candidate scratch, sized to the largest group.
	pos      []tick       // per-position clocks of the tree being scored
	opens    []tick       // grow's per-position path of a holder's next send
	ready    []tick       // per-member clock before the op
	byReady  []int32      // members 1..q-1 by ascending ready clock
	byTail   []int32      // members 1..q-1 by descending tail
	cand     [4]candidate // (b)–(e) of choose
	union    [][]uint64   // per-position subtree demand
	regroup  []int
	retails  []tick
	reneed   [][]uint64
	identity []int32

	// Exact-price scratch: per position, the rectangle the member holds
	// and the storage of the one it keeps; a descriptor's axes as
	// bitsets; packPrice's column filter.
	held, keep   []rect
	specR, specC []uint64
	filter       []uint64
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
// per-edge words (E41), and after the mirror drop one at exact prices and
// focusRounds focused ones (E45).
const (
	binomialRounds = 2
	placeRounds    = 4
	focusRounds    = 2
)

// placeTrees chooses the tree of every broadcast (chooseTrees), drops
// the members that fold a panel against its own mirror (dropMirrors),
// and on the pruned wire re-places the trees at exact prices (descend);
// see the file comment and DESIGN.md §3. It must run after attachPrunes
// (sends is what it returned) and before indexRanks.
func placeTrees(pl *Plan, sends map[*Op]*sendDemand) {
	chooseTrees(pl, sends)
	sends = dropMirrors(pl, sends)
	descend(pl, sends)
}

// chooseTrees chooses the tree of every broadcast. The placeRounds
// rounds weigh every message of a broadcast at the whole group's
// rectangle, an upper bound on every edge. The per-position descriptors
// are then frozen from the chosen trees, and a final round under the
// same rule weighs each candidate's edges at their subtree demand.
// Scoring per-edge words from the first round measured worse, with a
// message count rising (E41), and so did exact prices (E45): the
// rectangle bound is the better guide while the trees are still far from
// placed.
func chooseTrees(pl *Plan, sends map[*Op]*sendDemand) {
	pc := newPlacer(pl, sends, false)
	for round := 0; round < placeRounds; round++ {
		pc.backward()
		pc.forward(true, round >= binomialRounds)
	}
	if len(sends) == 0 {
		return // WireDense: every edge ships the whole block
	}
	pc.perEdge = true
	for i := range pc.steps {
		st := &pc.steps[i]
		if need := st.need(); need != nil {
			need.freeze(st.op, pc.union)
		}
		pc.weigh(st)
	}
	pc.backward()
	pc.forward(true, true)
}

// descend re-places the trees from the plan as it stands at exact prices
// (packPrice): a per-edge round under choose's rule, dropMirrors again —
// a tree the round chose can leave a mirror member a leaf — and
// focusRounds more rounds that re-score only the broadcasts with a member
// on a critical path (focus): the first round makes almost every move,
// and a full second one costs more than the build may spend (E45). The
// clock it replays is the one the executors charge, so no round makes
// the executed critical path longer in either component than the plan's
// it started from. Nor does the drop: a leaf's demand leaves its
// ancestors' edges, which almost always only shortens them, but an edge
// that then fits the classic encoding hands its relay more of the block
// to re-pack from, so a drop that would lengthen the critical path is
// undone. The dense wire has no demand, and keeps the trees chooseTrees
// gave it.
func descend(pl *Plan, sends map[*Op]*sendDemand) {
	if len(sends) == 0 {
		return
	}
	pc := newPlacer(pl, sends, true)
	pc.perEdge = true
	pc.backward()
	pc.forward(true, true)
	crit := pc.critical()
	undo := saveForDrop(pl, sends)
	pc = newPlacer(pl, dropMirrors(pl, sends), true)
	pc.backward()
	if !pc.longest().within(crit) {
		undo()
		pc = newPlacer(pl, sends, true)
		pc.backward()
	}
	pc.perEdge, pc.focus = true, true
	for round := 0; round < focusRounds; round++ {
		if round > 0 {
			pc.backward()
		}
		pc.forward(true, true)
	}
}

// saveForDrop records what dropMirrors edits in place — every level's op
// list and, of each R4 row-panel and R3 column broadcast, its member
// lists and per-member demand — and returns the function that puts it
// back, after which sends, keyed by the ops' addresses before the drop,
// holds again.
func saveForDrop(pl *Plan, sends map[*Op]*sendDemand) (undo func()) {
	levels := make([][]Op, len(pl.Levels))
	var needs []*bcastNeed
	var members [][][]uint64
	for li, ops := range pl.Levels {
		levels[li] = slices.Clone(ops)
		for x := range ops {
			if op := &levels[li][x]; op.Kind == opR4Akj || op.Kind == opR3Col {
				op.Group, op.Parent, op.Consumers = slices.Clone(op.Group), slices.Clone(op.Parent), slices.Clone(op.Consumers)
				need := sends[&ops[x]].need
				needs, members = append(needs, need), append(members, slices.Clone(need.member))
			}
		}
	}
	return func() {
		for li, ops := range levels {
			pl.Levels[li] = pl.Levels[li][:len(ops)] // the array the drop compacted
			copy(pl.Levels[li], ops)
		}
		for i, need := range needs {
			need.member = members[i]
		}
	}
}

// longest is the critical path of the tails a backward sweep left.
func (pc *placer) longest() tick {
	var crit tick
	for _, t := range pc.tail {
		crit = crit.max(t)
	}
	return crit
}

// critical is the critical path of the clocks a forward sweep left.
func (pc *placer) critical() tick {
	var crit tick
	for _, c := range pc.clock {
		crit = crit.max(c)
	}
	return crit
}

// newPlacer lists every op that sends, each message weighed at the
// descriptor it carries — at its exact price if exact is set, else at
// msgWords' bound; sends (nil under WireDense) attaches what the demand
// sweep knows of each op: its payload masks and, while the plan is being
// placed, each broadcast's per-member demand.
func newPlacer(pl *Plan, sends map[*Op]*sendDemand, exact bool) *placer {
	pc := &placer{pl: pl, clock: make([]tick, pl.P), tail: make([]tick, pl.P), exact: exact}
	steps, nw, nt := 0, 0, 0
	for _, ops := range pl.Levels {
		for x := range ops {
			if n := sendParts(&ops[x]); n > 0 {
				steps, nw = steps+1, nw+n
				if isBcast(ops[x].Kind) {
					nt += n
				}
			}
		}
	}
	pc.steps = make([]placeStep, 0, steps)
	w, tails := make([]int64, nw), make([]tick, nt)
	maxQ := 2 // a seq op's two parts price in positions 0 and 1
	for _, ops := range pl.Levels {
		for x := range ops {
			op := &ops[x]
			n := sendParts(op)
			if n == 0 {
				continue
			}
			st := placeStep{op: op, w: w[:n:n], sd: sends[op]}
			w = w[n:]
			if isBcast(op.Kind) {
				st.tails, tails = tails[:n:n], tails[n:]
				maxQ = max(maxQ, n)
			}
			pc.steps = append(pc.steps, st)
		}
	}
	maxAxis := 0
	for _, sz := range pl.ND.Sizes {
		maxAxis = max(maxAxis, sz)
	}
	words := (maxAxis + 63) / 64
	pc.shapes = make([]*treeShape, maxQ+1)
	pc.pos = make([]tick, maxQ)
	pc.opens = make([]tick, maxQ)
	pc.ready = make([]tick, maxQ)
	pc.byReady = make([]int32, 0, maxQ)
	pc.byTail = make([]int32, 0, maxQ)
	for c := range pc.cand {
		pc.cand[c] = candidate{arr: make([]int32, maxQ), parent: make([]int32, maxQ)}
	}
	pc.union = make([][]uint64, maxQ)
	for p := range pc.union {
		pc.union[p] = make([]uint64, 0, words)
	}
	pc.regroup = make([]int, maxQ)
	pc.retails = make([]tick, maxQ)
	pc.reneed = make([][]uint64, maxQ)
	pc.identity = make([]int32, maxQ)
	for i := range pc.identity {
		pc.identity[i] = int32(i)
	}
	pc.held = make([]rect, maxQ)
	pc.keep = make([]rect, maxQ)
	for p := range pc.keep {
		pc.keep[p] = rect{make([]uint64, words), make([]uint64, words)}
	}
	pc.specR, pc.specC, pc.filter = make([]uint64, words), make([]uint64, words), make([]uint64, words)
	for i := range pc.steps {
		pc.weigh(&pc.steps[i])
	}
	return pc
}

// sendParts is the number of payload parts op's messages carry (msg.part):
// one per broadcast position, two for a seq op, none for a diag or unit.
func sendParts(op *Op) int {
	switch {
	case op.Kind == opDiag || op.Kind == opUnit:
		return 0
	case isBcast(op.Kind):
		return len(op.Group)
	case op.Kind == opSeq:
		return 2
	}
	return 1
}

// weigh sets the words of each of st's messages from the op's
// descriptors as they stand: until chooseTrees freezes the per-edge
// ones, every position of a broadcast holds the whole group's. An exact
// placer prices the pruned wire's messages from the payload masks — a
// broadcast's edges down its tree, since a relay packs from what it
// holds, and w[0] at the whole group's descriptor from the root, the
// weight grow gives every edge; msgWords is exact for the rest.
func (pc *placer) weigh(st *placeStep) {
	op := st.op
	if !pc.exact || st.sd == nil || pc.pl.Wire == WireDense {
		for part := range st.w {
			st.w[part] = pc.pl.msgWords(op, part)
		}
		return
	}
	relayed := isBcast(op.Kind) // part p > 0 is packed from what Group[Parent[p]] holds
	for part := range st.w {
		from := rect{}
		if relayed && part > 0 {
			from = pc.held[op.Parent[part]]
		}
		var held rect
		st.w[part], held = pc.price(st.sd.maskOf(op, part), from, op.prune(part), part)
		if relayed && part > 0 {
			pc.held[part] = held
		}
	}
}

// price is packPrice at descriptor spec (nil: full), the kept rectangle
// stored in slot's scratch.
func (pc *placer) price(m *entryMask, held rect, spec *PruneSpec, slot int) (int64, rect) {
	var rows, cols []uint64
	zeroDiag := spec != nil && spec.ZeroDiag
	if spec != nil && spec.Rows != nil {
		rows = listBits(pc.specR[:(m.rows+63)/64], spec.Rows)
	}
	if spec != nil && spec.Cols != nil {
		cols = listBits(pc.specC[:m.w], spec.Cols)
	}
	return m.packPrice(held, rows, cols, zeroDiag, pc.keep[slot], pc.filter)
}

// listBits fills bs with the indices of list and returns it.
func listBits(bs []uint64, list []int32) []uint64 {
	clear(bs)
	for _, t := range list {
		bs[t/64] |= 1 << (t % 64)
	}
	return bs
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
	pc.crit = pc.longest()
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

// score runs the candidate on scratch clocks, each edge weighing w[p],
// and returns the longest path through any member: max over members of
// clock after the op + remaining tail.
func (pc *placer) score(st *placeStep, c candidate, w []int64) tick {
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

// beats scores candidate c like score, weighing each edge as it is
// delivered (edgeWord), and reports whether c is admissible against
// asStands and scores below best. Every clock only grows as the edges
// are delivered, so it gives up at the first edge after which the
// longest path so far already fails either test.
func (pc *placer) beats(st *placeStep, c candidate, asStands, best tick) (tick, bool) {
	var worst tick
	for p, m := range c.arr {
		pc.pos[p] = pc.ready[m]
		worst = worst.max(pc.pos[p].add(st.tails[m]))
	}
	var unions [][]uint64
	if pc.perEdge {
		unions = st.need().unions(c.arr, c.parent, pc.union)
	}
	for p := 1; p < len(c.arr); p++ {
		up := int(c.parent[p])
		deliver(pc.pos, up, p, pc.edgeWord(st, c, unions, p))
		worst = worst.max(pc.pos[up].add(st.tails[c.arr[up]])).max(pc.pos[p].add(st.tails[c.arr[p]]))
		if !worst.within(asStands) || !worst.less(best) {
			return worst, false
		}
	}
	return worst, true
}

// edgeWord returns the words of the message into position p of
// candidate c: the whole group's until the per-edge round, then the
// union of what the members of the position's subtree fold (unions) — at
// msgWords' bound, or, by an exact placer, priced down c's tree: the
// edges into p's ancestors must have been priced first.
func (pc *placer) edgeWord(st *placeStep, c candidate, unions [][]uint64, p int) int64 {
	need := st.need()
	switch {
	case !pc.perEdge:
		return st.w[0]
	case !pc.exact:
		return min(need.words(unions[p]), st.w[0]) // msgWords' cap
	}
	rows, cols := need.axes(unions[p])
	var w int64
	w, pc.held[p] = st.sd.mask[0].packPrice(pc.held[c.parent[p]], rows, cols, need.zeroDiag, pc.keep[p], pc.filter)
	return w
}

// sortMembers fills dst with members 1..q-1 ordered by key, ascending or
// descending, ties by the shape's rel — an insertion sort, as groups are
// small and every key is distinct once rel breaks the ties.
func sortMembers(dst []int32, sh *treeShape, key []tick, desc bool) []int32 {
	dst = dst[:0]
	for m := int32(1); m < int32(len(sh.rel)); m++ {
		i := len(dst)
		dst = append(dst, m)
		for ; i > 0 && precedes(sh, key, desc, m, dst[i-1]); i-- {
			dst[i] = dst[i-1]
		}
		dst[i] = m
	}
	return dst
}

// precedes reports whether member a sorts before member b in sortMembers.
func precedes(sh *treeShape, key []tick, desc bool, a, b int32) bool {
	ka, kb := key[a], key[b]
	if desc {
		ka, kb = kb, ka
	}
	if ka.words != kb.words {
		return ka.words < kb.words
	}
	if ka.msgs != kb.msgs {
		return ka.msgs < kb.msgs
	}
	return sh.rel[a] < sh.rel[b]
}

// grow builds a greedy tree into c: the recipients, in the order given,
// each go to the holder — the root or a member placed before — that
// minimises the longer of the two paths the send opens, the recipient's
// arrival plus its tail and the holder's clock after the send plus its
// own tail; ties go to the earlier arrival, then the earlier holder.
func (pc *placer) grow(st *placeStep, recipients []int32, c candidate) {
	w := st.w[0]
	hold := pc.pos   // per position: the holder's clock after its sends so far
	open := pc.opens // per position: the holder's path if it sends next
	c.arr[0], c.parent[0], hold[0] = 0, -1, pc.ready[0]
	open[0] = hold[0].plus(w).add(st.tails[0])
	for k, r := range recipients {
		at := k + 1
		ready, tail := pc.ready[r], st.tails[r]
		best := -1
		var bestScore, bestArrive tick
		for h, sent := range hold[:at] {
			arrive := ready.max(sent).plus(w)
			sc := arrive.add(tail).max(open[h])
			if best < 0 || sc.less(bestScore) || sc == bestScore && arrive.less(bestArrive) {
				best, bestScore, bestArrive = h, sc, arrive
			}
		}
		hold[best] = hold[best].plus(w)
		open[best] = hold[best].plus(w).add(st.tails[c.arr[best]])
		hold[at], open[at] = bestArrive, bestArrive.plus(w).add(tail)
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
// Among the admissible, fewer words wins, then fewer messages. A
// focusing placer leaves the tree as it stands when no member's path is
// critical in either component.
func (pc *placer) choose(st *placeStep, grow bool) {
	op := st.op
	g := op.Group
	q := len(g)
	sh := pc.shape(q)
	for m, r := range g {
		pc.ready[m] = pc.clock[r]
	}
	asStands := pc.score(st, candidate{pc.identity[:q], op.Parent}, st.w)
	if pc.focus && asStands.words < pc.crit.words && asStands.msgs < pc.crit.msgs {
		return
	}
	pc.byReady = sortMembers(pc.byReady, sh, pc.ready[:q], false)
	pc.byTail = sortMembers(pc.byTail, sh, st.tails, true)
	var best *candidate
	bestScore := asStands
	consider := func(c *candidate) {
		if sc, ok := pc.beats(st, *c, asStands, bestScore); ok {
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
	need := st.need()
	for p, m := range best.arr {
		pc.regroup[p] = g[m]
		pc.retails[p] = st.tails[m]
		if need != nil {
			pc.reneed[p] = need.member[m]
		}
	}
	copy(g, pc.regroup[:q])
	copy(st.tails, pc.retails[:q])
	copy(op.Parent, best.parent)
	if need != nil {
		copy(need.member, pc.reneed[:q])
	}
	if pc.perEdge {
		need.freeze(op, pc.union)
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
//
// Deleting ops moves the ones after them, so it returns sends keyed by
// the ops' new addresses (nil under WireDense).
func dropMirrors(pl *Plan, sends map[*Op]*sendDemand) map[*Op]*sendDemand {
	var moved map[*Op]*sendDemand
	if sends != nil {
		moved = make(map[*Op]*sendDemand, len(sends))
	}
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
			sd := sends[op]
			if op.Kind == opR4Akj || op.Kind == opR3Col {
				dropLeaves(op, sd.perMember(), func(r int) bool {
					k, ok := pivot[fold{op.Kind, r}]
					return ok && k == op.BI
				})
				if len(op.Consumers) == 0 {
					continue
				}
			}
			kept = append(kept, *op)
			if sd != nil {
				moved[&kept[len(kept)-1]] = sd
			}
		}
		pl.Levels[li] = kept
	}
	return moved
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
