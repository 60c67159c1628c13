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
// rewrites a broadcast's Op.Group order and Op.Parent and nothing else:
// the same members receive the same payload, only the tree it travels
// down changes (DESIGN.md §3 "Broadcast trees", EXPERIMENTS.md E30,
// E40). The messages are appendMessages', the expansion the dataflow
// lowering wires, so the clock replayed here is the one the executors
// charge (TestPlanClockIsExact).

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
	w  [2]int64 // words of one message of each payload part
	// tails[i] is the longest remaining path from broadcast member
	// op.Group[i]'s program point just after the op; nil for the rest.
	tails []tick
}

// msgWords bounds from above the words one message of op's part-th
// payload carries: a reduce's raw unit body under both wires, the raw
// body under WireDense, else what Plan.pack ships for the frozen demand
// rectangle — the dense encoding when no descriptor applies, one word
// when an axis is empty.
func (pl *Plan) msgWords(op *Op, part int) int64 {
	bi, bj := op.payload(part)
	rows, cols := pl.ND.Sizes[bi], pl.ND.Sizes[bj]
	prune := op.Prune[part]
	switch {
	case pl.Wire == WireDense || op.Kind == opReduce:
		return int64(rows * cols)
	case prune == nil && rows*cols == 0:
		return 1
	case prune == nil:
		return int64(1 + rows*cols)
	}
	nr, nc := rows, cols
	if prune.Rows != nil {
		nr = len(prune.Rows)
	}
	if prune.Cols != nil {
		nc = len(prune.Cols)
	}
	if nr == 0 || nc == 0 {
		return 1
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
	steps  []placeStep
	clock  []tick // forward sweep: per-rank clock
	tail   []tick // backward sweep: per-rank longest remaining path
	shapes []*treeShape
	msgs   []msg // the messages of the op at hand

	// Candidate scratch, sized to the largest group.
	pos      []tick       // per-position clocks of the tree being scored
	ready    []tick       // per-member clock before the op
	byReady  []int32      // members 1..q-1 by ascending ready clock
	byTail   []int32      // members 1..q-1 by descending tail
	cand     [4]candidate // (b)–(e) of choose
	regroup  []int
	retails  []tick
	identity []int32
}

func (pc *placer) shape(q int) *treeShape {
	if pc.shapes[q] == nil {
		pc.shapes[q] = newTreeShape(q)
	}
	return pc.shapes[q]
}

// binomialRounds is how many rounds re-arrange members over the binomial
// tree only; placeRounds is how often the two sweeps run in all, the
// later rounds also growing greedy trees. Each round recomputes the tails
// from the previous round's trees. A third binomial round still moved 13
// of 416 sweep cells (never for the worse), not enough to pay for a third
// of the pass's time (E30); the two greedy rounds are E40's.
const (
	binomialRounds = 2
	placeRounds    = 4
)

// placeTrees chooses the tree of every broadcast; see the file comment
// and DESIGN.md §3. It must run after attachPrunes (the payload
// rectangles are its word sizes) and before indexRanks.
func placeTrees(pl *Plan) {
	pc := newPlacer(pl)
	for round := 0; round < placeRounds; round++ {
		pc.backward()
		pc.forward(true, round >= binomialRounds)
	}
}

// newPlacer lists every op that sends.
func newPlacer(pl *Plan) *placer {
	pc := &placer{clock: make([]tick, pl.P), tail: make([]tick, pl.P)}
	maxQ := 0
	for _, ops := range pl.Levels {
		for x := range ops {
			op := &ops[x]
			if op.Kind == opDiag || op.Kind == opUnit {
				continue
			}
			st := placeStep{op: op, w: [2]int64{pl.msgWords(op, 0), pl.msgWords(op, 1)}}
			if isBcast(op.Kind) {
				st.tails = make([]tick, len(op.Group))
				maxQ = max(maxQ, len(op.Group))
			}
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
	pc.regroup = make([]int, maxQ)
	pc.retails = make([]tick, maxQ)
	pc.identity = make([]int32, maxQ)
	for i := range pc.identity {
		pc.identity[i] = int32(i)
	}
	return pc
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
	for p, m := range c.arr {
		pc.pos[p] = pc.ready[m]
	}
	for p := 1; p < len(c.arr); p++ {
		deliver(pc.pos, int(c.parent[p]), p, st.w[0])
	}
	var worst tick
	for p, m := range c.arr {
		worst = worst.max(pc.pos[p].add(st.tails[m]))
	}
	return worst
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
	}
	copy(g, pc.regroup[:q])
	copy(st.tails, pc.retails[:q])
	copy(op.Parent, best.parent)
}
