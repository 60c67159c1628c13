package apsp

import "sort"

// Tree placement: the last symbolic pass of BuildPlan. A broadcast is a
// binomial tree over its group IN GROUP ORDER, and §3.1's model charges
// every message to the sender and to the receiver, so which member sits
// at an interior position decides how long the level's dependent chain
// gets. BuildPlan knows every message of the solve and — once the demand
// sweep has frozen the payload rectangles — an upper bound on its size,
// so it can replay the machine's cost clocks symbolically and choose
// each group's order from them. The pass permutes a broadcast's
// Op.Group and nothing else: the same messages travel, only who relays
// them changes (DESIGN.md §3 "Group order", EXPERIMENTS.md E30). The
// messages are appendMessages', the expansion the dataflow lowering
// wires, so the clock replayed here is the one the executors charge
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

// less orders by words, then messages — the order arrangements and sort
// keys are preferred in.
func (t tick) less(o tick) bool {
	if t.words != o.words {
		return t.words < o.words
	}
	return t.msgs < o.msgs
}

// treeShape is the binomial tree of a broadcast over q members with the
// root at position 0, and the two position orders the candidate
// arrangements fill. It depends on q alone.
type treeShape struct {
	// tree is the broadcast's messages between positions, in
	// appendMessages' order.
	tree []msg
	// relays: positions 1..q-1, most children first, then earliest
	// receive slot — where an idle member is most useful.
	relays []int32
	// finish: positions 1..q-1 by earliest finish (receive slot plus own
	// sends) — where a member with a long remaining chain should sit.
	finish []int32
}

func newTreeShape(q int) *treeShape {
	positions := make([]int, q)
	for i := range positions {
		positions[i] = i
	}
	// Any broadcast kind: the tree depends on the group size alone.
	sh := &treeShape{tree: appendMessages(nil, opR3Row, positions, 0)}
	slot := make([]int, q)     // message step at which the position holds the payload
	children := make([]int, q) // sends the position makes
	for _, m := range sh.tree {
		children[m.src]++
		slot[m.dst] = slot[m.src] + children[m.src]
	}
	for pos := 1; pos < q; pos++ {
		sh.relays = append(sh.relays, int32(pos))
		sh.finish = append(sh.finish, int32(pos))
	}
	sort.Slice(sh.relays, func(a, b int) bool {
		x, y := int(sh.relays[a]), int(sh.relays[b])
		if children[x] != children[y] {
			return children[x] > children[y]
		}
		if slot[x] != slot[y] {
			return slot[x] < slot[y]
		}
		return x < y
	})
	sort.Slice(sh.finish, func(a, b int) bool {
		x, y := int(sh.finish[a]), int(sh.finish[b])
		if fx, fy := slot[x]+children[x], slot[y]+children[y]; fx != fy {
			return fx < fy
		}
		return x < y
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

// placer carries one placeTrees run: the schedule, the per-rank clocks
// of the two sweeps and the scratch the candidate arrangements are
// built and scored in.
type placer struct {
	steps  []placeStep
	clock  []tick // forward sweep: per-rank clock
	tail   []tick // backward sweep: per-rank longest remaining path
	shapes []*treeShape
	msgs   []msg // the messages of the op at hand

	// Candidate scratch, sized to the largest group.
	pos      []tick // per-position clocks of the arrangement being scored
	ready    []tick // per-member clock before the op
	byKey    memberSort
	cand     [2][]int32 // arrangements (b) and (c): member index per position
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

// memberSort orders member indices by key (ascending or descending),
// ties by index, without allocating per sort.
type memberSort struct {
	idx  []int32
	key  []tick
	desc bool
}

func (s *memberSort) Len() int      { return len(s.idx) }
func (s *memberSort) Swap(i, j int) { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *memberSort) Less(i, j int) bool {
	a, b := s.idx[i], s.idx[j]
	if ka, kb := s.key[a], s.key[b]; ka != kb {
		if s.desc {
			return kb.less(ka)
		}
		return ka.less(kb)
	}
	return a < b
}

// placeRounds is how often the two sweeps run: the second round
// recomputes the tails from the first round's shapes. A third still moved
// 13 of 416 sweep cells (never for the worse), not enough to pay for a
// third of the pass's time (E30).
const placeRounds = 2

// placeTrees chooses the member order of every broadcast group; see the
// file comment and DESIGN.md §3. It must run after attachPrunes (the
// payload rectangles are its word sizes) and before indexRanks.
func placeTrees(pl *Plan) {
	pc := newPlacer(pl)
	for round := 0; round < placeRounds; round++ {
		pc.backward()
		pc.forward(true)
	}
}

// newPlacer lists every op that sends, each broadcast rotated so that
// its root leads the group: comm.Ctx.bcast numbers positions relative
// to the root, so the rotation keeps the tree exactly as planned and
// lets every later step treat index 0 as the root.
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
				if i := position(op.Group, op.Root); i > 0 {
					op.Group = append(append(make([]int, 0, len(op.Group)), op.Group[i:]...), op.Group[:i]...)
				}
				st.tails = make([]tick, len(op.Group))
				maxQ = max(maxQ, len(op.Group))
			}
			pc.steps = append(pc.steps, st)
		}
	}
	pc.shapes = make([]*treeShape, maxQ+1)
	pc.pos = make([]tick, maxQ)
	pc.ready = make([]tick, maxQ)
	pc.byKey.idx = make([]int32, 0, maxQ)
	pc.cand[0] = make([]int32, maxQ)
	pc.cand[1] = make([]int32, maxQ)
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
	pc.msgs = appendMessages(pc.msgs[:0], st.op.Kind, st.op.Group, st.op.Root)
	return pc.msgs
}

// backward computes, for every rank's program point, the longest
// remaining path — a property of the ops still to run and their current
// shapes, independent of any clock — and records it per broadcast
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
// broadcast of three or more members is re-arranged first (choose).
func (pc *placer) forward(choose bool) {
	for r := range pc.clock {
		pc.clock[r] = tick{}
	}
	for i := range pc.steps {
		st := &pc.steps[i]
		if choose && len(st.tails) >= 3 {
			pc.choose(st)
		}
		for _, m := range pc.messages(st) {
			deliver(pc.clock, m.src, m.dst, st.w[m.part])
		}
	}
}

// score runs the tree over the arrangement (member index per position)
// on scratch clocks and returns the longest path through any member:
// max over members of clock after the op + remaining tail.
func (pc *placer) score(st *placeStep, sh *treeShape, arr []int32) tick {
	for p, m := range arr {
		pc.pos[p] = pc.ready[m]
	}
	for _, m := range sh.tree {
		deliver(pc.pos, m.src, m.dst, st.w[0])
	}
	var worst tick
	for p, m := range arr {
		worst = worst.max(pc.pos[p].add(st.tails[m]))
	}
	return worst
}

// choose scores three arrangements of st's group and installs the best
// admissible one:
//
//	(a) as it stands;
//	(b) members by ascending ready clock onto the positions with the
//	    most children, then the earliest receive — busy members become
//	    late leaves, idle ones relay;
//	(c) members by descending tail onto the positions that finish
//	    earliest — the longest remaining chain is served first.
//
// (b) or (c) is admissible only if neither of its components exceeds
// (a)'s. The critical path is the maximum of clock + tail over the cut
// just after this op; the tails do not depend on the arrangement and
// non-members are untouched, so an admissible arrangement cannot
// lengthen any path in either component — whatever the sort keys do.
// Among the admissible, fewer words wins, then fewer messages.
func (pc *placer) choose(st *placeStep) {
	g := st.op.Group
	q := len(g)
	sh := pc.shape(q)
	for m, r := range g {
		pc.ready[m] = pc.clock[r]
	}
	asPlanned := pc.score(st, sh, pc.identity[:q])
	best, bestScore := []int32(nil), asPlanned
	for c, order := range [2][]int32{sh.relays, sh.finish} {
		s := &pc.byKey
		s.idx = s.idx[:0]
		for m := 1; m < q; m++ {
			s.idx = append(s.idx, int32(m))
		}
		if c == 0 {
			s.key, s.desc = pc.ready[:q], false
		} else {
			s.key, s.desc = st.tails, true
		}
		sort.Sort(s)
		arr := pc.cand[c][:q]
		arr[0] = 0
		for k, p := range order {
			arr[p] = s.idx[k]
		}
		if sc := pc.score(st, sh, arr); sc.within(asPlanned) && sc.less(bestScore) {
			best, bestScore = arr, sc
		}
	}
	if best == nil {
		return
	}
	for p, m := range best {
		pc.regroup[p] = g[m]
		pc.retails[p] = st.tails[m]
	}
	copy(g, pc.regroup[:q])
	copy(st.tails, pc.retails[:q])
}
