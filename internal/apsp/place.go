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
// prices re-places the trees that remain (E45), letting ranks that hold a
// panel's mirror serve it as extra roots (DESIGN.md §3 "Mirror holders",
// E47); last, dropDead takes out the work whose result is already known
// (dead.go, DESIGN.md §3 "Dead work", E48). One placer runs every step,
// and all three drops go through its guarded drop. The messages are
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
	// holders are the ranks that may serve the broadcast as mirror
	// holders (serve): the owner of the payload's mirror (mirrorOwner),
	// then the consumers of pair — the level's earlier broadcast of that
	// mirror, nil if none. holderTails[c] is holders[c]'s longest
	// remaining path from just after the op.
	holders     []int
	holderTails []tick
	pair        *placeStep
	index       int // in placer.steps
	level       int // the op's eTree level, 1-based
	// got[part] is the finite entries of the block the member at position
	// part decodes (a consuming root: its own, packed and decoded), when
	// the placer counts them; nil otherwise.
	got []int64
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

// reduceWords is the words of one message of reduce op: the unit's body,
// or on the pruned wire, for a diagonal block, its upper triangle
// (Plan.upperReduce). msgWords keeps the body's price, so the guide the
// trees are chosen by does not see the triangles.
func (pl *Plan) reduceWords(op *Op) int64 {
	n := pl.ND.Sizes[op.BI]
	if pl.upperReduce(op) {
		return int64(semiring.UpperLen(n))
	}
	return int64(n * pl.ND.Sizes[op.BJ])
}

// packWords bounds the words Plan.pack ships on the pruned wire for a
// rows×cols payload whose descriptor keeps nr rows and nc columns: one
// word when the kept rectangle is empty, the dense encoding under the
// full descriptor, else the pruned encoding of the rectangle — but never
// more than the dense encoding, pack's classic fallback, so narrowing a
// descriptor never raises the bound.
func packWords(rows, cols, nr, nc int, full bool) int64 {
	dense := int64(1 + rows*cols)
	switch {
	case nr == 0 || nc == 0:
		return 1
	case full:
		return dense
	}
	return min(int64(semiring.PrunedLen(nr, nc)), dense)
}

// deliver charges one message of w words on the forward clocks, like
// comm.Machine's Send / Recv: the message carries the sender's pre-send
// clock, the sender is charged, the receiver max-merges and is charged.
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

// placer carries one placeTrees run: the schedule and the demand
// sweep's records, the per-rank clocks of the two sweeps and the scratch
// the candidate trees are built and scored in.
type placer struct {
	pl *Plan
	// sends is what the demand sweep knows of each op that sends (nil under
	// WireDense), keyed by the op's address: drop re-keys it.
	sends  map[*Op]*sendDemand
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
	// serving: the ranks that hold a broadcast's payload mirrored may join
	// its tree as holders (serve).
	serving bool
	// record, when set, sees each message replay delivers before the
	// clocks move (Plan.Cost).
	record func(st *placeStep, m msg)
	// count: every step also counts what each position decodes
	// (placeStep.got), which Plan.Cost prices flops from.
	count bool

	// Candidate scratch, sized by reserve to the largest group.
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
	mranks   []int   // serve's members: the group's, then the holders'
	mtails   []tick  // and their tails
	lead     []int32 // serve's members that hold the payload at the start
	order    []int32 // serve's recipients in one order

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
// per-edge words (E41), and after the mirror drop one at exact prices,
// focusRounds focused ones (E45) and pairRounds pair rounds (E47; a third
// moved nothing on the served shapes).
const (
	binomialRounds = 2
	placeRounds    = 4
	focusRounds    = 2
	pairRounds     = 2
)

// placeTrees chooses the tree of every broadcast (chooseTrees), drops
// the members that fold a panel against its own mirror (dropMirrors),
// and on the pruned wire re-places the trees at exact prices (descend)
// and drops the work whose result is already known (dropDead); see the
// file comment and DESIGN.md §3. It must run after attachPrunes
// (sends is what it returned) and before indexRanks. It returns sends
// re-keyed by where the drops left each op (nil under WireDense).
func placeTrees(pl *Plan, sends map[*Op]*sendDemand) map[*Op]*sendDemand {
	pc := newPlacer(pl, sends)
	pc.chooseTrees()
	pc.dropMirrors()
	if len(pc.sends) == 0 {
		return nil // WireDense: no demand to descend by, nothing provably dead
	}
	pc.descend()
	pc.dropDead()
	return pc.sends
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
func (pc *placer) chooseTrees() {
	for round := 0; round < placeRounds; round++ {
		pc.backward()
		pc.forward(round >= binomialRounds)
	}
	if len(pc.sends) == 0 {
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
	pc.forward(true)
}

// descend re-places the trees from the plan as it stands at exact prices
// (packPrice): a per-edge round under choose's rule, dropMirrors again —
// a tree the round chose can leave a mirror member a leaf — and
// focusRounds more rounds that re-score only the broadcasts with a member
// on a critical path (focus): the first round makes almost every move,
// and a full second one costs more than the build may spend (E45). The
// last of them also lets the ranks that hold a panel's mirror serve the
// panel (serve), and pair rounds serve a panel and its mirror from both
// owners at once (pairRound, E47). The clock it replays is the one the
// executors charge, so no round makes the executed critical path longer
// in either component than the plan's it started from, and the drop is
// guarded (drop). The dense wire has no demand, and keeps the trees
// chooseTrees gave it.
func (pc *placer) descend() {
	pc.exact = true
	pc.list()
	pc.backward()
	pc.forward(true)
	pc.dropMirrors()
	pc.focus = true
	for round := 0; round < focusRounds; round++ {
		pc.backward()
		pc.serving = round == focusRounds-1
		pc.forward(true)
	}
	for round := 0; round < pairRounds; round++ {
		pc.pairRound()
	}
}

// drop deletes from each level the ops that level(ops), the level's keep
// rule, rejects — the rule may edit an op first (dropLeaves), replacing
// every list it edits — re-keys sends by the kept ops' new addresses, as
// deleting an op moves the ones after it, and re-lists the steps.
// Deleting leaves and ops deletes charges, which almost always only
// shortens every path, but an ancestor edge re-frozen without a leaf's
// demand can fit the classic encoding and hand its relay more of the
// block to re-pack (E45). So if any rank's clock, replayed at the
// placer's prices, gets later — or, once holders serve, the plan fails
// the validator, as a leaf leaving below a holder in the pair broadcast
// can narrow its capture under what it serves — drop puts every level and
// demand list back as it was.
func (pc *placer) drop(level func(ops []Op) (keep func(op *Op, sd *sendDemand) bool)) {
	pl, sends := pc.pl, pc.sends
	pc.replay(0, nil, nil)
	was := slices.Clone(pc.clock)
	levels := make([][]Op, len(pl.Levels))
	members := make(map[*bcastNeed][][]uint64, len(sends))
	for _, sd := range sends {
		if sd.need != nil {
			members[sd.need] = sd.need.member
		}
	}
	var moved map[*Op]*sendDemand
	if sends != nil {
		moved = make(map[*Op]*sendDemand, len(sends))
	}
	for li, ops := range pl.Levels {
		levels[li] = slices.Clone(ops)
		keep := level(ops)
		kept := ops[:0]
		for x := range ops {
			op := &ops[x]
			sd := sends[op]
			if !keep(op, sd) {
				continue
			}
			kept = append(kept, *op)
			if sd != nil {
				moved[&kept[len(kept)-1]] = sd
			}
		}
		pl.Levels[li] = kept
	}
	pc.sends = moved
	pc.list()
	pc.replay(0, nil, nil)
	ok := !pc.serving || pl.validate() == nil
	for r, c := range pc.clock {
		ok = ok && c.within(was[r])
	}
	if ok {
		return
	}
	for li, ops := range levels {
		pl.Levels[li] = pl.Levels[li][:len(ops)] // the array the drop compacted
		copy(pl.Levels[li], ops)
	}
	for need, member := range members {
		need.member = member
	}
	pc.sends = sends
	pc.list()
}

// latest is the critical path of per-rank ticks: of the clocks a forward
// sweep left, or of the tails a backward one did.
func latest(ticks []tick) tick {
	var crit tick
	for _, t := range ticks {
		crit = crit.max(t)
	}
	return crit
}

// newPlacer is the placer of one placeTrees run over pl, pricing at
// msgWords' bound until descend sets exact; sends (nil under WireDense) is
// what the demand sweep knows of each op that sends: its payload masks
// and each broadcast's per-member demand.
func newPlacer(pl *Plan, sends map[*Op]*sendDemand) *placer {
	pc := &placer{pl: pl, sends: sends, clock: make([]tick, pl.P), tail: make([]tick, pl.P)}
	pc.list()
	return pc
}

// list lists every op that sends, with what sends knows of it and, once
// prices are exact on the pruned wire, its mirror holders (findHolders),
// and weighs every message at the descriptor it carries — at its exact
// price if exact is set, else at msgWords' bound.
func (pc *placer) list() {
	pl := pc.pl
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
	for li, ops := range pl.Levels {
		for x := range ops {
			op := &ops[x]
			n := sendParts(op)
			if n == 0 {
				continue
			}
			st := placeStep{op: op, w: w[:n:n], sd: pc.sends[op], index: len(pc.steps), level: li + 1}
			w = w[n:]
			if pc.count {
				st.got = make([]int64, n)
			}
			if isBcast(op.Kind) {
				st.tails, tails = tails[:n:n], tails[n:]
				maxQ = max(maxQ, n)
			}
			pc.steps = append(pc.steps, st)
		}
	}
	if pc.exact && pl.Wire == WirePruned {
		maxQ = max(maxQ, pc.findHolders())
	}
	pc.reserve(maxQ)
	for i := range pc.steps {
		pc.weigh(&pc.steps[i])
	}
}

// reserve sizes the candidate scratch for groups, holders included, of up
// to maxQ members.
func (pc *placer) reserve(maxQ int) {
	if maxQ <= len(pc.pos) {
		return
	}
	maxAxis := 0
	for _, sz := range pc.pl.ND.Sizes {
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
	pc.mranks, pc.mtails, pc.lead = make([]int, 0, maxQ), make([]tick, 0, maxQ), make([]int32, 0, maxQ)
	pc.order = make([]int32, 0, maxQ)
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
// weight grow gives every edge — and a reduce at what its members send
// (reduceWords); msgWords is exact for the rest.
func (pc *placer) weigh(st *placeStep) {
	op := st.op
	if !pc.exact || st.sd == nil || pc.pl.Wire == WireDense {
		for part := range st.w {
			st.w[part] = pc.pl.msgWords(op, part)
			if st.got != nil && st.sd != nil { // the dense wire decodes whole blocks
				st.got[part] = int64(st.sd.maskOf(op, part).finite)
			}
		}
		if pc.exact && op.Kind == opReduce {
			st.w[0] = pc.pl.reduceWords(op)
		}
		return
	}
	relayed := isBcast(op.Kind) // part p > 0 is packed from what Group[Parent[p]] holds
	for part := range st.w {
		var held rect
		if relayed && op.holdsMirror(part) { // receives nothing, holds its descriptor's rectangle
			st.w[part], held = 0, pc.specRect(st.sd.mask[0], op.prune(part), part)
		} else {
			from := rect{}
			if relayed && part > 0 {
				from = pc.held[op.Parent[part]]
			}
			st.w[part], held = pc.price(st.sd.maskOf(op, part), from, op.prune(part), part)
		}
		if relayed && part > 0 {
			pc.held[part] = held
		}
		if st.got != nil {
			st.got[part] = int64(st.sd.maskOf(op, part).finiteIn(held))
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

// specRect is the rectangle descriptor spec keeps of a payload with m's
// shape, stored in slot's scratch.
func (pc *placer) specRect(m *entryMask, spec *PruneSpec, slot int) rect {
	var r rect
	if spec != nil && spec.Rows != nil {
		r.rows = listBits(pc.keep[slot].rows[:(m.rows+63)/64], spec.Rows)
	}
	if spec != nil && spec.Cols != nil {
		r.cols = listBits(pc.keep[slot].cols[:m.w], spec.Cols)
	}
	return r
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
		for c, r := range st.holders {
			st.holderTails[c] = pc.tail[r]
		}
		msgs := pc.messages(st)
		for e := len(msgs) - 1; e >= 0; e-- {
			undeliver(pc.tail, msgs[e].src, msgs[e].dst, st.w[msgs[e].part])
		}
	}
}

// forward replays the clocks in execution order, choosing the tree of
// every broadcast of three or more members first (choose); grow adds
// the greedy trees to the candidates. A serving placer then offers
// every broadcast with holders their trees (serve).
func (pc *placer) forward(grow bool) {
	pc.crit = latest(pc.tail)
	pc.replay(0, nil, func(st *placeStep) {
		if len(st.tails) >= 3 {
			pc.choose(st, grow)
		}
		if pc.serving && len(st.holders) > 0 {
			pc.serve(st, serveGuarded)
		}
	})
}

// score runs the candidate on scratch clocks, each edge weighing w[p],
// and returns the longest path through any member: max over members of
// clock after the op + remaining tail.
func (pc *placer) score(st *placeStep, c candidate, w []int64) tick {
	for p, m := range c.arr {
		pc.pos[p] = pc.ready[m]
	}
	for p := 1; p < len(c.arr); p++ {
		if c.parent[p] >= 0 {
			deliver(pc.pos, int(c.parent[p]), p, w[p])
		}
	}
	var worst tick
	for p, m := range c.arr {
		worst = worst.max(pc.pos[p].add(st.tails[m]))
	}
	return worst
}

// beats scores candidate c like score, weighing each edge as it is
// delivered (edgeWord), and reports whether c is admissible against
// asStands and scores below best; tails[m] is member m's. Every clock
// only grows as the edges are delivered, so it gives up at the first edge
// after which the longest path so far already fails either test.
func (pc *placer) beats(st *placeStep, c candidate, tails []tick, asStands, best tick) (tick, bool) {
	var worst tick
	for p, m := range c.arr {
		pc.pos[p] = pc.ready[m]
		worst = worst.max(pc.pos[p].add(tails[m]))
	}
	var unions [][]uint64
	if pc.perEdge {
		unions = st.need().unions(c.arr, c.parent, pc.union)
	}
	for p := 1; p < len(c.arr); p++ {
		up := int(c.parent[p])
		if up < 0 { // a mirror holder: what its subtree folds, transposed
			rows, cols := st.need().axes(unions[p])
			pc.held[p] = rect{rows, cols}
			continue
		}
		deliver(pc.pos, up, p, pc.edgeWord(st, c, unions, p))
		worst = worst.max(pc.pos[up].add(tails[c.arr[up]])).max(pc.pos[p].add(tails[c.arr[p]]))
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

// grow builds a greedy tree into c: the members c.arr already lists at
// positions below roots hold the payload at the start (the root, then a
// mirror holder), and the recipients, in the order given, each go to the
// holder — a root or a member placed before — that minimises the longer
// of the two paths the send opens, the recipient's arrival plus its tail
// and the holder's clock after the send plus its own tail; ties go to the
// earlier arrival, then the earlier holder. tails[m] is member m's.
func (pc *placer) grow(st *placeStep, tails []tick, roots int, recipients []int32, c candidate) {
	w := st.w[0]
	hold := pc.pos   // per position: the holder's clock after its sends so far
	open := pc.opens // per position: the holder's path if it sends next
	for p, m := range c.arr[:roots] {
		c.parent[p], hold[p] = -1, pc.ready[m]
		open[p] = hold[p].plus(w).add(tails[m])
	}
	for k, r := range recipients {
		at := roots + k
		ready, tail := pc.ready[r], tails[r]
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
		open[best] = hold[best].plus(w).add(tails[c.arr[best]])
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
		if sc, ok := pc.beats(st, *c, st.tails, asStands, bestScore); ok {
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
			cand.arr[0] = 0
			pc.grow(st, st.tails, 1, members, *cand)
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

// findHolders lists every broadcast's possible mirror holders: the
// owner of the mirror of an R4 or R3 panel (mirrorOwner), and for an R4
// row-panel or R3 column broadcast of A(k,j) the consumers of the level's
// column-panel or row broadcast of A(j,k), which captured their slice of
// it before. A panel broadcast's pivot names its level, so its kind and
// block name it. It returns the largest group plus holders, for the
// scratch.
func (pc *placer) findHolders() int {
	n := pc.pl.NSup
	at := make([]*placeStep, int(numOpKinds)*n*n) // by kind and block
	key := func(kind uint8, bi, bj int) int { return (int(kind)*n+bi-1)*n + bj - 1 }
	maxQ := 0
	for i := range pc.steps {
		st := &pc.steps[i]
		op := st.op
		if !isBcast(op.Kind) {
			continue
		}
		at[key(op.Kind, op.BI, op.BJ)] = st
		owner := mirrorOwner(op, pc.pl.NSup)
		if owner < 0 {
			continue
		}
		st.holders = []int{owner}
		if pair := at[key(mirrorPair(op.Kind), op.BJ, op.BI)]; pair != nil {
			st.pair = pair
			for _, r := range pair.op.Consumers {
				if r != owner {
					st.holders = append(st.holders, r)
				}
			}
		}
		st.holderTails = make([]tick, len(st.holders))
		maxQ = max(maxQ, len(op.Group)+len(st.holders))
	}
	return maxQ
}

// serveMode is how serve picks a tree: serveGuarded by choose's rule,
// from every holder; serveOwner and serveAll take the greedy tree over
// the members by descending tail whatever it costs, with the holders'
// tails taken as empty — from the owner alone, or from every holder — and
// leave the judging to pairRound's replay.
type serveMode int

const (
	serveGuarded serveMode = iota
	serveOwner
	serveAll
)

// serve lets st's broadcast of A(BI,BJ) start from more than its root:
// a mirror holder holds A(BJ,BI) = A(BI,BJ)ᵀ at that point of its
// program — the owner its own block, a consumer of the pair broadcast the
// slice it captured, which must cover every member's demand — so it can
// send slices of the transpose without receiving anything, and a member
// that holds it already stops receiving it. serve grows the greedy trees
// from the root and every holder, each at a position of its own with
// Parent -1, over the other members by descending tail and by ascending
// ready clock, and installs the better one under
// choose's rule: admissible against the tree as it stands — the holders'
// paths, which the op does not touch yet, included — and fewer words,
// then fewer messages; mode says otherwise (serveMode). A holder left
// without a child leaves the group unless it folds the payload.
func (pc *placer) serve(st *placeStep, mode serveMode) {
	force := mode != serveGuarded
	op, need := st.op, st.need()
	g := op.Group
	q := len(g)
	for m, r := range g {
		pc.ready[m] = pc.clock[r]
	}
	asStands := pc.score(st, candidate{pc.identity[:q], op.Parent}, st.w)
	ranks := append(pc.mranks[:0], g...)
	tails := append(pc.mtails[:0], st.tails...)
	lead := append(pc.lead[:0], 0) // the members that hold the payload at the start
	for c, r := range st.holders {
		if c > 0 && (mode == serveOwner || !capturesMirror(st.pair.op, op, r, op.prune(0))) {
			continue
		}
		switch m := position(g, r); {
		case m == 0: // an R2 pivot's owner is its root
		case m > 0: // a member that holds the payload already stops receiving it
			lead = append(lead, int32(m))
		default:
			m = len(ranks)
			ranks, tails = append(ranks, r), append(tails, st.holderTails[c])
			if force {
				tails[m] = tick{}
			}
			pc.ready[m] = pc.clock[r]
			asStands = asStands.max(pc.ready[m].add(tails[m]))
			lead = append(lead, int32(m))
		}
	}
	n, roots := len(ranks), len(lead)
	if roots == 1 || !force && pc.focus && asStands.words < pc.crit.words && asStands.msgs < pc.crit.msgs {
		return
	}
	for m := q; m < n; m++ {
		need.member = append(need.member, bitset(need.dim())) // a holder folds nothing
	}
	var best *candidate
	bestScore := asStands
	relayed := op.Kind == opR2Left || op.Kind == opR2Right // a pivot's members that fold nothing relay it
	for c, desc := range [2]bool{true, false} {
		key := pc.ready[:n]
		if desc {
			key = tails
		}
		pc.order = pc.order[:0]
		for m := int32(1); m < int32(q); m++ {
			if slices.Contains(lead, m) || !relayed && !contains(op.Consumers, g[m]) {
				continue // a holder this mode does not serve from needs nothing
			}
			i := len(pc.order)
			pc.order = append(pc.order, m)
			for ; i > 0 && before(key, desc, m, pc.order[i-1]); i-- {
				pc.order[i] = pc.order[i-1]
			}
			pc.order[i] = m
		}
		cand := &pc.cand[2+c]
		cand.arr, cand.parent = cand.arr[:roots+len(pc.order)], cand.parent[:roots+len(pc.order)]
		copy(cand.arr, lead)
		pc.grow(st, tails, roots, pc.order, *cand)
		if force { // the replay judges it
			best = cand
			break
		}
		if sc, ok := pc.beats(st, *cand, tails, asStands, bestScore); ok {
			best, bestScore = cand, sc
		}
	}
	if best == nil {
		need.member = need.member[:q]
		return
	}
	// Install best without the childless holders that fold nothing.
	kids := make([]int32, n)
	for p := 1; p < len(best.arr); p++ {
		if up := best.parent[p]; up >= 0 {
			kids[up]++
		}
	}
	at := make([]int32, n)
	var group []int
	var parent []int32
	var member [][]uint64
	st.tails = st.tails[:0:0]
	for p, m := range best.arr {
		if p > 0 && p < roots && kids[p] == 0 && !contains(op.Consumers, ranks[m]) {
			continue
		}
		at[p] = int32(len(group))
		up := best.parent[p]
		if up >= 0 {
			up = at[up]
		}
		group, parent = append(group, ranks[m]), append(parent, up)
		member, st.tails = append(member, need.member[m]), append(st.tails, tails[m])
	}
	op.Group, op.Parent, need.member = group, parent, member
	if len(st.w) != len(group) {
		st.w = make([]int64, len(group))
	}
	need.freeze(op, pc.union)
	pc.weigh(st)
}

// relays reports, per position of broadcast op, whether the member sends
// to another.
func (op *Op) relays() []bool {
	relays := make([]bool, len(op.Group))
	for p := 1; p < len(op.Group); p++ {
		if !op.holdsMirror(p) {
			relays[op.Parent[p]] = true
		}
	}
	return relays
}

// replay replays the clocks in execution order, from step
// i on and the clocks from (all zero when nil), calling hook (if any) on
// each step before its messages and record (if set) on each message
// before it is delivered, and returns the critical path.
func (pc *placer) replay(i int, from []tick, hook func(*placeStep)) tick {
	if from == nil {
		clear(pc.clock)
	} else {
		copy(pc.clock, from)
	}
	for ; i < len(pc.steps); i++ {
		st := &pc.steps[i]
		if hook != nil {
			hook(st)
		}
		for _, m := range pc.messages(st) {
			if pc.record != nil {
				pc.record(st, m)
			}
			deliver(pc.clock, m.src, m.dst, st.w[m.part])
		}
	}
	return latest(pc.clock)
}

// PlanCost is the Report and the per-level phase costs an execute of the
// plan gives, priced without executing: every field is what the machine
// reference charges (TestPlanClockIsExact), so an execute reports this.
type PlanCost struct {
	comm.Report
	Phases []comm.PhaseCost
}

// PlanTraffic is every message of a plan and its critical chains.
// Messages is every message in replay order, TotalMessages of them;
// summed per (Src, Dst) it is the words-sent matrix. The words chain is
// the critical path's messages in send order, whose words sum to
// Critical.Bandwidth; the messages chain has Critical.Latency links.
type PlanTraffic struct {
	Messages                  []Segment
	WordsChain, MessagesChain []Segment
}

// Segment is one message of a plan: its op's eTree level (1-based) and
// send class, the payload block A(BI,BJ), its sender and receiver, and
// its words.
type Segment struct {
	Level, BI, BJ, Src, Dst int
	Class                   comm.SendClass
	Words                   int64
}

// Cost is the plan clock at exact prices: one replay of every message
// at what pack ships for it, priced from the demand sweep's masks over
// ly — those BuildPlan's sweep kept, else a sweep of its own — with every
// rank's flops and memory priced beside it (pricer). It refuses a layout
// from another dissection, as ExecuteOpts does.
// The plan keeps the first call's result and returns it to every later
// call, whatever layout that call passes, so ly must have the structure
// the plan was built for; callers must not modify the result.
func (pl *Plan) Cost(ly *Layout) (*PlanCost, error) {
	if err := pl.checkLayout(ly); err != nil {
		return nil, err
	}
	pl.costOnce.Do(func() { pl.cost = pl.exactCost(ly) })
	return pl.cost, nil
}

// exactPlacer is the placer that replays pl at exact prices from the
// masks sends.
func (pl *Plan) exactPlacer(sends map[*Op]*sendDemand) *placer {
	pc := newPlacer(pl, sends)
	pc.exact, pc.count = true, true
	pc.list()
	return pc
}

// segment is message m of step st.
func (st *placeStep) segment(m msg) Segment {
	bi, bj := st.op.payload(m.part)
	return Segment{st.level, bi, bj, m.src, m.dst, opSendClass[st.op.Kind], st.w[m.part]}
}

// exactCost replays pl at exact prices, summing the report. Before each
// message the pricer brings both ranks' programs up to the message's op,
// and the receiver max-merges the sender's flops as deliver does its
// words and messages.
func (pl *Plan) exactCost(ly *Layout) *PlanCost {
	sends, work := pl.masks, pl.work
	if sends == nil {
		sends, work = sweepPlan(pl, ly, false)
	}
	pl.masks, pl.work = nil, nil
	pc := pl.exactPlacer(sends)
	pr := newPricer(pc, work)
	c := &PlanCost{Report: comm.Report{P: pl.P, PerRank: make([]comm.Cost, pl.P), PeakWords: make([]int64, pl.P),
		LocalFlops: make([]int64, pl.P), LocalSent: make([]int64, pl.P)}}
	pc.record = func(st *placeStep, m msg) {
		pr.upTo(m.src, st.op)
		pr.upTo(m.dst, st.op)
		pr.ranks[m.dst].flops = max(pr.ranks[m.dst].flops, pr.ranks[m.src].flops)
		seg := st.segment(m)
		c.TotalMessages++
		c.TotalWords += seg.Words
		c.LocalSent[m.src] += seg.Words
		c.WordsByClass[seg.Class] += seg.Words
	}
	crit := pc.replay(0, nil, nil)
	for r, t := range pc.clock {
		pr.upTo(r, nil)
		rp := &pr.ranks[r]
		c.PerRank[r] = comm.Cost{Latency: t.msgs, Bandwidth: t.words, Flops: rp.flops}
		c.PeakWords[r], c.LocalFlops[r] = rp.peak, rp.local
		c.MaxMemory = max(c.MaxMemory, rp.peak)
		c.Critical.Flops = max(c.Critical.Flops, rp.flops)
	}
	c.Critical.Latency, c.Critical.Bandwidth = crit.msgs, crit.words
	c.Phases = comm.Phases(pr.ids, pr.marks)
	return c
}

// Traffic replays the plan clock Cost prices once more, from a demand
// sweep of its own over ly, and keeps every message and, per clock
// component and rank, the chain that component ends on: a sender extends
// its own, a receiver whichever of its own and the sender's pre-send
// chain deliver max-merges in (its own on a tie). Nothing of it is kept
// on the plan; it refuses a layout from another dissection, as Cost does.
func (pl *Plan) Traffic(ly *Layout) (*PlanTraffic, error) {
	if err := pl.checkLayout(ly); err != nil {
		return nil, err
	}
	sends, _ := sweepPlan(pl, ly, false)
	pc := pl.exactPlacer(sends)
	t := &PlanTraffic{}
	type link struct {
		seg  Segment
		prev *link
	}
	// Per component (words, messages), each rank's chain, newest first.
	last := [2][]*link{make([]*link, pl.P), make([]*link, pl.P)}
	of := [2]func(tick) int64{func(t tick) int64 { return t.words }, func(t tick) int64 { return t.msgs }}
	pc.record = func(st *placeStep, m msg) {
		seg := st.segment(m)
		t.Messages = append(t.Messages, seg)
		for k, chain := range last {
			from := chain[m.dst]
			if of[k](pc.clock[m.src]) > of[k](pc.clock[m.dst]) {
				from = chain[m.src]
			}
			chain[m.src], chain[m.dst] = &link{seg, chain[m.src]}, &link{seg, from}
		}
	}
	crit := pc.replay(0, nil, nil)
	for k, out := range [2]*[]Segment{&t.WordsChain, &t.MessagesChain} {
		end := slices.IndexFunc(pc.clock, func(c tick) bool { return of[k](c) == of[k](crit) })
		for l := last[k][end]; l != nil; l = l.prev {
			*out = append(*out, l.seg)
		}
		slices.Reverse(*out)
	}
	return t, nil
}

// pairRound tries, for every pair of panel broadcasts of a block and its
// mirror, serving both from both owners at once: the earlier broadcast's
// root owns the later one's payload transposed and the later one's root
// the earlier one's, so each can take the other's sends. Neither move
// alone shortens a path when both roots are busy with their own
// fan-outs, so serve never takes it; the schedule is replayed from the
// earlier broadcast on under each of serve's two forcing modes, and the
// better is kept if the critical path gets no longer in either
// component. Like the focused rounds it tries only the pairs with a
// member on a critical path as the round starts, at the tails of the
// trees as they stand — so a second round re-grows the pairs the first
// served, knowing which members now serve.
func (pc *placer) pairRound() {
	pc.backward()
	pc.crit = latest(pc.tail)
	onPath := make([]bool, len(pc.steps))
	crit := pc.replay(0, nil, func(st *placeStep) {
		if st.holders == nil {
			return
		}
		q := len(st.op.Group)
		for m, r := range st.op.Group {
			pc.ready[m] = pc.clock[r]
		}
		s := pc.score(st, candidate{pc.identity[:q], st.op.Parent}, st.w)
		onPath[st.index] = s.words >= pc.crit.words
	})
	lateOf := make(map[int]*placeStep)
	for i := range pc.steps {
		late := &pc.steps[i]
		if early := late.pair; early != nil && late.op.Kind != opR2Right && (onPath[i] || onPath[early.index]) {
			lateOf[early.index] = late
		}
	}
	at := make([]tick, len(pc.clock)) // the clocks before step i
	for i := range pc.steps {
		early := &pc.steps[i]
		if late := lateOf[i]; late != nil {
			pick, best := serveGuarded, crit
			for _, mode := range [2]serveMode{serveAll, serveOwner} {
				undo := pc.saveSteps(early, late)
				if now := pc.replay(i, at, pc.servePair(early, late, mode)); now.within(best) && (pick == serveGuarded || now.less(best)) {
					pick, best = mode, now
				}
				undo()
			}
			if pick != serveGuarded {
				crit = pc.replay(i, at, pc.servePair(early, late, pick))
			}
		}
		for _, m := range pc.messages(early) {
			deliver(at, m.src, m.dst, early.w[m.part])
		}
	}
}

// servePair is the replay hook that serves early and late in mode.
func (pc *placer) servePair(early, late *placeStep, mode serveMode) func(*placeStep) {
	return func(st *placeStep) {
		if st == early || st == late {
			pc.serve(st, mode)
		}
	}
}

// saveSteps records what serve replaces of the given steps and returns
// the function that puts it back.
func (pc *placer) saveSteps(steps ...*placeStep) (undo func()) {
	type saved struct {
		group  []int
		parent []int32
		prune  []*PruneSpec
		member [][]uint64
		w      []int64
		tails  []tick
	}
	was := make([]saved, len(steps))
	for i, st := range steps {
		was[i] = saved{st.op.Group, st.op.Parent, st.op.Prune, st.need().member, slices.Clone(st.w), st.tails}
	}
	return func() {
		for i, st := range steps {
			s := was[i]
			st.op.Group, st.op.Parent, st.op.Prune, st.need().member, st.w, st.tails = s.group, s.parent, s.prune, s.member, s.w, s.tails
		}
	}
}

// before orders serve's recipients like sortMembers: by key, ascending or
// descending, ties by member index.
func before(key []tick, desc bool, a, b int32) bool {
	ka, kb := key[a], key[b]
	if desc {
		ka, kb = kb, ka
	}
	if ka != kb {
		return ka.less(kb)
	}
	return a < b
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
// It runs after the trees are chosen, and again inside the descent,
// through drop's guard (TestMirrorDropNeverLengthensAClock). The placer
// run without these members from the start has no such guarantee, and
// measured above the parent in 26 of 208 sweep cells, the served grid
// among them (E44).
func (pc *placer) dropMirrors() {
	type fold struct {
		kind uint8 // the broadcast of the mirror panel
		rank int
	}
	pc.drop(func(ops []Op) func(op *Op, sd *sendDemand) bool {
		pivot := make(map[fold]int) // the k of the A(i,k) a rank folds into a diagonal block
		for _, op := range ops {
			switch {
			case op.Kind == opUnit && op.BI == op.BJ:
				pivot[fold{opR4Akj, op.Root}] = op.K
			case op.Kind == opR3Row:
				for _, r := range op.Consumers {
					if i, j := blockOf(r, pc.pl.NSup); i == j {
						pivot[fold{opR3Col, r}] = op.BJ
					}
				}
			}
		}
		return func(op *Op, sd *sendDemand) bool {
			if op.Kind != opR4Akj && op.Kind != opR3Col {
				return true
			}
			need := sd.perMember()
			if dropLeaves(op, need, func(r int) bool {
				k, ok := pivot[fold{op.Kind, r}]
				return ok && k == op.BI
			}) && need != nil {
				need.freeze(op, pc.union)
			}
			return len(op.Consumers) > 0
		}
	})
}

// dropLeaves removes from broadcast op every member past the root that
// relays to no one and drop selects — from its tree, its consumers and
// need (nil under WireDense) — and reports whether it removed any; the
// caller re-freezes op's descriptors (bcastNeed.freeze). It edits copies
// of the lists, so the copy of op a drop keeps holds its own (drop).
func dropLeaves(op *Op, need *bcastNeed, drop func(r int) bool) bool {
	q := len(op.Group)
	relays := op.relays()
	at := make([]int32, q) // old position -> new
	n := 0
	for p, r := range op.Group {
		if p > 0 && !relays[p] && drop(r) {
			if n == p { // the first drop
				op.Group, op.Parent, op.Consumers = slices.Clone(op.Group), slices.Clone(op.Parent), slices.Clone(op.Consumers)
				if need != nil {
					need.member = slices.Clone(need.member)
				}
			}
			op.Consumers = slices.DeleteFunc(op.Consumers, func(c int) bool { return c == r })
			continue
		}
		at[p] = int32(n)
		op.Group[n] = r
		if p > 0 && !op.holdsMirror(p) {
			op.Parent[n] = at[op.Parent[p]]
		} else if p > 0 {
			op.Parent[n] = -1
		}
		if need != nil {
			need.member[n] = need.member[p]
		}
		n++
	}
	if n == q {
		return false
	}
	op.Group, op.Parent = op.Group[:n], op.Parent[:n]
	if need != nil {
		need.member = need.member[:n]
	}
	return true
}
