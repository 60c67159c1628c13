package apsp

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sparseapsp/internal/semiring"
)

// The plan executor. A Plan freezes the entire communication schedule
// — every collective's group, root and tree — so nothing about an
// execute needs discovering at run time: p free-running rank
// goroutines, cond-var mailboxes and linear-scan message matching (the
// reference semantics, executeMachine in machine_test.go) only re-derive,
// expensively, a partial order that is already known. This file lowers
// the per-rank programs into that partial order explicitly — a static
// dependency graph whose micro-nodes are the programs' steps and whose
// edges are each rank's program order plus one edge per point-to-point
// message hidden inside the collectives —
// and runs ready nodes on a bounded worker pool (semiring.Pool,
// GOMAXPROCS-ish workers) instead of p rank goroutines. Message
// payloads move by direct buffer handoff through preallocated slots.
// The executor counts nothing: the report it returns is the plan's
// price (Plan.Cost), computed once per plan from the structure alone.
//
// There is one lowering, one schedule and one ready set (decision
// records: EXPERIMENTS.md E28, E38):
//
//   - Coalescing: consecutive micro-nodes of one rank are merged into
//     super-nodes whenever the merge provably cannot create a dependency
//     cycle, shrinking the scheduled graph (fewer pushes, atomics and
//     panic fences) while executing the exact same micro sequence, each
//     micro-node through the one exec.
//   - Critical-path priorities: every super-node carries the longest
//     cost path from itself to any sink (priorityCost over the per-op
//     messages, words and flops of the dense block sizes), computed by a
//     reverse topological sweep at lowering and frozen into a total
//     order. The ready set is one bitmap over that order under one lock,
//     and every worker — one or several — pops its lowest set bit, the
//     globally most critical ready node.
//
// The distances are bit-identical to the machine reference's. The
// argument (spelled out in DESIGN.md): both walk, per rank, the same
// program (Plan.ranks) through the same numeric steps (exec.go) —
// program order is enforced by the next edge (micro order inside a
// super-node, the next link across them), and each receive is wired to
// the message comm's collective would have delivered (appendMessages) —
// so the numeric kernels see the same operand bytes in the same order.
// The machine still counts what its ranks do, and that count is the
// referee the plan's price is held to (TestPlanClockIsExact).

// dfKindNames and dfPhaseNames back the runtime/pprof labels: op_kind
// is the micro-node kind, phase the paper region it belongs to.
var dfKindNames = [numKinds]string{
	opDiag: "diag", opR2Left: "r2", opR2Right: "r2", opR4Aik: "r4col", opR4Akj: "r4row",
	opUnit: "unit", opReduce: "reduce", opSeq: "seq", opTrans: "trans", opR3Row: "r3", opR3Col: "r3",
	kindR4Release: "r4done", kindR3Combine: "r3mul",
}

var dfPhaseNames = [numKinds]string{
	opDiag: "r1", opR2Left: "r2", opR2Right: "r2", opR4Aik: "r4", opR4Akj: "r4",
	opUnit: "r4", opReduce: "r4-reduce", opSeq: "r4-seq", opTrans: "trans", opR3Row: "r3", opR3Col: "r3",
	kindR4Release: "r4", kindR3Combine: "r3",
}

// dfNode is one micro-node of the lowered graph: one step of one rank's
// program. recvs and sends list the node's message slots in the order
// the machine executor receives and sends them on this rank.
type dfNode struct {
	step
	rank  int32
	next  int32 // same-rank successor in program order, -1 if last
	recvs []int32
	sends []int32
}

// dfSuper is one scheduled node: a run of count consecutive micro-nodes
// of one rank (micro ids [first, first+count), contiguous because
// lowering emits each rank's program in one block).
type dfSuper struct {
	first int32
	count int32
	next  int32 // same-rank successor super-node, -1 if last
	deps  int32 // initial dependency count: program pred + member recvs
	prio  int64 // longest cost path to a sink (critical-path priority)
}

// dfProgram is the complete lowered graph: immutable once built,
// shared by every concurrent Execute of the plan.
type dfProgram struct {
	micros      []dfNode
	supers      []dfSuper
	superOf     []int32 // micro id -> owning super-node
	msgConsumer []int32 // message slot -> consuming micro-node
	msgPart     []int32 // message slot -> the payload part it carries (msg.part)
	seeds       []int32 // super-nodes with deps == 0: the heads of ranks whose first step receives nothing
	maxScratch  int     // max ScratchWords over ranks: per-worker arena size

	// Static priority rank: prioIdx[sid] is the super-node's position
	// in (prio desc, id asc) order and prioSid is its inverse.
	// Priorities are pure functions of the symbolic schedule, so the
	// total order is frozen at lowering — the ready bitmap is indexed by
	// these positions instead of comparing prio at run time.
	prioIdx []int32
	prioSid []int32
}

// dataflow returns the plan's lowered graph, built on first use and
// cached: the lowering is a pure function of the symbolic schedule, so
// like the plan itself it is weights-independent and immutable once
// built.
func (pl *Plan) dataflow() *dfProgram {
	pl.dfOnce.Do(func() { pl.df = lowerPlan(pl) })
	return pl.df
}

// DataflowNodes reports the scheduled (super-)node count of the plan's
// lowered graph. The integer argument is ignored: it is vestigial,
// kept so the frozen bench/ caller (DataflowNodes(0)) compiles, and is
// dropped by the benchmark PR of ROADMAP item 1a.
func (pl *Plan) DataflowNodes(int) int {
	return len(pl.dataflow().supers)
}

// dfOpKey identifies one rank's node for one op during lowering, so
// the wiring pass can find both endpoints of every message.
type dfOpKey struct{ level, op, rank int32 }

// lowerPlan builds the dependency graph. Pass 1 emits one micro-node
// per step of each rank's program (Plan.ranks, which the machine
// executor walks too) but its init and level marks, which only the
// machine's ledger reads; pass 2 wires one message slot per point-to-point
// message of every op (appendMessages); pass 3 computes a topological
// order; pass 4 merges micro-nodes into super-nodes (coalescing); pass
// 5 assigns critical-path priorities.
func lowerPlan(pl *Plan) *dfProgram {
	prog := &dfProgram{}
	lookup := make(map[dfOpKey]int32)
	heads := make([]int32, 0, pl.P)

	// Pass 1: per-rank program order. Each rank's micro-nodes occupy one
	// contiguous id range — the super-node pass depends on that — and a
	// rank with none has no head.
	for rank := 0; rank < pl.P; rank++ {
		prog.maxScratch = max(prog.maxScratch, pl.ScratchWords(rank))
		head := int32(len(prog.micros))
		for _, st := range pl.ranks[rank] {
			if st.kind == kindInit || st.kind == kindMark {
				continue
			}
			id := int32(len(prog.micros))
			if id > head {
				prog.micros[id-1].next = id
			}
			prog.micros = append(prog.micros, dfNode{step: st, rank: int32(rank), next: -1})
			if st.kind < numOpKinds {
				lookup[dfOpKey{st.level, st.op, int32(rank)}] = id
			}
		}
		if int32(len(prog.micros)) > head {
			heads = append(heads, head)
		}
	}

	// Pass 2: message wiring. msgProducer (transient, merge legality
	// only) records the sending micro-node of every slot. Each node's
	// sends and receives are appended in the expansion's order, which is
	// the rank's program order.
	var msgProducer []int32
	get := func(level, op int32, rank int) int32 {
		id, ok := lookup[dfOpKey{level, op, int32(rank)}]
		if !ok {
			panic(fmt.Sprintf("apsp: dataflow lowering: no node for rank %d in op %d, level %d", rank, op, level+1))
		}
		return id
	}
	var msgs []msg
	for li, ops := range pl.Levels {
		for x := range ops {
			msgs = appendMessages(msgs[:0], &ops[x])
			for _, m := range msgs {
				from, to := get(int32(li), int32(x), m.src), get(int32(li), int32(x), m.dst)
				slot := int32(len(prog.msgConsumer))
				prog.msgConsumer = append(prog.msgConsumer, to)
				prog.msgPart = append(prog.msgPart, int32(m.part))
				msgProducer = append(msgProducer, from)
				prog.micros[from].sends = append(prog.micros[from].sends, slot)
				prog.micros[to].recvs = append(prog.micros[to].recvs, slot)
			}
		}
	}

	// Pass 3: topological order of the micro graph (Kahn, FIFO). pos is
	// a linear extension of the dependency partial order; the merge
	// legality rule and the priority sweep both lean on it.
	pend := make([]int32, len(prog.micros))
	for id := range prog.micros {
		pend[id] = int32(len(prog.micros[id].recvs)) + 1
	}
	for _, id := range heads {
		pend[id]--
	}
	order := make([]int32, 0, len(prog.micros))
	pos := make([]int32, len(prog.micros))
	for id := range pend {
		if pend[id] == 0 {
			order = append(order, int32(id))
		}
	}
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		pos[u] = int32(qi)
		release := func(v int32) {
			pend[v]--
			if pend[v] == 0 {
				order = append(order, v)
			}
		}
		if nx := prog.micros[u].next; nx >= 0 {
			release(nx)
		}
		for _, m := range prog.micros[u].sends {
			release(prog.msgConsumer[m])
		}
	}
	// A cycle in the micro graph is a lowering bug; the executor's
	// stall detector reports it. Merging on top of a broken order could
	// only make diagnosis harder, so fall back to 1:1 super-nodes.
	merge := len(order) == len(prog.micros)

	// Pass 4: super-nodes. Walk each rank's contiguous micro run and
	// greedily extend the current super-node while the merge is legal:
	// micro v may join the run headed by h iff every message v receives
	// is produced at a position before pos[h]. Legality argument (the
	// coalescing invariant, spelled out in DESIGN.md): order every
	// super-node by ψ = pos of its head. A program edge strictly
	// increases ψ; a message edge into a head strictly increases ψ
	// (producer precedes consumer in any linear extension); a message
	// edge into a non-head member has producer position < ψ of the
	// member's head by the rule, and the producer's own head is at or
	// before it — so every edge of the merged graph strictly increases
	// ψ, and the merged graph is acyclic (no new deadlocks). Strictness
	// matters: allowing producers *at* ψ admits two ranks whose runs
	// wait on each other's heads.
	prog.superOf = make([]int32, len(prog.micros))
	for mi := 0; mi < len(prog.micros); {
		rank := prog.micros[mi].rank
		sid := int32(len(prog.supers))
		prog.supers = append(prog.supers, dfSuper{first: int32(mi), count: 1, next: -1})
		prog.superOf[mi] = sid
		headPos := pos[mi]
		deps := int32(len(prog.micros[mi].recvs)) // rank head: no program pred
		for mi++; mi < len(prog.micros) && prog.micros[mi].rank == rank; mi++ {
			v := &prog.micros[mi]
			legal := merge
			for _, m := range v.recvs {
				if pos[msgProducer[m]] >= headPos {
					legal = false
					break
				}
			}
			if legal {
				s := &prog.supers[sid]
				s.count++
				prog.superOf[mi] = sid
				deps += int32(len(v.recvs))
			} else {
				prog.supers[sid].deps = deps
				sid = int32(len(prog.supers))
				prog.supers = append(prog.supers, dfSuper{first: int32(mi), count: 1, next: -1})
				prog.supers[sid-1].next = sid
				prog.superOf[mi] = sid
				headPos = pos[mi]
				deps = int32(len(v.recvs)) + 1 // program pred
			}
		}
		prog.supers[sid].deps = deps
	}
	for sid := range prog.supers {
		if prog.supers[sid].deps == 0 {
			prog.seeds = append(prog.seeds, int32(sid))
		}
	}

	// Pass 5: critical-path priorities. Per-micro scheduling weights
	// come from the messages, words and flops of each step (microCost);
	// a super-node's priority is its members' cost
	// plus the max successor priority — the longest cost path to a
	// sink. Iterating super-nodes by descending ψ is a reverse
	// topological sweep (every edge increases ψ, shown above).
	costs := make([]int64, len(prog.micros))
	for id := range prog.micros {
		costs[id] = microCost(pl, &prog.micros[id])
	}
	for qi := len(order) - 1; qi >= 0; qi-- {
		mi := order[qi]
		sid := prog.superOf[mi]
		s := &prog.supers[sid]
		if s.first != mi {
			continue // priorities are assigned when the head is reached
		}
		best := int64(0)
		if s.next >= 0 {
			best = prog.supers[s.next].prio
		}
		var c int64
		for m := s.first; m < s.first+s.count; m++ {
			c += costs[m]
			for _, msg := range prog.micros[m].sends {
				if p := prog.supers[prog.superOf[prog.msgConsumer[msg]]].prio; p > best {
					best = p
				}
			}
		}
		s.prio = c + best
	}

	// Freeze the priority total order (prio desc, id asc): the ready
	// set works with these dense positions.
	prog.prioSid = make([]int32, len(prog.supers))
	for i := range prog.prioSid {
		prog.prioSid[i] = int32(i)
	}
	sort.Slice(prog.prioSid, func(a, b int) bool {
		sa, sb := prog.prioSid[a], prog.prioSid[b]
		pa, pb := prog.supers[sa].prio, prog.supers[sb].prio
		return pa > pb || (pa == pb && sa < sb)
	})
	prog.prioIdx = make([]int32, len(prog.supers))
	for pos, sid := range prog.prioSid {
		prog.prioIdx[sid] = int32(pos)
	}
	return prog
}

// priorityHopCost is the scheduling weight of one message hop relative
// to moving one word (the α/β ratio of the priority model). The exact
// value only shifts tie-breaks between latency-bound relay chains and
// bandwidth/compute-bound updates; 64 keeps log-depth collective
// spines ahead of similarly-sized local arithmetic.
const priorityHopCost = 64

// priorityCost folds a node's quantities — message count, payload words
// and kernel operations — into one comparable weight,
// mirroring the α-β-γ shape of comm.Cost: a hop is worth
// priorityHopCost words, words and flops count one each.
func priorityCost(messages, words, flops int64) int64 {
	return messages*priorityHopCost + words + flops
}

// microCost estimates one micro-node's scheduling weight using the
// dense block dimensions of its op — message, word and flop quantities
// collapsed by priorityCost. Payload words use the dense upper bound.
// Estimates only order execution — they never feed a report, so any
// deterministic weight is semantically safe.
func microCost(pl *Plan, n *dfNode) int64 {
	sizes := pl.ND.Sizes
	i, j := blockOf(int(n.rank), pl.NSup)
	bi, bj := int64(sizes[i]), int64(sizes[j])
	msgs := int64(len(n.recvs) + len(n.sends))
	if n.op < 0 {
		return priorityCost(msgs, 0, 0) // glue: no payload, no product
	}
	op := &pl.Levels[n.level][n.op]
	block := func(i, j int) int64 { return int64(sizes[i]) * int64(sizes[j]) }
	// A(i,j) ⊕= rowPanel(i,k) ⊗ colPanel(k,j): the pivot width is the
	// column count of the captured row panel n.op names.
	if n.kind == kindR3Combine {
		return priorityCost(msgs, 0, bi*int64(sizes[op.BJ])*bj)
	}
	words := block(op.BI, op.BJ) * msgs
	var flops int64
	switch {
	case op.Kind == opDiag:
		flops = bi * bi * bi
	case op.Kind == opR2Left && n.use:
		flops = bi * bj * bj
	case op.Kind == opR2Right && n.use:
		flops = bi * bi * bj
	case op.Kind == opReduce && int(n.rank) == op.Root:
		flops = block(op.BI, op.BJ)
	case op.Kind == opSeq:
		words = (block(op.BI, op.K) + block(op.K, op.BJ)) / 2 * msgs
		if int(n.rank) == op.Root {
			flops = int64(sizes[op.BI]) * int64(sizes[op.K]) * int64(sizes[op.BJ])
		}
	case op.Kind == opUnit:
		flops = int64(sizes[op.BI]) * int64(sizes[op.K]) * int64(sizes[op.BJ])
	}
	return priorityCost(msgs, words, flops)
}

// dfProfileLabels gates the runtime/pprof labels around micro-node
// execution. Off by default: labeling costs a goroutine-label swap per
// node, which the hot serving path must not pay.
var dfProfileLabels atomic.Bool

// EnableProfileLabels toggles pprof labels (op_kind, phase, level) on
// dataflow node execution, so CPU profiles attribute time per op
// class. cmd/apspbench enables it under -cpuprofile and cmd/apspd
// under -pprof.
func EnableProfileLabels(on bool) { dfProfileLabels.Store(on) }

// buildLabelTable precomputes one pprof.LabelSet per (kind, level), so
// the per-node cost under profiling is a table lookup, not a label
// allocation.
func buildLabelTable(levels int) [][]pprof.LabelSet {
	table := make([][]pprof.LabelSet, numKinds)
	for k := range table {
		table[k] = make([]pprof.LabelSet, levels+1)
		for l := range table[k] {
			level := "-"
			if l > 0 {
				level = levelName(int32(l - 1))
			}
			table[k][l] = pprof.Labels(
				"op_kind", dfKindNames[k],
				"phase", dfPhaseNames[k],
				"level", level,
			)
		}
	}
	return table
}

// dfRun is the per-Execute runtime state of the dataflow executor.
type dfRun struct {
	pl      *Plan
	prog    *dfProgram
	sizes   []int
	ranks   []rankState // each touched only by its rank's nodes, one at a time in program order
	slots   [][]float64 // per message, its payload: a zero-copy handoff, like the machine's mailboxes
	pending []int32     // per-super remaining deps, decremented atomically

	// The ready set: one bit per super-node at its frozen priority
	// position, plus a one-level summary (one bit per 64-bit word), so
	// the lowest set position — the most critical ready node — is two
	// find-first-sets away; hint is the lowest summary word that can
	// hold a set bit. mu guards the set and every field after it; cond
	// wakes idle workers on a push and at the end of the run.
	mu             sync.Mutex
	cond           sync.Cond
	words, summary []uint64
	hint           int
	workers        int               // worker loops
	running        int               // super-nodes popped but not yet retired
	split          *semiring.FWSplit // a running diagonal block idle workers help with (fw)
	retired        int
	idle           int // workers waiting on cond
	done           bool
	err            error

	// labels is the (kind, level) pprof label table, nil unless
	// EnableProfileLabels(true) was called before this Execute.
	labels [][]pprof.LabelSet
}

// ExecOpts are the execution-time settings of a Plan replay; the zero
// value (auto worker count) is what production runs. It changes no bit
// of the distances, and the report is the plan's price either way.
type ExecOpts struct {
	// Workers bounds the worker pool. 0 means auto (the shared pool's
	// size, capped at p); explicit values are capped at p, and the pool
	// itself never runs more than its own size concurrently.
	Workers int
}

// ExecuteOpts runs the plan against ly's weights and returns the
// assembled distances plus the simulated machine's cost report, which is
// the plan's price (Cost): exact for finite non-negative weights, which
// SparseAPSPWith checks. ly must carry the dissection the plan was built
// from (same ordering and supernode sizes, else an error); LayoutFor
// produces such a layout for any graph sharing the plan's
// StructureFingerprint. Safe to call concurrently on one Plan.
func (pl *Plan) ExecuteOpts(ly *Layout, o ExecOpts) (*DistResult, error) {
	if err := pl.checkLayout(ly); err != nil {
		return nil, err
	}
	return pl.execute(pl.dataflow(), ly, o)
}

// checkLayout refuses a layout that does not carry the plan's dissection.
func (pl *Plan) checkLayout(ly *Layout) error {
	if ly.Tree.H != pl.H || ly.ND.N != pl.NSup {
		return fmt.Errorf("apsp: layout (h=%d, N=%d) does not match plan (h=%d, N=%d)",
			ly.Tree.H, ly.ND.N, pl.H, pl.NSup)
	}
	if !slices.Equal(ly.ND.Perm, pl.ND.Perm) || !slices.Equal(ly.ND.Sizes, pl.ND.Sizes) {
		return fmt.Errorf("apsp: layout's dissection is not the one the plan was built from")
	}
	return nil
}

// execute runs the lowered program prog — the plan's own, or in tests
// a deliberately broken copy of it.
func (pl *Plan) execute(prog *dfProgram, ly *Layout, o ExecOpts) (*DistResult, error) {
	blocks, release := ly.BlocksPooled()
	pool := semiring.DefaultPool
	workers := o.Workers
	if workers <= 0 {
		workers = pool.Size()
	}
	// Beyond the pool's size a worker loop would only start once the
	// run is over (Pool.ForEach), so cap there as well as at p.
	workers = max(1, min(workers, pl.P, pool.Size()))
	x := &dfRun{
		pl:      pl,
		prog:    prog,
		sizes:   pl.ND.Sizes,
		ranks:   make([]rankState, pl.P),
		slots:   make([][]float64, len(prog.msgConsumer)),
		pending: make([]int32, len(prog.supers)),
		words:   make([]uint64, (len(prog.supers)+63)/64),
		workers: workers,
	}
	x.summary = make([]uint64, (len(x.words)+63)/64)
	x.cond.L = &x.mu
	if dfProfileLabels.Load() {
		x.labels = buildLabelTable(len(pl.Levels))
	}
	for r := 0; r < pl.P; r++ {
		i, j := blockOf(r, pl.NSup)
		x.ranks[r].A = blocks[i][j]
	}
	for sid := range prog.supers {
		x.pending[sid] = prog.supers[sid].deps
	}
	for _, sid := range prog.seeds {
		x.push(sid)
	}
	// One scratch arena per worker, reused across every op the worker
	// executes — w arenas total instead of the machine reference's p.
	pool.ForEach(workers, func(int) { x.work(semiring.NewArena(prog.maxScratch)) })
	if x.err != nil {
		return nil, fmt.Errorf("apsp: sparse solver failed: %w", x.err)
	}
	cost, err := pl.Cost(ly)
	if err != nil {
		return nil, err
	}
	dist := ly.assemble(blocks, semiring.NewPool(workers))
	release()
	// The price is cached on the plan and shared: hand out copies.
	rep := cost.Report
	rep.PerRank, rep.PeakWords = slices.Clone(rep.PerRank), slices.Clone(rep.PeakWords)
	rep.LocalFlops, rep.LocalSent = slices.Clone(rep.LocalFlops), slices.Clone(rep.LocalSent)
	return &DistResult{
		Dist:   dist,
		Report: rep,
		Layout: ly,
		Plan:   pl,
		P:      pl.P,
		Phases: slices.Clone(cost.Phases),
	}, nil
}

// work is the one worker loop, run by pool.ForEach for every worker
// count: pop the most critical ready super-node, run it, retire it.
// Only a running node can make another ready, so a worker that finds
// the set empty waits while some node runs, and nothing ready with
// nothing running before every node retired proves nothing can ever
// run again — a dependency cycle in the lowering, reported instead of
// hanging, with no timers. (The machine executor needs a sampling
// watchdog for the same job because its ranks block in ways it cannot
// count.) A worker with nothing ready helps with the running diagonal
// split, if a band of it is free, before it waits.
func (x *dfRun) work(a *semiring.Arena) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for !x.done {
		sid, ok := x.pop()
		switch {
		case ok:
			x.running++
			x.mu.Unlock()
			err := x.execSuper(sid, a)
			x.mu.Lock()
			x.running--
			x.retired++
			if err != nil || x.retired == len(x.prog.supers) {
				x.finish(err)
			}
		case x.split != nil && x.split.Open():
			sp := x.split
			x.mu.Unlock()
			sp.Help()
			x.mu.Lock()
		case x.running > 0:
			x.idle++
			x.cond.Wait()
			x.idle--
		default:
			x.finish(fmt.Errorf("dataflow executor stalled after %d of %d ops (dependency cycle in lowering)", x.retired, len(x.prog.supers)))
		}
	}
}

// fw runs a diagonal block's Floyd–Warshall. One of at least
// semiring.BandMinN rows, with a worker besides the caller, runs as a
// split (semiring.FWSplit) that workers with nothing ready help with
// (work); one split at a time, and the caller works every band no
// helper holds. Helpers are the run's own workers, so Workers 1 never
// splits and no more than Workers goroutines ever run kernels.
func (x *dfRun) fw(m *semiring.Matrix) int64 {
	if x.workers == 1 || m.Rows < semiring.BandMinN {
		return semiring.ClassicalFW(m)
	}
	sp := semiring.NewFWSplit(m, x.workers)
	x.mu.Lock()
	if sp == nil || x.split != nil {
		x.mu.Unlock()
		return semiring.ClassicalFW(m)
	}
	x.split = sp
	if x.idle > 0 {
		x.cond.Broadcast()
	}
	x.mu.Unlock()
	defer func() {
		x.mu.Lock()
		x.split = nil
		x.mu.Unlock()
	}()
	return sp.Run()
}

// finish ends the run once, under mu: it keeps the first outcome and
// wakes every idle worker.
func (x *dfRun) finish(err error) {
	if !x.done {
		x.done, x.err = true, err
		x.cond.Broadcast()
	}
}

// complete records one satisfied dependency of a super-node; the last
// one pushes it onto the ready set. The atomic decrement orders every
// prior write of the dependency's producer (slot payloads, rank state)
// before the push, and the lock orders the push before the pop.
func (x *dfRun) complete(sid int32) {
	if atomic.AddInt32(&x.pending[sid], -1) != 0 {
		return
	}
	x.mu.Lock()
	x.push(sid)
	if x.idle > 0 {
		x.cond.Signal()
	}
	x.mu.Unlock()
}

// push sets sid's priority bit; pop clears and returns the lowest set
// one. Both run under mu (or before the workers start).
func (x *dfRun) push(sid int32) {
	p := int(x.prog.prioIdx[sid])
	x.words[p>>6] |= 1 << (p & 63)
	x.summary[p>>12] |= 1 << ((p >> 6) & 63)
	x.hint = min(x.hint, p>>12)
}

func (x *dfRun) pop() (int32, bool) {
	for ; x.hint < len(x.summary); x.hint++ {
		sw := x.summary[x.hint]
		if sw == 0 {
			continue
		}
		wi := x.hint<<6 | bits.TrailingZeros64(sw)
		w := x.words[wi]
		p := wi<<6 | bits.TrailingZeros64(w)
		w &= w - 1
		x.words[wi] = w
		if w == 0 {
			x.summary[x.hint] &^= 1 << (wi & 63)
		}
		return x.prog.prioSid[p], true
	}
	return 0, false
}

// recvMsg returns the payload of the i-th receive of n (shared backing
// array, read-only — as with the machine's zero-copy delivery).
func (x *dfRun) recvMsg(n *dfNode, i int) []float64 { return x.slots[n.recvs[i]] }

// sendMsg publishes the payload of the i-th send of n into the message
// slot and credits the consumer's dependency. Publishing happens
// mid-node, as soon as the machine would have sent — a relay's children
// never wait for the relay's local compute.
func (x *dfRun) sendMsg(n *dfNode, i int, data []float64) {
	msg := n.sends[i]
	x.slots[msg] = data
	x.complete(x.prog.superOf[x.prog.msgConsumer[msg]])
}

// bcastData replays one rank's role in a broadcast: the root holds its
// own block and a mirror holder its own block's transpose, every other
// member receives once and decodes what it got; then each sends its
// children down the tree (relay). It returns the block the member folds —
// what it decoded, or for a consuming root its block packed at the whole
// group's demand and decoded. The order — receive, sends, then the
// caller's consumer work — is the machine's.
func (x *dfRun) bcastData(n *dfNode, op *Op, rs *rankState) *semiring.Matrix {
	rows, cols := x.sizes[op.BI], x.sizes[op.BJ]
	var held *semiring.Matrix
	switch {
	case int(n.rank) == op.Root:
		held = rs.A
	case len(n.recvs) == 0: // a mirror holder
		held = x.pl.mirrorHeld(op, position(op.Group, int(n.rank)), int(n.rank), rs)
	default:
		if data := x.recvMsg(n, 0); n.use || len(n.sends) > 0 {
			held = x.pl.unpack(data, rows, cols)
		}
	}
	x.relay(n, op, held)
	if int(n.rank) == op.Root && n.use {
		return x.pl.unpack(x.pl.pack(rs.A, op.prune(0)), rows, cols)
	}
	return held
}

// relay sends each child of broadcast member n the child's subtree
// demand (Op.Prune), packed from the block the member holds. A relay's
// block is what its own, wider demand decoded to, so the re-pack keeps
// the entries packing the root's block would, in no more words
// (semiring.PackPruned).
func (x *dfRun) relay(n *dfNode, op *Op, held *semiring.Matrix) {
	for i, slot := range n.sends {
		x.sendMsg(n, i, x.pl.pack(held, op.prune(int(x.prog.msgPart[slot]))))
	}
}

// execSuper runs every micro-node of a super-node in program order,
// then credits the rank's next super-node. A panic is contained and
// returned as an error naming the node, its rank and the micro-node it
// was running.
func (x *dfRun) execSuper(sid int32, a *semiring.Arena) (err error) {
	s := &x.prog.supers[sid]
	mi := s.first
	defer func() {
		if rec := recover(); rec != nil {
			n := &x.prog.micros[mi]
			err = fmt.Errorf("dataflow node %d (rank %d, step %d, kind %d) panicked: %v", sid, n.rank, mi-s.first, n.kind, rec)
		}
	}()
	for ; mi < s.first+s.count; mi++ {
		if x.labels != nil {
			n := &x.prog.micros[mi]
			pprof.Do(context.Background(), x.labels[n.kind][n.level+1], func(context.Context) { x.exec(mi, a) })
		} else {
			x.exec(mi, a)
		}
	}
	if s.next >= 0 {
		x.complete(s.next)
	}
	return nil
}

// exec runs one micro-node: the node's messages travel through the
// slots its lowering wired, and what the rank does with them is the
// numeric step both executors share (exec.go).
func (x *dfRun) exec(id int32, a *semiring.Arena) {
	n := &x.prog.micros[id]
	rank := int(n.rank)
	rs, s := &x.ranks[rank], uncounted{}
	switch n.kind {
	case kindR4Release:
		rs.releaseR4(s)
		return
	case kindR3Combine:
		rs.combineR3(s, n.use)
		return
	}
	op := &x.pl.Levels[n.level][n.op]
	switch op.Kind {
	case opDiag:
		rs.diag(s, x.fw)
	case opUnit:
		rs.unitProduct(s, x.pl.ownsUnitBlock(op), x.sizes[op.BI], x.sizes[op.BJ])
	case opReduce:
		upper := x.pl.upperReduce(op)
		if !n.use { // a root outside the group: one receive from its first member
			rs.fold(s, x.recvMsg(n, 0), upper)
			return
		}
		data := x.pl.reducePayload(op, rs.unit)
		for i := range n.recvs {
			semiring.MinInto(data, x.recvMsg(n, i))
		}
		for i := range n.sends {
			x.sendMsg(n, i, data)
		}
		if rank == op.Root {
			rs.fold(s, data, upper)
		}
	case opSeq, opTrans:
		var got [2]*semiring.Matrix
		si, ri := 0, 0
		for i, src := range op.Group {
			if src == op.Root {
				continue
			}
			if rank == src {
				x.sendMsg(n, si, x.pl.pack(rs.A, op.prune(i)))
				si++
			}
			if rank == op.Root {
				bi, bj := op.payload(i)
				got[i] = x.pl.unpack(x.recvMsg(n, ri), x.sizes[bi], x.sizes[bj])
				ri++
			}
		}
		if rank == op.Root && op.Kind == opSeq {
			rs.seqProduct(s, got)
		} else if rank == op.Root {
			rs.transpose(got[0])
		}
	default:
		if d := x.bcastData(n, op, rs); n.use {
			rs.consume(s, op.Kind, d, a)
		}
	}
}
