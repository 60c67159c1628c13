package apsp

import (
	"fmt"

	"sparseapsp/internal/comm"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// The reference semantics of a Plan replay: the literal simulated
// machine, one goroutine per rank. It makes no symbolic decisions —
// every group, root, tag, skip and unit assignment was frozen into the
// Plan — so each rank simply walks its precomputed step list, level by
// level in the phase order R1, R2, R4, transposes, R3. That replay is
// bit-identical to the pre-split solver in distances, and its charged
// costs are the ones the golden cost test pins (latency, bandwidth,
// flops, message/word totals and peak memory per graph family × wire
// format × R4 strategy). Production runs ExecuteOpts (dataflow.go),
// which TestExecutorEquality checks against this replay; what both
// share — LayoutFor, pack, unpack — lives here too.

// LayoutFor wraps g in a Layout that reuses the plan's cached symbolic
// state. This is the warm serving path: the only per-solve work is the
// O(n + m) permutation of the weights — no nested dissection, no
// eTree, no fill mask.
func (pl *Plan) LayoutFor(g *graph.Graph) *Layout {
	return &Layout{
		G:    g,
		PG:   g.Permute(pl.ND.Perm),
		ND:   pl.ND,
		Tree: pl.Tree,
		Fill: pl.Fill,
	}
}

// executeMachine runs the plan on the simulated machine: p rank
// goroutines communicating through mailboxes. It is the reference
// semantics ExecuteOpts is checked against (TestExecutorEquality) and
// has no caller outside the package's tests.
func (pl *Plan) executeMachine(ly *Layout) (*DistResult, error) {
	blocks, release := ly.BlocksPooled()
	machine := comm.NewMachine(pl.P)
	err := machine.Run(func(ctx *comm.Ctx) {
		e := &planExec{
			ctx:     ctx,
			pl:      pl,
			sizes:   pl.ND.Sizes,
			steps:   pl.ranks[ctx.Rank()],
			scratch: semiring.NewArena(pl.ScratchWords(ctx.Rank())),
		}
		myI := ctx.Rank()/pl.NSup + 1
		myJ := ctx.Rank()%pl.NSup + 1
		e.A = blocks[myI][myJ]
		e.run()
	})
	if err != nil {
		return nil, fmt.Errorf("apsp: sparse solver failed: %w", err)
	}
	phases, err := machine.PhaseCosts()
	if err != nil {
		return nil, fmt.Errorf("apsp: phase accounting failed: %w", err)
	}
	dist := ly.AssembleOriginal(blocks)
	release()
	return &DistResult{
		Dist:    dist,
		Report:  machine.Report(),
		Layout:  ly,
		P:       pl.P,
		Phases:  phases,
		Traffic: machine.Traffic(),
	}, nil
}

// planExec is one rank's executor state: the owned block, the rank's
// step lists, and a scratch arena sized from the plan so the R2 panel
// updates allocate no per-level temporaries.
type planExec struct {
	ctx     *comm.Ctx
	pl      *Plan
	sizes   []int
	steps   []rankLevel
	A       *semiring.Matrix
	scratch *semiring.Arena
}

// pack encodes a block body for the wire; the machine charges bandwidth
// per payload word, so the encoded length IS the charged cost. The
// default wire ships only the rows/columns of the op's frozen demand
// descriptor (nil = every entry demanded; see demand.go) in the
// smallest encoding semiring.PackPruned finds; WireDense ships the raw
// body. Always copies — collective receivers share the payload's
// backing array, and an executor's scratch arena must never back a
// payload for the same reason. ExecuteOpts and the machine reference
// both call this, which is what keeps their charged words identical.
func (pl *Plan) pack(m *semiring.Matrix, prune *PruneSpec) []float64 {
	switch {
	case pl.Wire == WireDense:
		return append([]float64(nil), m.V...)
	case prune == nil:
		return semiring.PackPruned(m, nil, nil, false)
	default:
		return semiring.PackPruned(m, prune.Rows, prune.Cols, prune.ZeroDiag)
	}
}

// unpack decodes a received payload into a rows×cols block. The result
// always owns its body — never the payload's backing array, which every
// sibling receiver of the collective shares (and the dataflow executor
// retains in its message slot).
func (pl *Plan) unpack(data []float64, rows, cols int) *semiring.Matrix {
	if pl.Wire == WireDense {
		return semiring.FromSlice(rows, cols, append([]float64(nil), data...))
	}
	return semiring.UnpackMatrix(data, rows, cols)
}

func (e *planExec) run() {
	e.ctx.SetMemory(int64(len(e.A.V)))
	for li := range e.pl.Levels {
		e.level(&e.pl.Levels[li], &e.steps[li])
		e.ctx.Mark(fmt.Sprintf("level-%d", li+1))
	}
}

func (e *planExec) level(lv *planLevel, st *rankLevel) {
	rank := e.ctx.Rank()

	// ---- R_l^1: diagonal update, local. ----
	if st.Diag {
		e.ctx.AddFlops(semiring.ClassicalFW(e.A))
	}

	// ---- R_l^2: pivot broadcasts and panel updates. ----
	e.ctx.SetSendClass(comm.SendR2)
	for _, x := range st.R2 {
		op := &lv.R2[x]
		var payload []float64
		if rank == op.Root {
			payload = e.pl.pack(e.A, op.Prune) // copy: receivers share the buffer
		}
		data := e.ctx.Bcast(op.Group, op.Root, op.Tag, payload)
		if !contains(op.Consumers, rank) {
			continue
		}
		dk := e.pl.unpack(data, e.sizes[op.BI], e.sizes[op.BJ])
		e.ctx.AddMemory(int64(len(dk.V)))
		if op.Kind == opR2Left {
			e.ctx.AddFlops(semiring.PanelUpdateLeftScratch(e.A, dk, e.scratch))
		} else {
			e.ctx.AddFlops(semiring.PanelUpdateRightScratch(e.A, dk, e.scratch))
		}
		e.ctx.AddMemory(-int64(len(dk.V)))
	}

	// ---- R_l^4, mapped strategy: panel broadcasts to the unit
	// processors, unit products, binomial reduces. Ahead of R3: this is
	// the level's longest dependent chain. ----
	e.ctx.SetSendClass(comm.SendR4Panel)
	var unit, unitAik, unitAkj *semiring.Matrix
	for _, x := range st.R4Col {
		op := &lv.R4Col[x]
		var payload []float64
		if rank == op.Root {
			payload = e.pl.pack(e.A, op.Prune)
		}
		data := e.ctx.Bcast(op.Group, op.Root, op.Tag, payload)
		if contains(op.Consumers, rank) {
			unitAik = e.pl.unpack(data, e.sizes[op.BI], e.sizes[op.BJ])
			e.ctx.AddMemory(int64(len(unitAik.V)))
		}
	}
	for _, x := range st.R4Row {
		op := &lv.R4Row[x]
		var payload []float64
		if rank == op.Root {
			payload = e.pl.pack(e.A, op.Prune)
		}
		data := e.ctx.Bcast(op.Group, op.Root, op.Tag, payload)
		if contains(op.Consumers, rank) {
			unitAkj = e.pl.unpack(data, e.sizes[op.BI], e.sizes[op.BJ])
			e.ctx.AddMemory(int64(len(unitAkj.V)))
		}
	}
	if st.Unit >= 0 {
		// The plan guarantees both operand broadcasts above were planned
		// with this rank as a consumer, so the operands are present.
		u := lv.R4Units[st.Unit]
		unit = semiring.NewMatrix(e.sizes[u.I], e.sizes[u.J])
		e.ctx.AddMemory(int64(len(unit.V)))
		e.ctx.AddFlops(semiring.MulAddInto(unit, unitAik, unitAkj))
	}
	e.ctx.SetSendClass(comm.SendR4Reduce)
	for _, x := range st.Reduce {
		op := &lv.R4Reduce[x]
		var data []float64
		if contains(op.Group, rank) {
			data = unit.V
		}
		res := e.ctx.ReduceTo(op.Group, op.Root, op.Tag, data, semiring.MinInto)
		if rank == op.Root {
			semiring.MinInto(e.A.V, res)
			e.ctx.AddFlops(int64(len(res)))
		}
	}
	if unit != nil {
		e.ctx.AddMemory(-int64(len(unit.V)))
	}
	if unitAik != nil {
		e.ctx.AddMemory(-int64(len(unitAik.V)))
	}
	if unitAkj != nil {
		e.ctx.AddMemory(-int64(len(unitAkj.V)))
	}

	// ---- R_l^4, sequential ablation: panel owners send, the block
	// owner folds locally. ----
	e.ctx.SetSendClass(comm.SendR4Seq)
	for _, x := range st.Seq {
		op := &lv.R4Seq[x]
		if rank == op.AikOwner && op.Owner != op.AikOwner {
			e.ctx.Send(op.Owner, op.TagA, e.pl.pack(e.A, op.PruneA))
		}
		if rank == op.AkjOwner && op.Owner != op.AkjOwner {
			e.ctx.Send(op.Owner, op.TagB, e.pl.pack(e.A, op.PruneB))
		}
		if rank == op.Owner {
			var aik, akj *semiring.Matrix
			var transient int64
			if op.Owner == op.AikOwner {
				aik = e.A
			} else {
				data := e.ctx.Recv(op.AikOwner, op.TagA)
				aik = e.pl.unpack(data, e.sizes[op.BI], e.sizes[op.K])
				transient += int64(len(aik.V))
			}
			if op.Owner == op.AkjOwner {
				akj = e.A
			} else {
				data := e.ctx.Recv(op.AkjOwner, op.TagB)
				akj = e.pl.unpack(data, e.sizes[op.K], e.sizes[op.BJ])
				transient += int64(len(akj.V))
			}
			e.ctx.AddMemory(transient)
			e.ctx.AddFlops(semiring.MulAddInto(e.A, aik, akj))
			e.ctx.AddMemory(-transient)
		}
	}

	// ---- Transpose sends (Algorithm 1 line 25). Never symbolically
	// pruned — the receiver's block BECOMES the payload (replace, not
	// fold) — but the pack-time numeric trim still applies. ----
	e.ctx.SetSendClass(comm.SendTrans)
	for _, x := range st.Trans {
		op := &lv.Trans[x]
		if rank == op.Src {
			e.ctx.Send(op.Dst, op.Tag, e.pl.pack(e.A, nil))
		}
		if rank == op.Dst {
			data := e.ctx.Recv(op.Src, op.Tag)
			src := e.pl.unpack(data, e.sizes[op.BI], e.sizes[op.BJ])
			e.A.CopyFrom(src.Transpose())
		}
	}

	// ---- R_l^3: panel broadcasts and the one-unit update. Last, so the
	// R4 chain above is already under way: both read only the panels R2
	// finished, R4 and the transposes write ancestor × ancestor blocks,
	// R3 blocks with a descendant coordinate. ----
	e.ctx.SetSendClass(comm.SendR3)
	var rowPanel, colPanel *semiring.Matrix
	for _, x := range st.R3 {
		op := &lv.R3[x]
		var payload []float64
		if rank == op.Root {
			payload = e.pl.pack(e.A, op.Prune)
		}
		data := e.ctx.Bcast(op.Group, op.Root, op.Tag, payload)
		if !contains(op.Consumers, rank) {
			continue
		}
		m := e.pl.unpack(data, e.sizes[op.BI], e.sizes[op.BJ])
		e.ctx.AddMemory(int64(len(m.V)))
		if op.Kind == opR3Row {
			rowPanel = m
		} else {
			colPanel = m
		}
	}
	if rowPanel != nil && colPanel != nil {
		e.ctx.AddFlops(semiring.MulAddInto(e.A, rowPanel, colPanel))
	}
	if rowPanel != nil {
		e.ctx.AddMemory(-int64(len(rowPanel.V)))
	}
	if colPanel != nil {
		e.ctx.AddMemory(-int64(len(colPanel.V)))
	}
}

func contains(list []int, x int) bool {
	for _, v := range list {
		if v == x {
			return true
		}
	}
	return false
}
