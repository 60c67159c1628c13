package apsp

import (
	"fmt"

	"sparseapsp/internal/comm"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// DCAPSP runs the 2D divide-and-conquer APSP of Solomonik, Buluç and
// Demmel (IPDPS'13) — the paper's dense comparator — on a simulated
// machine of p processors (p a perfect square).
//
// The distance matrix is laid out block-cyclically over the √p × √p
// grid: block (bi, bj) of size b×b lives on processor
// (bi mod √p, bj mod √p), with b ≈ n/(c·√p) for a small cyclic factor
// c. The Kleene recursion
//
//	A11 ← APSP(A11);  A12 ← A11⊗A12;  A21 ← A21⊗A11;
//	A22 ← A22 ⊕ A21⊗A12;  A22 ← APSP(A22);
//	A21 ← A22⊗A21;  A12 ← A12⊗A22;  A11 ← A11 ⊕ A12⊗A21
//
// splits block ranges in half down to single blocks (solved locally by
// ClassicalFW on the owner), and every min-plus multiplication is a
// SUMMA sweep: per panel step, the owners broadcast their A blocks
// along grid rows and B blocks down grid columns, and every processor
// folds the product into its local C blocks. Bandwidth is
// O(n²/√p·log p) and latency O(√p·log²p) with binomial broadcasts —
// the Table 2 dense column.
//
// Like the sparse solver, DCAPSP is split symbolic/numeric: the Kleene
// recursion is unrolled once into a flat dcSchedule (it depends only
// on the block count, not on weights), and each rank replays the
// schedule. The cyclic factor trades latency (grows with c) against
// load balance during the recursion (improves with c); c = 4 is the
// default used by the experiments, and BenchmarkLayoutAblation sweeps
// it.
func DCAPSP(g *graph.Graph, p int, cyclicFactor int) (*DistResult, error) {
	if p < 1 {
		return nil, fmt.Errorf("apsp: p=%d < 1", p)
	}
	grid, err := comm.NewSquareGrid(p)
	if err != nil {
		return nil, err
	}
	if cyclicFactor < 1 {
		return nil, fmt.Errorf("apsp: cyclic factor %d < 1", cyclicFactor)
	}
	s := grid.Rows
	n := g.N()
	if n == 0 {
		return &DistResult{Dist: semiring.NewMatrix(0, 0), Report: comm.NewMachine(p).Report(), P: p}, nil
	}
	b := (n + cyclicFactor*s - 1) / (cyclicFactor * s)
	nb := (n + b - 1) / b

	// Build the owned blocks of every rank up front (driver side).
	blocks := make([]map[[2]int]*semiring.Matrix, p)
	for r := range blocks {
		blocks[r] = make(map[[2]int]*semiring.Matrix)
	}
	dim := func(t int) int {
		hi := (t + 1) * b
		if hi > n {
			hi = n
		}
		return hi - t*b
	}
	ownerOf := func(bi, bj int) int { return grid.Rank(bi%s, bj%s) }
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			m := semiring.NewMatrix(dim(bi), dim(bj))
			if bi == bj {
				for d := 0; d < m.Rows; d++ {
					m.Set(d, d, 0)
				}
			}
			blocks[ownerOf(bi, bj)][[2]int{bi, bj}] = m
		}
	}
	for v := 0; v < n; v++ {
		bi, li := v/b, v%b
		for _, e := range g.Adj(v) {
			bj, lj := e.To/b, e.To%b
			blk := blocks[ownerOf(bi, bj)][[2]int{bi, bj}]
			if e.W < blk.At(li, lj) {
				blk.Set(li, lj, e.W)
			}
		}
	}

	sched := buildDCSchedule(nb)
	machine := comm.NewMachine(p)
	err = machine.Run(func(ctx *comm.Ctx) {
		w := &dcWorker{
			ctx:   ctx,
			grid:  grid,
			s:     s,
			nb:    nb,
			dim:   dim,
			local: blocks[ctx.Rank()],
		}
		w.myI, w.myJ = grid.Coords(ctx.Rank())
		var words int64
		for _, m := range w.local {
			words += int64(len(m.V))
		}
		ctx.SetMemory(words)
		w.run(sched)
	})
	if err != nil {
		return nil, fmt.Errorf("apsp: DC-APSP solver failed: %w", err)
	}

	// Reassemble.
	out := semiring.NewMatrix(n, n)
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			m := blocks[ownerOf(bi, bj)][[2]int{bi, bj}]
			for r := 0; r < m.Rows; r++ {
				copy(out.V[(bi*b+r)*n+bj*b:(bi*b+r)*n+bj*b+m.Cols], m.V[r*m.Cols:(r+1)*m.Cols])
			}
		}
	}
	return &DistResult{Dist: out, Report: machine.Report(), P: p}, nil
}

// dcStep is one step of the unrolled Kleene recursion: a local
// ClassicalFW on diagonal block T (Summa == false), or one SUMMA panel
// step C[ri, rj] ⊕= A[ri, T] ⊗ B[T, rj] under tag family Family.
type dcStep struct {
	Summa              bool
	T                  int
	RI0, RI1, RJ0, RJ1 int
	Family             int
}

// dcSchedule is the symbolic artifact of the dense solver: the Kleene
// recursion flattened to a step list, with every tag family
// preallocated. It depends only on the block count nb — never on
// weights or ranks — so every rank replays the same schedule and the
// communication pattern is identical to the fused recursion.
type dcSchedule struct {
	nb    int
	steps []dcStep
}

// buildDCSchedule unrolls the recursion apsp(0, nb), assigning tag
// families in the order the fused solver's per-rank tagSeq counter
// advanced (which was deterministic and identical on every rank —
// that invariant now lives in one place instead of p).
func buildDCSchedule(nb int) *dcSchedule {
	sch := &dcSchedule{nb: nb}
	family := 0
	summa := func(ri0, ri1, rk0, rk1, rj0, rj1 int) {
		for t := rk0; t < rk1; t++ {
			family++
			sch.steps = append(sch.steps, dcStep{
				Summa: true, T: t,
				RI0: ri0, RI1: ri1, RJ0: rj0, RJ1: rj1,
				Family: family,
			})
		}
	}
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		if hi-lo == 1 {
			sch.steps = append(sch.steps, dcStep{T: lo})
			return
		}
		mid := lo + (hi-lo)/2
		rec(lo, mid)
		summa(lo, mid, lo, mid, mid, hi) // A12 ⊕= A11 ⊗ A12
		summa(mid, hi, lo, mid, lo, mid) // A21 ⊕= A21 ⊗ A11
		summa(mid, hi, lo, mid, mid, hi) // A22 ⊕= A21 ⊗ A12
		rec(mid, hi)
		summa(mid, hi, mid, hi, lo, mid) // A21 ⊕= A22 ⊗ A21
		summa(lo, mid, mid, hi, mid, hi) // A12 ⊕= A12 ⊗ A22
		summa(lo, mid, mid, hi, lo, mid) // A11 ⊕= A12 ⊗ A21
	}
	rec(0, nb)
	return sch
}

type dcWorker struct {
	ctx      *comm.Ctx
	grid     comm.Grid
	s, nb    int
	dim      func(int) int
	local    map[[2]int]*semiring.Matrix
	myI, myJ int
}

func (w *dcWorker) tag(family, x int) int { return family*4096 + x }

// run replays the schedule: the numeric phase of the dense solver.
func (w *dcWorker) run(sch *dcSchedule) {
	for _, st := range sch.steps {
		if !st.Summa {
			if blk, mine := w.local[[2]int{st.T, st.T}]; mine {
				w.ctx.AddFlops(semiring.ClassicalFW(blk))
			}
			continue
		}
		w.summaStep(st)
	}
}

// summaStep folds C[ri, rj] ⊕= A[ri, t] ⊗ B[t, rj] for one panel index
// t (the Kleene steps alias ranges deliberately; idempotence of closed
// operands makes in-place folding exact).
func (w *dcWorker) summaStep(st dcStep) {
	t := st.T
	rowPanels := make(map[int][]float64)
	colPanels := make(map[int][]float64)
	// Broadcast A(bi, t) along grid row bi%s, for every block row.
	for bi := st.RI0; bi < st.RI1; bi++ {
		if bi%w.s != w.myI {
			continue
		}
		root := w.grid.Rank(bi%w.s, t%w.s)
		var payload []float64
		if root == w.ctx.Rank() {
			payload = append([]float64(nil), w.local[[2]int{bi, t}].V...)
		}
		data := w.ctx.Bcast(w.grid.RowRanks(w.myI), root, w.tag(2*st.Family, bi), payload)
		rowPanels[bi] = data
		w.ctx.AddMemory(int64(len(data)))
	}
	// Broadcast B(t, bj) down grid column bj%s.
	for bj := st.RJ0; bj < st.RJ1; bj++ {
		if bj%w.s != w.myJ {
			continue
		}
		root := w.grid.Rank(t%w.s, bj%w.s)
		var payload []float64
		if root == w.ctx.Rank() {
			payload = append([]float64(nil), w.local[[2]int{t, bj}].V...)
		}
		data := w.ctx.Bcast(w.grid.ColRanks(w.myJ), root, w.tag(2*st.Family+1, bj), payload)
		colPanels[bj] = data
		w.ctx.AddMemory(int64(len(data)))
	}
	// Local multiply-accumulate into owned C blocks.
	for bi := st.RI0; bi < st.RI1; bi++ {
		if bi%w.s != w.myI {
			continue
		}
		a := semiring.FromSlice(w.dim(bi), w.dim(t), rowPanels[bi])
		for bj := st.RJ0; bj < st.RJ1; bj++ {
			if bj%w.s != w.myJ {
				continue
			}
			bm := semiring.FromSlice(w.dim(t), w.dim(bj), colPanels[bj])
			w.ctx.AddFlops(semiring.MulAddInto(w.local[[2]int{bi, bj}], a, bm))
		}
	}
	for _, d := range rowPanels {
		w.ctx.AddMemory(-int64(len(d)))
	}
	for _, d := range colPanels {
		w.ctx.AddMemory(-int64(len(d)))
	}
}
