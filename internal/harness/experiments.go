package harness

import (
	"fmt"
	"math"
	"math/rand"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/bounds"
	"sparseapsp/internal/comm"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/partition"
)

// Config sets the sweep dimensions. The defaults finish in a couple of
// minutes on a laptop; cmd/apspbench exposes flags to enlarge them.
type Config struct {
	GridSides    []int // 2D grid workloads with n = side²
	Ps           []int // machine sizes; must be (2^h−1)² for the sparse algorithm
	Seed         int64
	CyclicFactor int             // DC-APSP block-cyclic factor
	Wire         apsp.WireFormat // sparse-solver payload encoding (pruned or dense)
}

// sparseOpts builds the SparseOptions every experiment shares.
func (c Config) sparseOpts() apsp.SparseOptions {
	return apsp.SparseOptions{Seed: c.Seed, Wire: c.Wire}
}

// DefaultConfig returns the sweep used by the benchmark suite.
func DefaultConfig() Config {
	return Config{
		GridSides:    []int{16, 24, 32},
		Ps:           []int{9, 49, 225, 961},
		Seed:         42,
		CyclicFactor: 4,
	}
}

// point is one (workload, machine) measurement.
type point struct {
	Side, N, P, Sep int
	Sparse          comm.Report
	plan            *apsp.Plan // the sparse solve's plan and layout, priced by E53
	layout          *apsp.Layout
	DenseDC         comm.Report
	Dense2D         comm.Report
}

// Suite runs the shared sweep once and renders the Table 2 experiments
// from it.
type Suite struct {
	Cfg    Config
	Points []point
}

// NewSuite runs every solver on every (grid, p) combination. Workloads
// are random-weight 2D grids — the canonical |S| = Θ(√n) family the
// paper targets.
func NewSuite(cfg Config) (*Suite, error) {
	s := &Suite{Cfg: cfg}
	for _, side := range cfg.GridSides {
		rng := rand.New(rand.NewSource(cfg.Seed))
		g := graph.Grid2D(side, side, graph.RandomWeights(rng, 1, 10))
		for _, p := range cfg.Ps {
			pt := point{Side: side, N: g.N(), P: p}
			sp, err := apsp.SparseAPSPWith(g, p, cfg.sparseOpts())
			if err != nil {
				return nil, fmt.Errorf("sparse side=%d p=%d: %w", side, p, err)
			}
			pt.Sparse, pt.plan, pt.layout = sp.Report, sp.Plan, sp.Layout
			pt.Sep = sp.Layout.ND.SeparatorSize()
			dc, err := apsp.DCAPSP(g, p, cfg.CyclicFactor)
			if err != nil {
				return nil, fmt.Errorf("dc side=%d p=%d: %w", side, p, err)
			}
			pt.DenseDC = dc.Report
			fw, err := apsp.Dist2DFW(g, p)
			if err != nil {
				return nil, fmt.Errorf("2dfw side=%d p=%d: %w", side, p, err)
			}
			pt.Dense2D = fw.Report
			s.Points = append(s.Points, pt)
		}
	}
	return s, nil
}

// Table2Memory renders experiment E1: measured per-process peak memory
// against the O(n²/p + |S|²) (sparse) and O(n²/p) (dense) columns of
// Table 2 and the Ω(n²/p) lower bound.
func (s *Suite) Table2Memory() *Table {
	t := &Table{
		ID:    "E1",
		Title: "Table 2 row 1 — per-process memory (words) on 2D grids",
		Columns: []string{"n", "p", "|S|", "M_sparse", "M_dc", "O(n²/p+|S|²)",
			"O(n²/p)", "Ω(n²/p)", "sparse/bound"},
	}
	for _, pt := range s.Points {
		ub := bounds.SparseMemory(pt.N, pt.P, pt.Sep)
		t.Add(pt.N, pt.P, pt.Sep, pt.Sparse.MaxMemory, pt.DenseDC.MaxMemory,
			ub, bounds.DenseMemory(pt.N, pt.P), bounds.MemoryLower(pt.N, pt.P),
			float64(pt.Sparse.MaxMemory)/ub)
	}
	t.Note("sparse/bound should stay O(1) across the sweep (memory matches the bound's shape)")
	return t
}

// Table2Bandwidth renders experiment E2: measured critical-path words.
func (s *Suite) Table2Bandwidth() *Table {
	t := &Table{
		ID:    "E2",
		Title: "Table 2 row 2 — critical-path bandwidth (words) on 2D grids",
		Columns: []string{"n", "p", "|S|", "B_sparse", "B_dc", "B_2dfw",
			"O(n²log²p/p+|S|²log²p)", "Ω(n²/p+|S|²)", "dc/sparse"},
	}
	for _, pt := range s.Points {
		t.Add(pt.N, pt.P, pt.Sep,
			pt.Sparse.Critical.Bandwidth, pt.DenseDC.Critical.Bandwidth, pt.Dense2D.Critical.Bandwidth,
			bounds.SparseBandwidthUpper(pt.N, pt.P, pt.Sep),
			bounds.BandwidthLowerSparse(pt.N, pt.P, pt.Sep),
			float64(pt.DenseDC.Critical.Bandwidth)/float64(pt.Sparse.Critical.Bandwidth))
	}
	t.Note("dc/sparse should grow with p at fixed n (the paper's √p/log²p factor)")
	return t
}

// Table2Latency renders experiment E3: measured critical-path messages.
func (s *Suite) Table2Latency() *Table {
	t := &Table{
		ID:    "E3",
		Title: "Table 2 row 3 — critical-path latency (messages) on 2D grids",
		Columns: []string{"n", "p", "L_sparse", "L_dc", "L_2dfw",
			"O(log²p)", "O(√p log²p)", "Ω(log²p)", "dc/sparse"},
	}
	for _, pt := range s.Points {
		t.Add(pt.N, pt.P,
			pt.Sparse.Critical.Latency, pt.DenseDC.Critical.Latency, pt.Dense2D.Critical.Latency,
			bounds.SparseLatencyUpper(pt.P), bounds.DenseLatencyUpper(pt.P),
			bounds.LatencyLowerSparse(pt.P),
			float64(pt.DenseDC.Critical.Latency)/float64(pt.Sparse.Critical.Latency))
	}
	t.Note("L_sparse must be independent of n and polylogarithmic in p; L_dc grows like √p")
	return t
}

// CriticalChains renders experiment E53 beside E2 / E3: where each
// sweep point's critical words went. The words chain of the sparse
// plan's exact clock (Plan.Traffic, replayed here and nowhere else in the
// sweep) is split by send class, and the longest segment is its
// heaviest message.
func (s *Suite) CriticalChains() (*Table, error) {
	t := &Table{
		ID:      "E53",
		Title:   "critical words chain of the sparse plan by send class (words) on 2D grids",
		Columns: []string{"n", "p", "B_sparse"},
	}
	// No op sends unlabelled words, so SendOther gets no column.
	for c := comm.SendR2; int(c) < comm.NumSendClasses; c++ {
		t.Columns = append(t.Columns, c.String())
	}
	t.Columns = append(t.Columns, "longest segment")
	for _, pt := range s.Points {
		row := []interface{}{pt.N, pt.P, pt.Sparse.Critical.Bandwidth}
		traffic, err := pt.plan.Traffic(pt.layout)
		if err != nil {
			return nil, err
		}
		var byClass [comm.NumSendClasses]int64
		var longest int64
		for _, seg := range traffic.WordsChain {
			byClass[seg.Class] += seg.Words
			longest = max(longest, seg.Words)
		}
		for _, w := range byClass[comm.SendR2:] {
			row = append(row, w)
		}
		t.Add(append(row, longest)...)
	}
	t.Note("the classes sum to B_sparse, E2's executed critical words: the plan clock is exact")
	return t, nil
}

// ReductionFactors renders experiment E8: the measured advantage of the
// sparse algorithm against the Section 5.5 predictions.
func (s *Suite) ReductionFactors() *Table {
	t := &Table{
		ID:    "E8",
		Title: "Section 5.5 — measured vs predicted reduction factors (2D grids)",
		Columns: []string{"n", "p", "|S|", "L_dc/L_sp", "√p/log p",
			"B_dc/B_sp", "min(√p/log²p, n²/(|S|²√p log³p))"},
	}
	for _, pt := range s.Points {
		t.Add(pt.N, pt.P, pt.Sep,
			float64(pt.DenseDC.Critical.Latency)/float64(pt.Sparse.Critical.Latency),
			bounds.LatencyReductionFactor(pt.P),
			float64(pt.DenseDC.Critical.Bandwidth)/float64(pt.Sparse.Critical.Bandwidth),
			bounds.BandwidthReductionFactor(pt.N, pt.P, pt.Sep))
	}
	t.Note("measured and predicted factors should move together as p grows (shape, not constants)")
	return t
}

// LowerBounds renders experiment E10: measured costs against the
// Section 6 lower bounds — ratios must stay ≥ O(1) and should shrink
// toward the bound as the algorithm is nearly optimal.
func (s *Suite) LowerBounds() *Table {
	t := &Table{
		ID:    "E10",
		Title: "Section 6 — measured sparse costs over the lower bounds",
		Columns: []string{"n", "p", "|S|", "B_sparse/Ω(B)", "L_sparse/Ω(L)",
			"M_sparse/Ω(M)"},
	}
	for _, pt := range s.Points {
		t.Add(pt.N, pt.P, pt.Sep,
			float64(pt.Sparse.Critical.Bandwidth)/bounds.BandwidthLowerSparse(pt.N, pt.P, pt.Sep),
			float64(pt.Sparse.Critical.Latency)/bounds.LatencyLowerSparse(pt.P),
			float64(pt.Sparse.MaxMemory)/bounds.MemoryLower(pt.N, pt.P))
	}
	t.Note("bandwidth ratio is bounded by O(log²p); latency ratio by O(1): near-optimality")
	return t
}

// SeparatorCost runs experiment E9: the distributed nested-dissection
// preprocessing cost next to the APSP cost it must be subsumed by.
// Two preprocessing measurements appear: the *real* distributed
// partitioner (partition.DistributedND) and the Karypis–Kumar
// communication *replay* that matches the paper's cited bound exactly.
func SeparatorCost(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "Section 5.4.4 — preprocessing (ND) cost vs APSP cost on 2D grids",
		Columns: []string{"n", "p", "B_nd", "B_replay", "B_apsp", "L_nd", "L_replay", "L_apsp",
			"O(n log²p/√p)", "nd/apsp B"},
	}
	for _, side := range cfg.GridSides {
		rng := rand.New(rand.NewSource(cfg.Seed))
		g := graph.Grid2D(side, side, graph.RandomWeights(rng, 1, 10))
		for _, p := range cfg.Ps {
			h, err := apsp.HeightForP(p)
			if err != nil {
				return nil, err
			}
			_, ndRep, err := partition.DistributedND(g, p, h, cfg.Seed)
			if err != nil {
				return nil, err
			}
			replay, err := partition.DistributedNDCost(g, p, cfg.Seed)
			if err != nil {
				return nil, err
			}
			sp, err := apsp.SparseAPSPWith(g, p, cfg.sparseOpts())
			if err != nil {
				return nil, err
			}
			t.Add(g.N(), p,
				ndRep.Critical.Bandwidth, replay.Critical.Bandwidth, sp.Report.Critical.Bandwidth,
				ndRep.Critical.Latency, replay.Critical.Latency, sp.Report.Critical.Latency,
				bounds.SeparatorBandwidth(g.N(), p),
				float64(ndRep.Critical.Bandwidth)/float64(sp.Report.Critical.Bandwidth))
		}
	}
	t.Note("B_nd is the real (simplified) distributed partitioner, B_replay the cited")
	t.Note("Karypis–Kumar communication pattern. The replay is always subsumed (≪ B_apsp);")
	t.Note("the simplified real partitioner is subsumed once n²/p is large enough (its")
	t.Note("allgather-based boundary exchanges cost O(boundary·log q) vs the cited O(n/√q))")
	return t, nil
}

// Crossover runs experiment E11: sweep workloads from tiny to huge
// separators at fixed n and p and watch the sparse algorithm's
// bandwidth advantage disappear (Section 5.5's discussion).
func Crossover(cfg Config, n, p int) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: fmt.Sprintf("Section 5.5 — sparsity crossover at n=%d, p=%d", n, p),
		Columns: []string{"workload", "m", "|S|", "B_sparse", "B_dc", "dc/sparse",
			"L_sparse", "L_dc"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := graph.RandomWeights(rng, 1, 10)
	workloads := []struct {
		name string
		g    *graph.Graph
	}{
		{"star", graph.Star(n, w)},
		{"tree", graph.RandomTree(n, w, rng)},
		{"grid", gridOfN(n, w)},
		{"rgg", graph.RandomGeometric(n, 1.8/math.Sqrt(float64(n)), rng)},
		{"gnp-avg4", graph.RandomGNP(n, 4/float64(n), w, rng)},
		{"gnp-avg16", graph.RandomGNP(n, 16/float64(n), w, rng)},
		{"gnp-dense", graph.RandomGNP(n, 0.3, w, rng)},
		{"complete", graph.Complete(n, w)},
	}
	for _, wl := range workloads {
		sp, err := apsp.SparseAPSPWith(wl.g, p, cfg.sparseOpts())
		if err != nil {
			return nil, err
		}
		dc, err := apsp.DCAPSP(wl.g, p, cfg.CyclicFactor)
		if err != nil {
			return nil, err
		}
		t.Add(wl.name, wl.g.M(), sp.Layout.ND.SeparatorSize(),
			sp.Report.Critical.Bandwidth, dc.Report.Critical.Bandwidth,
			float64(dc.Report.Critical.Bandwidth)/float64(sp.Report.Critical.Bandwidth),
			sp.Report.Critical.Latency, dc.Report.Critical.Latency)
	}
	t.Note("dc/sparse shrinks toward (or below) 1 as |S| grows toward n: the advantage needs small separators")
	return t, nil
}

// CommBreakdown runs experiment E22 (which absorbed E17): the wire
// ablation with a per-phase words-moved breakdown. Each workload is
// solved twice — dense payloads with nothing skipped, then the
// structure-aware wire (mask-based skipping, demand keep-lists, the R2
// zero-diagonal drop, smallest encoding) — and the table splits each
// wire's traffic across the schedule phases (R2 pivots, R3 panels, R4
// panel broadcasts, R4 reduces, R4-sequential sends, transposes).
// Distances are bit-identical across wires by construction
// (prune_test.go pins it).
//
// The run fails (returns an error) if the sparse wire ever sends more
// messages than dense, or moves more words than dense plus one word per
// message, on any workload: skipping only removes collectives, and the
// chooser falls back to the dense body plus its one tag word whenever
// nothing smaller exists — so on a graph with nothing to prune the tag
// words are the whole difference, and no consumer-less panel is left
// in the schedule for dense alone to pay for. CI leans on this as the
// words-moved smoke check.
func CommBreakdown(cfg Config, n, p int) (*Table, error) {
	t := &Table{
		ID:    "E22",
		Title: fmt.Sprintf("per-phase words moved by wire format at n=%d, p=%d", n, p),
		Columns: []string{"workload", "|S|", "wire", "W_total", "W_r2", "W_r3", "W_r4panel",
			"W_r4reduce", "W_r4seq", "W_trans", "B_crit", "msgs", "dense/this"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := graph.RandomWeights(rng, 1, 10)
	workloads := []struct {
		name string
		g    *graph.Graph
	}{
		{"star", graph.Star(n, w)},
		{"tree", graph.RandomTree(n, w, rng)},
		{"path", graph.Path(n, w)},
		{"grid", gridOfN(n, w)},
		{"rgg", graph.RandomGeometric(n, 1.8/math.Sqrt(float64(n)), rng)},
		{"gnp-avg4", graph.RandomGNP(n, 4/float64(n), w, rng)},
	}
	wires := []apsp.WireFormat{apsp.WireDense, apsp.WirePruned}
	for _, wl := range workloads {
		reports := make([]comm.Report, len(wires))
		var sep int // wire-independent: the ordering is
		for i, wf := range wires {
			opts := cfg.sparseOpts()
			opts.Wire = wf
			res, err := apsp.SparseAPSPWith(wl.g, p, opts)
			if err != nil {
				return nil, err
			}
			reports[i], sep = res.Report, res.Layout.ND.SeparatorSize()
		}
		dense, sparse := reports[0], reports[1]
		if sparse.TotalWords > dense.TotalWords+sparse.TotalMessages || sparse.TotalMessages > dense.TotalMessages {
			return nil, fmt.Errorf("comm: %s: sparse wire moved %d words / %d messages, dense %d / %d — more than a tag word per message over dense: chooser regression",
				wl.name, sparse.TotalWords, sparse.TotalMessages, dense.TotalWords, dense.TotalMessages)
		}
		for i, wf := range wires {
			r := reports[i]
			t.Add(wl.name, sep, wf.String(), r.TotalWords,
				r.WordsByClass[comm.SendR2], r.WordsByClass[comm.SendR3],
				r.WordsByClass[comm.SendR4Panel], r.WordsByClass[comm.SendR4Reduce],
				r.WordsByClass[comm.SendR4Seq], r.WordsByClass[comm.SendTrans],
				r.Critical.Bandwidth, r.TotalMessages,
				float64(dense.TotalWords)/float64(r.TotalWords))
		}
	}
	t.Note("the win tracks how much of the closure stays empty and how little of each")
	t.Note("payload a receiver can fold: whole panels provably all-Inf and identity pivots")
	t.Note("collapsing to one word (stars), receivers folding only a slice of each payload")
	t.Note("(paths/trees), and R2 pivots trimmed even on grids whose blocks fill dense")
	return t, nil
}

// gridOfN builds the largest square grid with at most n vertices.
func gridOfN(n int, w graph.WeightFn) *graph.Graph {
	side := int(math.Sqrt(float64(n)))
	return graph.Grid2D(side, side, w)
}

// OperationCounts runs experiment E12 plus the Lemma 6.4 check:
// SuperFW's computation-avoiding operation count against classical n³
// and the Ω(n²|S|) lower bound.
func OperationCounts(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "SuperFW operation reduction (PPoPP'20 claim + Lemma 6.4)",
		Columns: []string{"n", "h", "|S|", "ops_superfw", "n³", "n³/ops",
			"n/|S|", "Ω(n²|S|)", "ops/Ω"},
	}
	for _, side := range cfg.GridSides {
		rng := rand.New(rand.NewSource(cfg.Seed))
		g := graph.Grid2D(side, side, graph.RandomWeights(rng, 1, 10))
		n := g.N()
		for _, h := range []int{2, 3, 4} {
			res, err := apsp.SuperFW(g, h, cfg.Seed)
			if err != nil {
				return nil, err
			}
			sep := res.Layout.ND.SeparatorSize()
			full := int64(n) * int64(n) * int64(n)
			lower := bounds.OperationsLower(n, sep)
			t.Add(n, h, sep, res.Ops, full,
				float64(full)/float64(res.Ops),
				float64(n)/float64(sep),
				lower, float64(res.Ops)/lower)
		}
	}
	t.Note("n³/ops grows with n/|S| (deeper trees help until separators dominate); ops/Ω stays ≥ 1")
	return t, nil
}

// Figure1 renders experiment E4: the paper's Fig. 1 reordering demo on
// its example graph — the reordered adjacency matrix with the empty
// cousin blocks visible.
func Figure1(seed int64) (*Table, error) {
	g := graph.Figure1Graph()
	nd, err := partition.NestedDissection(g, 2, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E4",
		Title:   "Figure 1 — nested-dissection reordering of the example graph",
		Columns: []string{"supernode", "level", "vertices (original ids)"},
	}
	tr := [3]int{1, 1, 2}
	for lbl := 1; lbl <= nd.N; lbl++ {
		t.Add(lbl, tr[lbl-1], fmt.Sprintf("%v", nd.Super[lbl]))
	}
	pg := g.Permute(nd.Perm)
	// Render the reordered adjacency pattern.
	var pattern string
	for i := 0; i < pg.N(); i++ {
		for j := 0; j < pg.N(); j++ {
			if i == j {
				pattern += "o"
			} else if _, ok := pg.HasEdge(i, j); ok {
				pattern += "o"
			} else {
				pattern += "."
			}
		}
		pattern += "\n"
	}
	t.Note("reordered adjacency pattern (o = finite, . = empty):\n%s", pattern)
	t.Note("blocks A(1,2)/A(2,1) (V1×V2) are empty — the Fig. 1d structure")
	return t, nil
}

// PerLevel runs experiment E13: the per-eTree-level cost decomposition
// of Lemmas 5.6, 5.8 and 5.9 — L_l = O(log p) at every level, and the
// level-1 bandwidth carrying the O(n²log p/p) leaf-block term while
// higher levels carry only separator-sized traffic.
func PerLevel(cfg Config, side, p int) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.Grid2D(side, side, graph.RandomWeights(rng, 1, 10))
	res, err := apsp.SparseAPSPWith(g, p, cfg.sparseOpts())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E13",
		Title:   fmt.Sprintf("Lemmas 5.6/5.8/5.9 — per-level costs, grid n=%d, p=%d", g.N(), p),
		Columns: []string{"level", "L_l", "O(log p)", "B_l", "flops_l"},
	}
	logp := math.Log2(float64(p))
	if logp < 1 {
		logp = 1
	}
	for _, ph := range res.Phases {
		t.Add(ph.ID, ph.Critical.Latency, logp, ph.Critical.Bandwidth, ph.Critical.Flops)
	}
	t.Note("L_l stays O(log p) at every level (Lemma 5.6); level 1 carries the n²/p-sized")
	t.Note("leaf traffic of Lemma 5.8 while levels ≥ 2 carry only separator-sized panels (Lemma 5.9)")
	return t, nil
}

// LoadBalance runs experiment E14: Section 5.1 argues the block layout
// suits Floyd–Warshall-structured algorithms because all processors
// stay active, unlike right-looking schemes. We measure per-rank flop
// and traffic imbalance (max/mean over ranks) for each solver.
func LoadBalance(cfg Config, side, p int) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.Grid2D(side, side, graph.RandomWeights(rng, 1, 10))
	t := &Table{
		ID:    "E14",
		Title: fmt.Sprintf("Section 5.1 — per-rank load balance, grid n=%d, p=%d", g.N(), p),
		Columns: []string{"algorithm", "flops max/mean", "words max/mean",
			"active ranks"},
	}
	add := func(name string, rep comm.Report) {
		var flopSum, flopMax, bwSum, bwMax float64
		active := 0
		for r := range rep.PerRank {
			f := float64(rep.LocalFlops[r])
			b := float64(rep.LocalSent[r])
			flopSum += f
			bwSum += b
			if f > flopMax {
				flopMax = f
			}
			if b > bwMax {
				bwMax = b
			}
			if f > 0 {
				active++
			}
		}
		n := float64(len(rep.PerRank))
		fr, br := 0.0, 0.0
		if flopSum > 0 {
			fr = flopMax / (flopSum / n)
		}
		if bwSum > 0 {
			br = bwMax / (bwSum / n)
		}
		t.Add(name, fr, br, active)
	}
	// Algorithm 1 as written (the dense wire) computes both orientations
	// of every block; the served wire computes each R3 sink block once,
	// so it is reported apart when it is the configured one.
	wires := []apsp.WireFormat{apsp.WireDense}
	if cfg.Wire != apsp.WireDense {
		wires = append(wires, cfg.Wire)
	}
	for _, wire := range wires {
		opts := cfg.sparseOpts()
		opts.Wire = wire
		sp, err := apsp.SparseAPSPWith(g, p, opts)
		if err != nil {
			return nil, err
		}
		add("2d-sparse-apsp "+wire.String(), sp.Report)
	}
	dc, err := apsp.DCAPSP(g, p, cfg.CyclicFactor)
	if err != nil {
		return nil, err
	}
	add("2d-dc-apsp", dc.Report)
	fw, err := apsp.Dist2DFW(g, p)
	if err != nil {
		return nil, err
	}
	add("2d-blocked-fw", fw.Report)
	t.Note("ratios use each rank's own work and sent-word counters (no clock merging);")
	t.Note("the sparse layout concentrates flops on leaf-block rows (bigger blocks), but")
	t.Note("under Algorithm 1 (dense wire) every rank stays active — the qualitative §5.1 claim;")
	t.Note("the pruned wire computes each R3 sink block in one orientation, so a rank owning")
	t.Note("only sink mirrors (and hosting no R4 unit) idles by design (E46)")
	return t, nil
}

// WeakScaling runs experiment E15: grow n with p so that n²/p stays
// constant, the regime where the sparse algorithm's bandwidth should
// stay flat while the dense algorithm's grows like √p.
func WeakScaling(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "weak scaling — n²/p held ≈ constant",
		Columns: []string{"n", "p", "n²/p", "B_sparse", "B_dc",
			"L_sparse", "L_dc", "dc/sparse B"},
	}
	// side ≈ base·p^{1/4} keeps n²/p constant.
	cases := []struct{ side, p int }{{12, 9}, {18, 49}, {28, 225}}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(cfg.Seed))
		g := graph.Grid2D(c.side, c.side, graph.RandomWeights(rng, 1, 10))
		sp, err := apsp.SparseAPSPWith(g, c.p, cfg.sparseOpts())
		if err != nil {
			return nil, err
		}
		dc, err := apsp.DCAPSP(g, c.p, cfg.CyclicFactor)
		if err != nil {
			return nil, err
		}
		n := g.N()
		t.Add(n, c.p, float64(n)*float64(n)/float64(c.p),
			sp.Report.Critical.Bandwidth, dc.Report.Critical.Bandwidth,
			sp.Report.Critical.Latency, dc.Report.Critical.Latency,
			float64(dc.Report.Critical.Bandwidth)/float64(sp.Report.Critical.Bandwidth))
	}
	t.Note("with n²/p fixed, the sparse bandwidth stays near-flat (log² growth) while the dense")
	t.Note("bandwidth grows like √p — the dc/sparse column widens")
	return t, nil
}

// StrongScaling runs experiment E16: fixed problem, growing machine.
// Critical-path flops are the simulator's proxy for computation time;
// speedup = total work / critical work, efficiency = speedup / p. This
// quantifies how much of the eTree parallelism the schedule actually
// realizes (deeper trees expose more level-1 parallelism but add
// sequential separator levels).
func StrongScaling(cfg Config, side int) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.Grid2D(side, side, graph.RandomWeights(rng, 1, 10))
	t := &Table{
		ID:      "E16",
		Title:   fmt.Sprintf("strong scaling — grid n=%d, critical-path computation", g.N()),
		Columns: []string{"p", "total_flops", "critical_flops", "speedup", "efficiency"},
	}
	for _, p := range cfg.Ps {
		sp, err := apsp.SparseAPSPWith(g, p, cfg.sparseOpts())
		if err != nil {
			return nil, err
		}
		var total int64
		for _, f := range sp.Report.LocalFlops {
			total += f
		}
		crit := sp.Report.Critical.Flops
		speedup := float64(total) / float64(crit)
		t.Add(p, total, crit, speedup, speedup/float64(p))
	}
	t.Note("speedup is bounded by the sequential top-separator levels (Amdahl) and the")
	t.Note("leaf-block work skew of E14; it grows with p but efficiency decays, as expected")
	t.Note("for a fixed-size problem under the block layout")
	return t, nil
}
