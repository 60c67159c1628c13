package apsp

import (
	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// SuperFWResult carries the output of the sequential supernodal solver.
type SuperFWResult struct {
	Dist   *semiring.Matrix // distances in original vertex order
	Ops    int64            // semiring operations performed
	Layout *Layout          // the ordering used (separator sizes etc.)
}

// SuperFW is the sequential supernodal APSP of Sao, Kannan, Gera, Vuduc
// (PPoPP'20) as summarized in Sections 4 and 5.2 of the paper: nested
// dissection to 2^h − 1 supernodes, then bottom-up elimination of eTree
// levels where each level updates only the four regions R_l^1..R_l^4 —
// cousin blocks are skipped entirely, which is where the O(n/|S|)
// operation reduction over classical Floyd–Warshall comes from.
//
// It is also the sequential semantics of the distributed SparseAPSPWith:
// both run the same region schedule, so their results must agree
// exactly.
func SuperFW(g *graph.Graph, h int, seed int64) (*SuperFWResult, error) {
	ly, err := NewLayout(g, h, seed)
	if err != nil {
		return nil, err
	}
	blocks := ly.Blocks()
	tr := ly.Tree
	var ops int64

	for l := 1; l <= tr.H; l++ {
		// R_l^1: diagonal updates.
		for _, k := range tr.LevelNodes(l) {
			ops += semiring.ClassicalFW(blocks[k][k])
		}
		// R_l^2: panel updates.
		for _, k := range tr.LevelNodes(l) {
			dk := blocks[k][k]
			for _, i := range tr.RelatedSet(k) {
				if i == k {
					continue
				}
				ops += semiring.PanelUpdateLeft(blocks[i][k], dk)
				ops += semiring.PanelUpdateRight(blocks[k][i], dk)
			}
		}
		// R_l^3: single-unit min-plus outer products.
		for _, pb := range tr.R3(l) {
			ops += semiring.MulAddInto(blocks[pb.I][pb.J], blocks[pb.I][pb.K], blocks[pb.K][pb.J])
		}
		// R_l^4: multi-unit blocks; compute the level(i) ≤ level(j) half
		// and mirror by symmetry, exactly as the distributed algorithm.
		for _, b := range tr.R4Lower(l) {
			for _, k := range tr.UnitsFor(l, b.I, b.J) {
				ops += semiring.MulAddInto(blocks[b.I][b.J], blocks[b.I][k], blocks[k][b.J])
			}
			if b.I != b.J {
				blocks[b.J][b.I] = blocks[b.I][b.J].Transpose()
			}
		}
	}

	return &SuperFWResult{
		Dist:   ly.AssembleOriginal(blocks),
		Ops:    ops,
		Layout: ly,
	}, nil
}
