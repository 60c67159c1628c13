package apsp

import (
	"math"
	"math/rand"
	"testing"

	"sparseapsp/internal/graph"
)

// TestFillMaskStructure pins the symbolic phase's invariants: masks are
// symmetric at every level, grow monotonically across levels, hold the
// diagonal of every non-empty supernode, and never mark a block of an
// empty supernode.
func TestFillMaskStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	graphs := []*graph.Graph{
		graph.Grid2D(12, 12, graph.UnitWeights),
		graph.Path(150, graph.UnitWeights),
		graph.RandomTree(130, graph.UnitWeights, rng),
		graph.Star(100, graph.UnitWeights),
	}
	for gi, g := range graphs {
		ly, err := NewLayout(g, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		fm := NewFillMask(ly)
		n := ly.Tree.N
		for l := 1; l <= fm.H+1; l++ {
			for i := 1; i <= n; i++ {
				for j := 1; j <= n; j++ {
					if fm.At(l, i, j) != fm.At(l, j, i) {
						t.Fatalf("graph %d: mask asymmetric at l=%d (%d,%d)", gi, l, i, j)
					}
					if l > 1 && fm.At(l-1, i, j) && !fm.At(l, i, j) {
						t.Fatalf("graph %d: mask shrank at l=%d (%d,%d)", gi, l, i, j)
					}
					if (ly.ND.Sizes[i] == 0 || ly.ND.Sizes[j] == 0) && fm.At(l, i, j) {
						t.Fatalf("graph %d: empty supernode block (%d,%d) marked at l=%d", gi, i, j, l)
					}
				}
				if ly.ND.Sizes[i] > 0 && !fm.At(l, i, i) {
					t.Fatalf("graph %d: diagonal (%d,%d) unmarked at l=%d", gi, i, i, l)
				}
			}
		}
	}
}

// TestFillMaskInitialLevelMatchesBlocks checks the base case exactly:
// At(1, i, j) must be true precisely for the blocks the initial
// distance matrix populates (edges between supernodes, diagonal zeros).
func TestFillMaskInitialLevelMatchesBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := graph.RandomGNP(80, 0.06, graph.RandomWeights(rng, 1, 9), rng)
	ly, err := NewLayout(g, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	blocks, fm := ly.Blocks(), NewFillMask(ly)
	for i := 1; i <= ly.Tree.N; i++ {
		for j := 1; j <= ly.Tree.N; j++ {
			hasFinite := blocks[i][j].NNZ() > 0
			if got := fm.At(1, i, j); got != hasFinite {
				t.Errorf("At(1,%d,%d) = %v, but initial block NNZ = %d",
					i, j, got, blocks[i][j].NNZ())
			}
		}
	}
}

// TestFillMaskSoundAgainstSolve is the safety property the solver's
// skipping relies on: after a full (dense-wire, nothing skipped) solve,
// every finite distance lives in a block the final mask marked as
// possibly finite. The converse need not hold — the mask is an
// overapproximation.
func TestFillMaskSoundAgainstSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	graphs := []struct {
		name string
		g    *graph.Graph
		p    int
	}{
		{"grid", graph.Grid2D(12, 12, graph.RandomWeights(rng, 1, 10)), 49},
		{"path", graph.Path(180, graph.UnitWeights), 49},
		{"tree", graph.RandomTree(160, graph.UnitWeights, rng), 49},
		{"two-cliques", disconnectedCliques(30), 9},
	}
	for _, tc := range graphs {
		res, err := SparseAPSPWith(tc.g, tc.p, SparseOptions{Seed: 13, Wire: WireDense})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ly := res.Layout
		fm := NewFillMask(ly)
		sup, _ := ly.ND.VertexBlocks()
		for u := 0; u < tc.g.N(); u++ {
			su := int(sup[ly.ND.Perm[u]])
			for v := 0; v < tc.g.N(); v++ {
				if math.IsInf(res.Dist.At(u, v), 1) {
					continue
				}
				sv := int(sup[ly.ND.Perm[v]])
				if !fm.At(fm.H+1, su, sv) {
					t.Fatalf("%s: finite d(%d,%d) in block (%d,%d) the mask ruled out",
						tc.name, u, v, su, sv)
				}
			}
		}
	}
}

// TestFillMaskRulesOutCousinsOnPath: on a path graph the leftmost leaf
// region shares no edge with the root separator, so the mask must
// prove some related-pair blocks empty at level 1 — this is what makes
// the solver's broadcast skipping non-vacuous.
func TestFillMaskRulesOutCousinsOnPath(t *testing.T) {
	g := graph.Path(200, graph.UnitWeights)
	ly, err := NewLayout(g, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	fm := NewFillMask(ly)
	root := ly.Tree.N // bottom-up labelling: the root separator is N
	ruledOut := 0
	for i := 1; i <= ly.Tree.N; i++ {
		if ly.ND.Sizes[i] > 0 && ly.Tree.Related(i, root) && !fm.At(1, i, root) {
			ruledOut++
		}
	}
	if ruledOut == 0 {
		t.Error("path graph: no related (i, root) block ruled out at level 1")
	}
}

// disconnectedCliques builds two cliques with no path between them:
// half of all distances are Inf and whole blocks stay empty forever.
func disconnectedCliques(half int) *graph.Graph {
	g := graph.New(2 * half)
	for c := 0; c < 2; c++ {
		base := c * half
		for i := 0; i < half; i++ {
			for j := i + 1; j < half; j++ {
				g.AddEdge(base+i, base+j, 1)
			}
		}
	}
	return g
}
