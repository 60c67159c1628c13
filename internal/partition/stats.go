package partition

import (
	"fmt"
	"strings"

	"sparseapsp/internal/etree"
	"sparseapsp/internal/graph"
)

// Stats summarizes the quality of a nested-dissection ordering — the
// quantities that determine the constants in the paper's bounds.
type Stats struct {
	H               int
	N               int     // supernode count
	TopSeparator    int     // |S| of the root
	MaxSeparator    int     // largest separator anywhere in the tree
	SumSeparators   int     // total vertices in non-leaf supernodes
	MaxLeaf         int     // largest leaf supernode
	MinLeaf         int     // smallest leaf supernode
	LeafImbalance   float64 // max leaf / ideal leaf size
	EmptySupernodes int
	FillEdges       int // edges the elimination will create between related supernodes
}

// ComputeStats inspects an ordering of g.
func ComputeStats(g *graph.Graph, r *Result) Stats {
	s := Stats{H: r.H, N: r.N, TopSeparator: r.SeparatorSize(), MaxSeparator: r.MaxSeparatorSize()}
	s.MinLeaf = -1
	leafCount := 1 << (r.H - 1)
	for i := 1; i <= leafCount; i++ {
		sz := r.Sizes[i]
		if sz > s.MaxLeaf {
			s.MaxLeaf = sz
		}
		if s.MinLeaf == -1 || sz < s.MinLeaf {
			s.MinLeaf = sz
		}
	}
	for t := leafCount + 1; t <= r.N; t++ {
		s.SumSeparators += r.Sizes[t]
	}
	for t := 1; t <= r.N; t++ {
		if r.Sizes[t] == 0 {
			s.EmptySupernodes++
		}
	}
	ideal := float64(g.N()-s.SumSeparators) / float64(leafCount)
	if ideal > 0 {
		s.LeafImbalance = float64(s.MaxLeaf) / ideal
	}
	// Fill: a block (i, j) of related supernodes that holds no edge now
	// will still be computed on; count the graph edges in related
	// off-diagonal blocks as the "structural" edges and report the
	// complement as fill potential, per pair of related supernodes.
	sup, _ := r.VertexBlocks()
	type pair struct{ a, b int }
	hasEdge := map[pair]bool{}
	for _, e := range g.Edges() {
		tu, tv := int(sup[r.Perm[e.U]]), int(sup[r.Perm[e.V]])
		if tu != tv {
			if tu > tv {
				tu, tv = tv, tu
			}
			hasEdge[pair{tu, tv}] = true
		}
	}
	tr := etree.New(r.H)
	for i := 1; i <= r.N; i++ {
		for j := i + 1; j <= r.N; j++ {
			if r.Sizes[i] == 0 || r.Sizes[j] == 0 {
				continue
			}
			if tr.Related(i, j) && !hasEdge[pair{i, j}] {
				s.FillEdges += r.Sizes[i] * r.Sizes[j]
			}
		}
	}
	return s
}

func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "h=%d supernodes=%d |S|=%d maxSep=%d sepTotal=%d ",
		s.H, s.N, s.TopSeparator, s.MaxSeparator, s.SumSeparators)
	fmt.Fprintf(&sb, "leaves[min=%d max=%d imbalance=%.2f] empty=%d fillCells=%d",
		s.MinLeaf, s.MaxLeaf, s.LeafImbalance, s.EmptySupernodes, s.FillEdges)
	return sb.String()
}
