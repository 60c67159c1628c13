// Command ndview visualizes the preprocessing pipeline of the paper:
// the nested-dissection supernodes, the elimination tree (Figures 2
// and 3a), the reordered adjacency pattern (Figure 1d) and the update
// regions R_l^1..R_l^4 (Figure 3b).
//
// Usage:
//
//	ndview -fig1                      # the paper's example graph
//	ndview -gen grid -n 64 -h 3       # ordering of a grid
//	ndview -regions -h 4 -l 2         # Figure 3b region map
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/etree"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/harness"
	"sparseapsp/internal/partition"
)

func main() {
	var (
		fig1    = flag.Bool("fig1", false, "show the Figure 1 reordering demo")
		regions = flag.Bool("regions", false, "show the R_l region map of an eTree (Figure 3b)")
		traffic = flag.Bool("traffic", false, "run the sparse solver and show the rank-to-rank traffic heatmap")
		gen     = flag.String("gen", "grid", "workload generator for the ordering view")
		n       = flag.Int("n", 64, "vertex count")
		h       = flag.Int("h", 3, "eTree height")
		l       = flag.Int("l", 2, "level for -regions")
		seed    = flag.Int64("seed", 42, "nested-dissection seed")
	)
	flag.Parse()

	switch {
	case *traffic:
		showTraffic(*gen, *n, *h, *seed)
	case *fig1:
		t, err := harness.Figure1(*seed)
		if err != nil {
			fatal(err)
		}
		t.Fprint(os.Stdout)
	case *regions:
		showRegions(*h, *l)
	default:
		showOrdering(*gen, *n, *h, *seed)
	}
}

func showOrdering(gen string, n, h int, seed int64) {
	g, err := graph.NamedGenerator(gen, n, seed)
	if err != nil {
		fatal(err)
	}
	nd, err := partition.NestedDissection(g, h, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: %s, n=%d m=%d; eTree height %d, %d supernodes\n\n",
		gen, g.N(), g.M(), h, nd.N)
	tr := etree.New(h)
	fmt.Println("eTree (labels level by level, bottom-up as in Fig. 3a):")
	for lvl := h; lvl >= 1; lvl-- {
		fmt.Printf("  level %d:", lvl)
		for _, k := range tr.LevelNodes(lvl) {
			fmt.Printf("  %d(size %d)", k, nd.Sizes[k])
		}
		fmt.Println()
	}
	fmt.Printf("\ntop separator |S| = %d, largest separator = %d\n",
		nd.SeparatorSize(), nd.MaxSeparatorSize())
	if err := partition.CheckSeparation(g, nd); err != nil {
		fatal(fmt.Errorf("SEPARATION VIOLATION: %w", err))
	}
	fmt.Println("cousin separation verified: all cousin blocks of the reordered matrix are empty")
	if g.N() <= 80 {
		pg := g.Permute(nd.Perm)
		fmt.Println("\nreordered adjacency pattern (o = finite entry):")
		for i := 0; i < pg.N(); i++ {
			var sb strings.Builder
			for j := 0; j < pg.N(); j++ {
				if i == j {
					sb.WriteByte('o')
				} else if _, ok := pg.HasEdge(i, j); ok {
					sb.WriteByte('o')
				} else {
					sb.WriteByte('.')
				}
			}
			fmt.Println("  " + sb.String())
		}
	}
}

func showRegions(h, l int) {
	tr := etree.New(h)
	if l < 1 || l > h {
		fatal(fmt.Errorf("level %d outside [1,%d]", l, h))
	}
	fmt.Printf("eTree height %d (√p = %d), elimination level %d\n", h, tr.N, l)
	fmt.Println("block region map (rows/cols are supernode labels; 1..4 = R_l^1..R_l^4, . = untouched):")
	header := "     "
	for j := 1; j <= tr.N; j++ {
		header += fmt.Sprintf("%3d", j)
	}
	fmt.Println(header)
	for i := 1; i <= tr.N; i++ {
		row := fmt.Sprintf("%4d ", i)
		for j := 1; j <= tr.N; j++ {
			r := tr.RegionOf(l, i, j)
			if r == 0 {
				row += "  ."
			} else {
				row += fmt.Sprintf("%3d", r)
			}
		}
		fmt.Println(row)
	}
	units := tr.UnitsForLevel(l)
	fmt.Printf("\nR_%d^4 computing units (Corollary 5.5 one-to-one map): %d units\n", l, len(units))
	for _, u := range units {
		fmt.Printf("  P(%2d,%2d) computes A(%d,%d) ⊗ A(%d,%d)\n", u.F, u.G, u.I, u.K, u.K, u.J)
	}
}

// showTraffic renders the words-sent matrix of a sparse solve as an
// ASCII heatmap: the eTree structure is visible as hot pivot
// rows/columns and the Corollary 5.5 unit-processor rows — above level
// 1: the default wire runs one level-1 unit per block on the block's
// owner.
func showTraffic(gen string, n, h int, seed int64) {
	g, err := graph.NamedGenerator(gen, n, seed)
	if err != nil {
		fatal(err)
	}
	s := (1 << h) - 1
	p := s * s
	res, err := apsp.SparseAPSP(g, p, seed)
	if err != nil {
		fatal(err)
	}
	tr := res.Traffic
	var max int64
	for _, row := range tr {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	fmt.Printf("sparse solve on %s n=%d, p=%d (grid %dx%d); words sent, max cell = %d\n", gen, g.N(), p, s, s, max)
	fmt.Println("heatmap (rows = senders, cols = receivers; . 0, then ░▒▓█ by volume):")
	shades := []rune{'.', '░', '▒', '▓', '█'}
	for src := 0; src < p; src++ {
		var sb strings.Builder
		for dst := 0; dst < p; dst++ {
			v := tr[src][dst]
			idx := 0
			if v > 0 && max > 0 {
				idx = 1 + int(3*v/(max+1))
			}
			sb.WriteRune(shades[idx])
		}
		fmt.Println("  " + sb.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ndview:", err)
	os.Exit(1)
}
