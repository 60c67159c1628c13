// Command apsp computes all-pairs shortest paths for a graph in the
// text edge-list format (see package graph), or a generated workload,
// and prints either a single distance, a full matrix, or the simulated
// communication-cost report.
//
// Usage:
//
//	apsp -gen grid -n 256 -p 49 -report
//	apsp -in graph.txt -alg superfw -from 0 -to 10
//	echo "n 3
//	0 1 2
//	1 2 2" | apsp -alg johnson -matrix
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"sparseapsp"
	"sparseapsp/internal/apsp"
	"sparseapsp/internal/graph"
)

func main() {
	var (
		in     = flag.String("in", "", "input graph file; default stdin unless -gen")
		metis  = flag.Bool("metis", false, "input is METIS format instead of edge-list")
		gen    = flag.String("gen", "", "generate a workload instead: grid, grid3d, path, cycle, tree, gnp, gnp-dense, rmat, complete, star, rgg")
		n      = flag.Int("n", 256, "target vertex count for -gen")
		alg    = flag.String("alg", "auto", "algorithm: auto, sparse2d, dc, 2dfw, fw, superfw, johnson")
		p      = flag.Int("p", 0, "simulated machine size for distributed algorithms")
		seed   = flag.Int64("seed", 42, "random seed")
		from   = flag.Int("from", -1, "source vertex (-1: no single query)")
		to     = flag.Int("to", -1, "target vertex")
		path   = flag.Bool("path", false, "also print a shortest path for the -from/-to query")
		matrix = flag.Bool("matrix", false, "print the full distance matrix")
		report = flag.Bool("report", false, "print the communication-cost report")
	)
	flag.Parse()

	var g *sparseapsp.Graph
	var err error
	switch {
	case *gen != "":
		g, err = graph.NamedGenerator(*gen, *n, *seed)
	case *in != "":
		f, ferr := os.Open(*in)
		if ferr != nil {
			fatal(ferr)
		}
		defer f.Close()
		if *metis {
			g, err = graph.ReadMETIS(f)
		} else {
			g, err = sparseapsp.ReadGraph(f)
		}
	default:
		if *metis {
			g, err = graph.ReadMETIS(os.Stdin)
		} else {
			g, err = sparseapsp.ReadGraph(os.Stdin)
		}
	}
	if err != nil {
		fatal(err)
	}

	res, err := sparseapsp.Solve(g, sparseapsp.Options{
		P:         *p,
		Algorithm: sparseapsp.Algorithm(*alg),
		Seed:      *seed,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("n=%d m=%d algorithm=%s", g.N(), g.M(), res.Algorithm)
	if res.SeparatorSize > 0 {
		fmt.Printf(" |S|=%d", res.SeparatorSize)
	}
	if res.Ops > 0 {
		fmt.Printf(" ops=%d", res.Ops)
	}
	fmt.Println()

	if *from >= 0 && *to >= 0 {
		if *from >= g.N() || *to >= g.N() {
			fatal(fmt.Errorf("query (%d,%d) outside [0,%d)", *from, *to, g.N()))
		}
		d := res.Dist.At(*from, *to)
		if math.IsInf(d, 1) {
			fmt.Printf("d(%d,%d) = unreachable\n", *from, *to)
		} else {
			fmt.Printf("d(%d,%d) = %g\n", *from, *to, d)
		}
		if *path {
			// Successors come from the distances just solved, not from
			// a second solve.
			pr, err := apsp.SuccessorsFromDist(g, res.Dist)
			if err != nil {
				fatal(err)
			}
			route := pr.Path(*from, *to)
			fmt.Printf("path: %v weight=%g\n", route, sparseapsp.PathWeight(g, route))
		}
	}
	if *matrix {
		fmt.Print(res.Dist.String())
	}
	if *report {
		rep := res.Report
		fmt.Printf("critical path: latency=%d messages, bandwidth=%d words, flops=%d ops\n",
			rep.Critical.Latency, rep.Critical.Bandwidth, rep.Critical.Flops)
		fmt.Printf("totals: %d messages, %d words; max per-rank memory %d words\n",
			rep.TotalMessages, rep.TotalWords, rep.MaxMemory)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apsp:", err)
	os.Exit(1)
}
