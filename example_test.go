package sparseapsp_test

import (
	"fmt"

	"sparseapsp"
)

// The basic workflow: build a graph, solve, read distances.
func ExampleSolve() {
	g := sparseapsp.NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 10)

	res, err := sparseapsp.Solve(g, sparseapsp.Options{Algorithm: sparseapsp.SeqFW})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Dist.At(0, 3))
	// Output: 4
}

// Distributed solve on a simulated 9-processor machine: the paper's
// sparse algorithm is picked automatically and the cost report carries
// the simulated communication.
func ExampleSolve_distributed() {
	g := sparseapsp.Grid2D(8, 8, sparseapsp.UnitWeights)
	res, err := sparseapsp.Solve(g, sparseapsp.Options{P: 9, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Algorithm)
	fmt.Println(res.Dist.At(0, 63)) // corner to corner of the 8x8 grid
	fmt.Println(res.Report.Critical.Latency > 0)
	// Output:
	// sparse2d
	// 14
	// true
}

// Shortest paths, not just distances.
func ExampleSolveWithPathsOptions() {
	g := sparseapsp.NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 10)

	pr, err := sparseapsp.SolveWithPathsOptions(g, sparseapsp.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(pr.Path(0, 3))
	// Output: [0 1 2 3]
}

// Machine sizes usable by the sparse algorithm.
func ExampleValidProcessorCounts() {
	fmt.Println(sparseapsp.ValidProcessorCounts(300))
	// Output: [1 9 49 225]
}

// Distance matrices can be cheaply certified.
func ExampleVerifyDistances() {
	g := sparseapsp.Cycle(5, sparseapsp.UnitWeights)
	res, _ := sparseapsp.Solve(g, sparseapsp.Options{Algorithm: sparseapsp.SeqJohnson})
	fmt.Println(sparseapsp.VerifyDistances(g, res.Dist))
	// Output: <nil>
}
