// Pipeline: the fully distributed workflow — the ordering itself is
// computed by the distributed multilevel partitioner (the Section 5.4.4
// preprocessing step), then the paper's 2D-SPARSE-APSP consumes it on
// the same machine size. Both stages report their simulated
// communication costs, demonstrating the §5.4.4 claim that
// preprocessing is subsumed by the solve.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/partition"
)

func main() {
	const p = 49 // 7×7 grid of processors, eTree height 3
	rng := rand.New(rand.NewSource(5))
	g := graph.Grid2D(24, 24, graph.RandomWeights(rng, 1, 10))
	fmt.Printf("workload: 24x24 grid, n=%d m=%d, machine p=%d\n\n", g.N(), g.M(), p)

	// Stage 1: distributed nested dissection on the simulated machine.
	h, err := apsp.HeightForP(p)
	if err != nil {
		log.Fatal(err)
	}
	nd, prep, err := partition.DistributedND(g, p, h, 5)
	if err != nil {
		log.Fatal(err)
	}
	if err := partition.CheckSeparation(g, nd); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preprocessing (distributed ND): |S|=%d, latency=%d msgs, bandwidth=%d words\n",
		nd.SeparatorSize(), prep.Critical.Latency, prep.Critical.Bandwidth)

	// Stage 2: the paper's solver, using that ordering.
	ly := apsp.NewLayoutFromOrdering(g, nd)
	pl, err := apsp.BuildPlan(ly, p, apsp.WirePruned, apsp.R4Mapped)
	if err != nil {
		log.Fatal(err)
	}
	res, err := pl.ExecuteOpts(ly, apsp.ExecOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solve (2D-SPARSE-APSP):         latency=%d msgs, bandwidth=%d words\n",
		res.Report.Critical.Latency, res.Report.Critical.Bandwidth)

	// Sanity: exact against a sequential oracle.
	want, err := apsp.Johnson(g)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Dist.EqualTol(want, 1e-9) {
		log.Fatal("distributed pipeline diverges from Johnson's algorithm")
	}
	fmt.Println("\ndistances verified against Johnson's algorithm")

	fmt.Printf("\npreprocessing/solve bandwidth ratio: %.3f (must be ≪ 1, §5.4.4)\n",
		float64(prep.Critical.Bandwidth)/float64(res.Report.Critical.Bandwidth))

	// Per-level decomposition of the solve (Lemmas 5.6/5.8/5.9).
	fmt.Println("\nper-eTree-level solve costs:")
	for _, ph := range res.Phases {
		fmt.Printf("  %-8s latency=%3d  bandwidth=%7d  flops=%d\n",
			ph.ID, ph.Critical.Latency, ph.Critical.Bandwidth, ph.Critical.Flops)
	}
}
