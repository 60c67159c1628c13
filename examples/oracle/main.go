// Example oracle: use the distance-oracle layer as an embedded library
// — the same serving core behind cmd/apspd, without the HTTP front-end.
//
// It builds a road-style grid, solves it once through an oracle
// registry, answers a batch of point and path queries from the retained
// result, and shows the cache counters: a second request for the same
// graph is a hit, not a second solve.
package main

import (
	"fmt"
	"log"

	"sparseapsp"
)

func main() {
	// A 20×20 road grid: 400 intersections, unit-length segments.
	g := sparseapsp.Grid2D(20, 20, sparseapsp.UnitWeights)

	// The registry solves on first request and caches by content
	// fingerprint under a 64 MiB budget.
	reg := sparseapsp.NewOracleRegistry(
		sparseapsp.Options{Algorithm: sparseapsp.SeqSuperFW},
		64<<20)

	o, err := reg.Get(g)
	if err != nil {
		log.Fatal(err)
	}

	// A batch of routing queries, fanned out over the worker pool.
	pairs := [][2]int{
		{0, 399},  // corner to corner
		{0, 19},   // along the top edge
		{190, 29}, // mid-grid hop
	}
	dists, err := o.BatchDist(pairs)
	if err != nil {
		log.Fatal(err)
	}
	paths, err := o.BatchPath(pairs)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range pairs {
		fmt.Printf("dist(%d, %d) = %g  (path: %d hops, weight %g)\n",
			p[0], p[1], dists[i], len(paths[i])-1, sparseapsp.PathWeight(g, paths[i]))
	}

	// Asking again for the same graph (any graph with the same content)
	// is a cache hit: no second solve runs.
	if _, err := reg.Get(g.Clone()); err != nil {
		log.Fatal(err)
	}
	st := reg.Stats()
	fmt.Printf("cache: %d solve(s), %d hit(s), %d miss(es), %d oracle(s), %d queries served\n",
		st.Solves, st.Hits, st.Misses, st.Entries, st.QueriesServed)
	fmt.Printf("fingerprint: %s\n", sparseapsp.GraphFingerprint(g))
}
