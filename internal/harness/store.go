package harness

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/oracle"
)

// StoreBench runs experiment E23: the tiered oracle memory story,
// end to end.
//
// Memory axis — for each integer-weight workload, the footprint of a
// solved oracle as the registry holds it: hot (distances at their
// proven width + uint16 successors) and demoted (the same distance
// store with the successor table dropped). The serialised store is
// decoded and verified bit-identical before any row is emitted, and
// the run fails unless every integer workload is at most 4 bytes/pair
// hot and exactly 2 bytes/pair demoted — the acceptance gate.
//
// Latency axis — each workload is solved twice against the same
// persistent plan store directory through two fresh caches, simulating
// a process restart: the cold solve pays the full symbolic phase (and
// writes the plan to disk), the warm-restart solve must reload it with
// ZERO symbolic builds (gated) and pay only the numeric phase.
func StoreBench(cfg Config, n, p int) (*Table, error) {
	t := &Table{
		ID: "E23",
		Title: fmt.Sprintf("tiered oracle memory at n=%d, p=%d (compressed tier + persistent plan store)",
			n, p),
		Columns: []string{"workload", "kind", "hot_bytes", "comp_bytes", "hot_B/pair", "comp_B/pair",
			"per_gb_hot", "per_gb_comp", "cold_ms", "warm_ms", "cold/warm", "words_moved"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := func(u, v int) float64 { return float64(rng.Intn(9) + 1) }
	workloads := []struct {
		name string
		g    *graph.Graph
	}{
		{"star", graph.Star(n, w)},
		{"tree", graph.RandomTree(n, w, rng)},
		{"grid", gridOfN(n, w)},
		{"gnp-avg4", graph.RandomGNP(n, 4/float64(n), w, rng)},
	}
	for _, wl := range workloads {
		g := wl.g
		dir, err := os.MkdirTemp("", "apsp-store-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)

		// Cold: full symbolic build, persisted to disk on the way out.
		cold, err := apsp.NewPlanCacheAt(dir)
		if err != nil {
			return nil, err
		}
		opts := cfg.sparseOpts()
		opts.Plans = cold
		start := time.Now()
		coldRes, err := apsp.SparseAPSPWith(g, p, opts)
		if err != nil {
			return nil, err
		}
		coldMs := float64(time.Since(start).Nanoseconds()) / 1e6
		if st := cold.Stats(); st.Builds != 1 || st.DiskWrites != 1 {
			return nil, fmt.Errorf("store %s: cold cache stats %+v, want 1 build / 1 disk write", wl.name, st)
		}

		// Warm restart: a FRESH cache over the same directory is all a
		// new process would have. Zero symbolic builds is the contract.
		warm, err := apsp.NewPlanCacheAt(dir)
		if err != nil {
			return nil, err
		}
		opts.Plans = warm
		start = time.Now()
		warmRes, err := apsp.SparseAPSPWith(g, p, opts)
		if err != nil {
			return nil, err
		}
		warmMs := float64(time.Since(start).Nanoseconds()) / 1e6
		if st := warm.Stats(); st.Builds != 0 || st.DiskHits != 1 {
			return nil, fmt.Errorf("store %s: warm restart ran %d symbolic builds (stats %+v), want 0",
				wl.name, st.Builds, st)
		}
		if !sameDistBits(coldRes.Dist, warmRes.Dist) {
			return nil, fmt.Errorf("store %s: persisted plan solved to different distances", wl.name)
		}

		// Tier footprints, as the registry counts them: a hot oracle, and
		// the same oracle without its successor table. The serialised
		// store must decode bit-identically before the bytes mean anything.
		res, err := apsp.SuccessorsFromDist(g, coldRes.Dist)
		if err != nil {
			return nil, err
		}
		hotBytes := oracle.FromResult(res, nil).MemoryBytes()
		compBytes := hotBytes - res.Successors().Bytes()
		blob := oracle.CompressDist(coldRes.Dist)
		kind, _, err := oracle.CompressedInfo(blob)
		if err != nil {
			return nil, err
		}
		dec, err := oracle.DecompressDist(blob)
		if err != nil {
			return nil, err
		}
		if !sameDistBits(coldRes.Dist, dec) {
			return nil, fmt.Errorf("store %s: serialised store is not bit-lossless", wl.name)
		}
		pairs := int64(g.N()) * int64(g.N())
		if hotBytes > 4*pairs || compBytes != 2*pairs {
			return nil, fmt.Errorf("store %s: %d bytes hot, %d demoted for %d pairs (kind %s), want <= 4 and = 2 bytes/pair",
				wl.name, hotBytes, compBytes, pairs, kind)
		}
		const gb = 1 << 30
		t.Add(wl.name, kind, hotBytes, compBytes, float64(hotBytes)/float64(pairs), float64(compBytes)/float64(pairs),
			gb/hotBytes, gb/compBytes,
			coldMs, warmMs, coldMs/warmMs, coldRes.Report.TotalWords)
	}
	t.Note("hot: distances at their proven width + uint16 successors (4 B/pair for integer")
	t.Note("weights); demoted: the same store without successors (u16 = 2 B/pair, serialised")
	t.Note("form verified bit-identical on decode) — per_gb_* is how many such graphs fit in one GB")
	t.Note("warm_ms is a fresh process over the same -plan-dir: the plan loads from disk")
	t.Note("hash-verified with zero symbolic builds, so only the numeric phase remains")
	return t, nil
}
