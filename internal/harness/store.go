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

// StoreBench runs experiment E23: what a resident oracle costs and what
// a restart costs.
//
// Memory axis — for each integer-weight workload, the footprint of a
// solved oracle as the registry holds it: distances at their proven
// width and layout — the lower triangle of the bit-symmetric matrix
// every solver here returns — + the successor table: neighbour slots at
// the width the family's maximum degree needs, plus the adjacency that
// decodes them. The serialised store is decoded and verified
// bit-identical before any row is emitted, and the run fails unless
// every integer workload holds at most n(n+1)/2 two-byte distances —
// (n+1)/n bytes/pair — plus the table at its family's width — the
// acceptance gate.
//
// Latency axis — each workload is solved twice against the same
// persistent plan store directory through two fresh caches, simulating
// a process restart: the cold solve pays the full symbolic phase (and
// writes the plan to disk), the warm-restart solve must reload it with
// ZERO symbolic builds (gated) and pay only the numeric phase.
func StoreBench(cfg Config, n, p int) (*Table, error) {
	t := &Table{
		ID:    "E23",
		Title: fmt.Sprintf("oracle memory + persistent plan store at n=%d, p=%d", n, p),
		Columns: []string{"workload", "kind", "slot_bits", "hot_bytes", "hot_B/pair", "per_gb_hot",
			"cold_ms", "warm_ms", "cold/warm", "words_moved"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := func(u, v int) float64 { return float64(rng.Intn(9) + 1) }
	// bits is the slot width each family must land at: the narrowest of
	// 2/4/8/16/32 whose all-ones value is left over above the slots of
	// its highest-degree vertex — the star's hub has n-1 neighbours, the
	// others stay under 16.
	starBits := 2
	for 1<<starBits-1 < n-1 {
		starBits *= 2
	}
	workloads := []struct {
		name string
		g    *graph.Graph
		bits int
	}{
		{"star", graph.Star(n, w), starBits},
		{"tree", graph.RandomTree(n, w, rng), 4},
		{"grid", gridOfN(n, w), 4},
		{"gnp-avg4", graph.RandomGNP(n, 4/float64(n), w, rng), 4},
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

		// The footprint as the registry counts it. The serialised store
		// must decode bit-identically before the bytes mean anything.
		res, err := apsp.SuccessorsFromDist(g, coldRes.Dist)
		if err != nil {
			return nil, err
		}
		hotBytes := oracle.FromResult(res, nil).MemoryBytes()
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
		// The table at the family's width, from first principles: rows
		// of slots padded to whole words, plus three int32 arrays over
		// the offsets and the half-edges (neighbour, reverse slot). The
		// distances likewise: the entries on and below the diagonal, two
		// bytes each.
		gn := int64(g.N())
		pairs := gn * gn
		table := gn*((gn*int64(wl.bits)+63)/64)*8 + (gn+1+4*int64(g.M()))*4
		tri := gn * (gn + 1) / 2 * 2
		if hotBytes > tri+table {
			return nil, fmt.Errorf("store %s: %d bytes at %d-bit slots for %d pairs (kind %s), want <= the u16 triangle (%d) + a %d-bit table (%d)",
				wl.name, hotBytes, res.Successors().Bits(), pairs, kind, tri, wl.bits, tri+table)
		}
		const gb = 1 << 30
		t.Add(wl.name, kind, res.Successors().Bits(), hotBytes, float64(hotBytes)/float64(pairs), gb/hotBytes,
			coldMs, warmMs, coldMs/warmMs, coldRes.Report.TotalWords)
	}
	t.Note("hot: the lower triangle of the distances at their proven width (integer weights: u16,")
	t.Note("(n+1)/n B/pair, the matrix being proved bit-symmetric) + successors as neighbour slots,")
	t.Note("slot_bits each — set by the family's maximum degree, so the star's hub keeps its whole")
	t.Note("table at 16 — plus the counted int32 adjacency that decodes them (serialised store")
	t.Note("verified bit-identical on decode) — per_gb_hot is how many such graphs fit in one GB")
	t.Note("warm_ms is a fresh process over the same -plan-dir: the plan loads from disk")
	t.Note("hash-verified with zero symbolic builds, so only the numeric phase remains")
	return t, nil
}
