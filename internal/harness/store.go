package harness

import (
	"fmt"
	"math"
	"math/bits"
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
// every solver here returns — + the successor table: neighbour slots,
// each vertex's column at the width its own degree needs, plus the
// arrays that decode them. The serialised store is decoded and verified
// bit-identical before any row is emitted, and the run fails unless
// every integer workload stores its distances as uN with N from its
// largest distance and holds at most n(n+1)/2 of them at N bits plus the
// table its degree sequence predicts — the acceptance gate.
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
		Columns: []string{"workload", "kind", "slot_bits", "mean_bits", "hot_bytes", "hot_B/pair", "per_gb_hot",
			"cold_ms", "warm_ms", "cold/warm", "words_moved"},
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
		// The table from first principles, off the degree sequence: a
		// column of bits.Len(deg−1) bits per vertex, rows padded to whole
		// words, plus the int32 arrays that decode them — neighbour and
		// bit offsets, the half-edges twice (neighbour, reverse slot),
		// component labels. The distances likewise: the entries on and
		// below the diagonal, back to back at N = bits.Len(d_max + 1) bits
		// — d_max the largest finite distance, the all-ones code Inf.
		gn := int64(g.N())
		pairs := gn * gn
		rowBits, maxBits := int64(0), 0
		for u := 0; u < g.N(); u++ {
			if deg := g.Degree(u); deg > 1 {
				w := bits.Len(uint(deg - 1))
				rowBits += int64(w)
				maxBits = max(maxBits, w)
			}
		}
		table := gn*((rowBits+63)/64)*8 + (2*(gn+1)+4*int64(g.M())+gn)*4
		maxD := 0.0
		for _, d := range coldRes.Dist.V {
			if d <= math.MaxFloat64 {
				maxD = max(maxD, d)
			}
		}
		width := bits.Len64(uint64(maxD) + 1)
		if want := fmt.Sprintf("u%d", width); kind != want {
			return nil, fmt.Errorf("store %s: integer-weight distances up to %g stored as %s, want %s", wl.name, maxD, kind, want)
		}
		tri := (gn*(gn+1)/2*int64(width) + 63) / 64 * 8
		if hotBytes > tri+table || res.Successors().Bits() != maxBits {
			return nil, fmt.Errorf("store %s: %d bytes, widest column %d bits, for %d pairs (kind %s), want <= the %s triangle (%d) + the table of its degree sequence (%d, widest column %d)",
				wl.name, hotBytes, res.Successors().Bits(), pairs, kind, kind, tri, table, maxBits)
		}
		const gb = 1 << 30
		t.Add(wl.name, kind, maxBits, float64(rowBits)/float64(gn), hotBytes, float64(hotBytes)/float64(pairs), gb/hotBytes,
			coldMs, warmMs, coldMs/warmMs, coldRes.Report.TotalWords)
	}
	t.Note("hot: the lower triangle of the distances at their proven width (integer weights:")
	t.Note("uN, N = bits.Len(d_max+1) bits an entry, (n+1)N/16n B/pair, the matrix being")
	t.Note("proved bit-symmetric) + successors as neighbour slots, each column as wide as its")
	t.Note("vertex's degree needs: slot_bits is the widest column, mean_bits what a pair pays")
	t.Note("— the star's hub takes 10 bits and its leaves none — plus the counted int32 arrays")
	t.Note("that decode them (serialised store verified bit-identical on decode) — per_gb_hot")
	t.Note("is how many such graphs fit in one GB")
	t.Note("warm_ms is a fresh process over the same -plan-dir: the plan loads from disk")
	t.Note("hash-verified with zero symbolic builds, so only the numeric phase remains")
	return t, nil
}
