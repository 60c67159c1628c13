package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// succSolve mirrors the production registry solver: distances from the
// classical loop, successors rebuilt by apsp.SuccessorsFromDist — the
// same deterministic reconstruction promotion runs, so a promoted
// oracle must answer path queries bit-identically too.
func succSolve(g *graph.Graph) (*apsp.PathResult, error) {
	return apsp.SuccessorsFromDist(g, apsp.FloydWarshallPaths(g).Dist)
}

// tierWorkloads builds the five standard graph families with small
// integer weights, so every distance is a small integer and the store
// must land in the u16 kind.
func tierWorkloads(n int) map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(11))
	w := func(u, v int) float64 { return float64(rng.Intn(9) + 1) }
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	return map[string]*graph.Graph{
		"star": graph.Star(n, w),
		"tree": graph.RandomTree(n, w, rng),
		"grid": graph.Grid2D(side, side, w),
		"path": graph.Path(n, w),
		"gnp":  graph.RandomGNP(n, 4.0/float64(n), w, rng),
	}
}

func distOf(vals []float64, n int) *semiring.Matrix {
	return semiring.FromSlice(n, n, vals)
}

// TestCompressDistKinds pins the representation chosen for each value
// shape and proves bit-exact round trips through every tier kind.
func TestCompressDistKinds(t *testing.T) {
	inf := semiring.Inf
	cases := []struct {
		name string
		vals []float64
		kind string
	}{
		{"integer distances", []float64{0, 3, 7, inf}, "u16"},
		{"uniform fractional scale", []float64{0, 0.25, 1.5, inf}, "u16"},
		{"wide integers", []float64{0, 70000, 1e9, inf}, "u32"},
		// 2.5/1.5 is not an integer, so quantization fails; both values
		// survive a float32 round trip.
		{"f32-exact reals", []float64{0, 1.5, 2.5, inf}, "f32"},
		// 3·0.1 != 0.3 in float64 (and 0.1 is not float32-exact), so
		// nothing short of raw bits is lossless.
		{"f64-only reals", []float64{0, 0.1, 0.3, inf}, "f64"},
	}
	for _, tc := range cases {
		d := distOf(tc.vals, 2)
		blob := CompressDist(d)
		kind, n, err := CompressedInfo(blob)
		if err != nil {
			t.Fatalf("%s: CompressedInfo: %v", tc.name, err)
		}
		if kind != tc.kind || n != 2 {
			t.Errorf("%s: compressed as %s/n=%d, want %s/n=2", tc.name, kind, n, tc.kind)
		}
		got, err := DecompressDist(blob)
		if err != nil {
			t.Fatalf("%s: decompress: %v", tc.name, err)
		}
		for i, v := range tc.vals {
			if math.Float64bits(got.V[i]) != math.Float64bits(v) {
				t.Errorf("%s: value %d decoded to %v, want %v bit-exactly", tc.name, i, got.V[i], v)
			}
		}
	}
}

// TestCompressDistGraphFamilies runs the codec over real solved
// distance matrices: integer-weight graphs must land in the u16
// triangle and decode bit-identically, which is what puts an oracle at
// n(n+1) bytes — about 1 per pair — demoted or serialised and, hot, at
// that plus Successors.Bytes() — whose slot
// width follows the family's maximum degree: 2 bits on the path, 4 on
// the grid, tree and G(n,p), 8 on the 40-vertex star.
func TestCompressDistGraphFamilies(t *testing.T) {
	bits := map[string]int{"star": 8, "tree": 4, "grid": 4, "path": 2, "gnp": 4}
	for name, g := range tierWorkloads(40) {
		res, err := succSolve(g)
		if err != nil {
			t.Fatal(err)
		}
		blob := CompressDist(res.Dist)
		kind, _, err := CompressedInfo(blob)
		if err != nil {
			t.Fatal(err)
		}
		if kind != "u16" {
			t.Errorf("%s: integer-weight distances compressed as %s, want u16", name, kind)
		}
		got, err := DecompressDist(blob)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		for i, v := range res.Dist.V {
			if math.Float64bits(got.V[i]) != math.Float64bits(v) {
				t.Fatalf("%s: value %d decoded to %v, want %v bit-exactly", name, i, got.V[i], v)
			}
		}
		o, tri := FromResult(res, nil), distBytes(g.N(), 2, false)
		if hot, demoted := o.MemoryBytes(), o.withSuccessors(nil).MemoryBytes(); hot != hotBytes(g, 2, bits[name]) || demoted != tri {
			t.Errorf("%s: oracle holds %d bytes hot at %d-bit slots, %d demoted, want %d at %d bits and %d",
				name, hot, o.succ.Bits(), demoted, hotBytes(g, 2, bits[name]), bits[name], tri)
		}
		if got, want := int64(len(blob)), tierHeaderLen+tri; got != want {
			t.Errorf("%s: serialised to %d bytes, want %d", name, got, want)
		}
	}
}

// TestDecompressMalformed drives the store decoder over truncations and
// header corruptions of a blob in each layout: decode-or-error, never
// panic. The retired SAPSPT01 magic and a layout byte past the two
// defined are errors like any other.
func TestDecompressMalformed(t *testing.T) {
	for layout, vals := range map[string][]float64{
		"square": {0, 2, 5, semiring.Inf},
		"tri":    {0, 2, 2, 0},
	} {
		blob := CompressDist(distOf(vals, 2))
		if s, _, err := tierSplit(blob); err != nil || s.layoutName() != layout {
			t.Fatalf("%s seed blob: layout %v, err %v", layout, s, err)
		}
		for cut := 0; cut < len(blob); cut++ {
			if _, err := DecompressDist(blob[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d bytes decoded without error", layout, cut)
			}
		}
		if _, err := DecompressDist(append(append([]byte(nil), blob...), 0)); err == nil {
			t.Fatalf("%s: trailing byte decoded without error", layout)
		}
		for what, corrupt := range map[string]func(b []byte){
			"the SAPSPT01 magic": func(b []byte) { b[7] = '1' },
			"layout byte 2":      func(b []byte) { b[9] = 2 },
			"a reserved byte":    func(b []byte) { b[10] = 1 },
			"the other layout":   func(b []byte) { b[9] ^= 1 }, // same payload, wrong length for it
		} {
			mut := append([]byte(nil), blob...)
			corrupt(mut)
			if _, err := DecompressDist(mut); err == nil {
				t.Errorf("%s blob with %s decoded without error", layout, what)
			}
		}
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 2000; trial++ {
			mut := append([]byte(nil), blob...)
			for flips := 1 + rng.Intn(4); flips > 0; flips-- {
				mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			}
			m, err := DecompressDist(mut) // must not panic; errors are fine
			if err == nil && (m == nil || m.Rows != m.Cols) {
				t.Fatalf("%s trial %d: decode returned malformed matrix", layout, trial)
			}
		}
	}
}

// TestRegistryTierTransitions is the demote→promote→query contract
// across the five graph families: with a hot tier that fits one oracle,
// every older entry is demoted, every re-access promotes, and both
// distance and path queries stay bit-identical throughout — with zero
// re-solves.
func TestRegistryTierTransitions(t *testing.T) {
	const n = 40
	gs := tierWorkloads(n)
	names := make([]string, 0, len(gs))
	for name := range gs {
		names = append(names, name)
	}
	sort.Strings(names)

	var solves atomic.Int64
	r := NewRegistry(Config{
		Solve: func(g *graph.Graph) (*apsp.PathResult, error) {
			solves.Add(1)
			return succSolve(g)
		},
		// One of these u16 oracles, never two: the triangle is n(n+1) bytes
		// and the table brings each to between 1.9 and 2.6 n² (2-bit path
		// slots, 8-bit star slots).
		MemoryBudget:     3*n*n + 1,
		CompressedBudget: 1 << 20,
	})

	want := map[string]*apsp.PathResult{}
	for _, name := range names {
		res, err := succSolve(gs[name])
		if err != nil {
			t.Fatal(err)
		}
		want[name] = res
		if _, err := r.Get(gs[name]); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Demotions != int64(len(names)-1) || st.Evictions != 0 {
		t.Fatalf("stats after fill = %+v, want %d demotions and no drops", st, len(names)-1)
	}
	if st.CompressedEntries != len(names)-1 {
		t.Fatalf("stats after fill = %+v, want %d compressed entries", st, len(names)-1)
	}

	for round := 0; round < 2; round++ {
		for _, name := range names {
			g, ref := gs[name], want[name]
			o, err := r.Get(g)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, name, err)
			}
			for u := 0; u < g.N(); u++ {
				for v := 0; v < g.N(); v++ {
					d, err := o.Dist(u, v)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(d) != math.Float64bits(ref.Dist.At(u, v)) {
						t.Fatalf("round %d %s: Dist(%d,%d) = %v, want %v bit-exactly",
							round, name, u, v, d, ref.Dist.At(u, v))
					}
					// Every pair, not a sample: promotion re-extracts the
					// whole successor table from the widened store.
					path, err := o.Path(u, v)
					if err != nil {
						t.Fatal(err)
					}
					if wantPath := ref.Path(u, v); !reflect.DeepEqual(path, wantPath) {
						t.Fatalf("round %d %s: Path(%d,%d) = %v, want %v", round, name, u, v, path, wantPath)
					}
				}
			}
		}
	}
	if got := solves.Load(); got != int64(len(names)) {
		t.Errorf("solver ran %d times, want %d (promotion must never re-solve)", got, len(names))
	}
	if st := r.Stats(); st.Promotions == 0 {
		t.Errorf("stats = %+v, want promotions after re-access", st)
	}
}

// TestRegistryReweightInvalidatesBothTiers: Reweight of a *demoted*
// entry must promote it, repair it, and leave the old fingerprint in
// neither tier — a stale demoted store serving the old weights would be
// a correctness bug, not a memory bug.
func TestRegistryReweightInvalidatesBothTiers(t *testing.T) {
	g1, g2 := intGraph(21, 40), intGraph(22, 40)
	r := NewRegistry(Config{
		Solve:            fwSolve,
		Repair:           testRepairer(),
		MemoryBudget:     4*40*40 + 1,
		CompressedBudget: 1 << 20,
	})
	fp1 := FingerprintOf(g1)
	if _, err := r.Get(g1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(g2); err != nil { // displaces g1 into the compressed tier
		t.Fatal(err)
	}
	if st := r.Stats(); st.Demotions != 1 || st.CompressedEntries != 1 {
		t.Fatalf("stats = %+v, want g1 demoted", st)
	}

	edges := g1.Edges()
	edits := []apsp.EdgeEdit{{U: edges[0].U, V: edges[0].V, W: edges[0].W + 5}}
	newFp, o2, _, err := r.Reweight(fp1, edits)
	if err != nil {
		t.Fatal(err)
	}
	if r.Has(fp1) {
		t.Error("old fingerprint still cached after Reweight of a demoted entry")
	}
	if !r.Has(newFp) {
		t.Error("new fingerprint not cached after Reweight")
	}

	g1edited, err := apsp.ApplyEdits(g1, edits)
	if err != nil {
		t.Fatal(err)
	}
	ref := apsp.FloydWarshallPaths(g1edited)
	for u := 0; u < g1.N(); u++ {
		for v := 0; v < g1.N(); v++ {
			d, err := o2.Dist(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(d, ref.Dist.At(u, v)) {
				t.Fatalf("repaired Dist(%d,%d) = %v, want %v", u, v, d, ref.Dist.At(u, v))
			}
		}
	}

	r.checkAccounting(t)
}

// TestRegistryConcurrentTierChurn hammers a registry whose hot tier
// fits one oracle with concurrent Gets and queries across six graphs:
// demotions and promotions race with reads, distances must stay
// bit-identical, and — because the compressed tier holds everything —
// each graph must be solved exactly once. Run under -race in CI.
func TestRegistryConcurrentTierChurn(t *testing.T) {
	const graphs, workers, iters, n = 6, 16, 25, 24
	var solves atomic.Int64
	r := NewRegistry(Config{
		Solve:            countingSolver(&solves, 0),
		MemoryBudget:     4*n*n + 1,
		CompressedBudget: 1 << 20,
	})
	gs := make([]*graph.Graph, graphs)
	want := make([]*apsp.PathResult, graphs)
	for i := range gs {
		gs[i] = testGraph(int64(300+i), n)
		want[i] = apsp.FloydWarshallPaths(gs[i])
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < iters; it++ {
				i := rng.Intn(graphs)
				o, err := r.Get(gs[i])
				if err != nil {
					errs <- err
					return
				}
				u, v := rng.Intn(n), rng.Intn(n)
				d, err := o.Dist(u, v)
				if err != nil {
					errs <- err
					return
				}
				if !sameBits(d, want[i].Dist.At(u, v)) {
					errs <- fmt.Errorf("graph %d: Dist(%d,%d) = %v, want %v", i, u, v, d, want[i].Dist.At(u, v))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := solves.Load(); got != graphs {
		t.Errorf("solver ran %d times for %d graphs, want one each (tier churn must not drop entries)", got, graphs)
	}
	st := r.Stats()
	if st.Demotions == 0 || st.Promotions == 0 {
		t.Errorf("stats = %+v, want both demotions and promotions under churn", st)
	}
	if st.Evictions != 0 {
		t.Errorf("stats = %+v, want no full drops with a roomy compressed tier", st)
	}
}
