package apsp

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"sparseapsp/internal/graph"
)

// solvePaths runs the sparse solver and extracts successors — the
// from-scratch reference the repair path must match bit for bit.
func solvePaths(t *testing.T, g *graph.Graph, p int, sopts SparseOptions) *PathResult {
	t.Helper()
	res, err := SparseAPSPWith(g, p, sopts)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	pr, err := SuccessorsFromDist(g, res.Dist)
	if err != nil {
		t.Fatalf("successors: %v", err)
	}
	return pr
}

// pickEdits draws k distinct edges and reweights them: kind "dec"
// lowers each weight by 1 (possibly to 0), "inc" raises it by 1–5,
// "mixed" alternates. Integer weights in, integer weights out, so every
// path sum stays float64-exact and bit-identity is meaningful.
func pickEdits(g *graph.Graph, rng *rand.Rand, k int, kind string) []EdgeEdit {
	edges := g.Edges()
	if k > len(edges) {
		k = len(edges)
	}
	perm := rng.Perm(len(edges))
	edits := make([]EdgeEdit, 0, k)
	for i := 0; i < k; i++ {
		e := edges[perm[i]]
		up := kind == "inc" || (kind == "mixed" && i%2 == 1)
		if up {
			edits = append(edits, EdgeEdit{U: e.U, V: e.V, W: e.W + float64(rng.Intn(5)+1)})
		} else {
			edits = append(edits, EdgeEdit{U: e.U, V: e.V, W: e.W - 1})
		}
	}
	return edits
}

// TestRepairMatchesWarmExecute is the tentpole property test: across
// graph families, both wire formats and all edit mixes, Repair's
// distances are bit-identical to a from-scratch warm solve of the
// edited graph, the repaired successor structure passes VerifyPaths,
// and the previous result is left untouched (the registry serves it
// concurrently while the swap is in flight).
func TestRepairMatchesWarmExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	graphs := []struct {
		name string
		g    *graph.Graph
		p    int
	}{
		{"grid", graph.Grid2D(9, 9, integerWeights(rng, 10)), 9},
		{"gnp", graph.RandomGNP(70, 0.08, integerWeights(rng, 5), rng), 9},
		{"tree", graph.RandomTree(90, integerWeights(rng, 7), rng), 49},
		{"rmat", graph.RMAT(6, 3, integerWeights(rng, 4), rng), 9},
		{"star", graph.Star(60, integerWeights(rng, 3)), 9},
	}
	for _, tc := range graphs {
		for _, wire := range []WireFormat{WirePruned, WireDense} {
			sopts := SparseOptions{Seed: 11, Wire: wire, Plans: NewPlanCache()}
			prev := solvePaths(t, tc.g, tc.p, sopts)
			prevDist := prev.Dist.Clone()
			for _, kind := range []string{"dec", "inc", "mixed"} {
				k := tc.g.M() / 20
				if k < 1 {
					k = 1
				}
				edits := pickEdits(tc.g, rng, k, kind)
				got, g2, st, err := RepairWithOptions(tc.g, prev, edits, tc.p, sopts, 0)
				if err != nil {
					t.Fatalf("%s/%v/%s: repair: %v", tc.name, wire, kind, err)
				}
				want := solvePaths(t, g2, tc.p, sopts)
				if !identicalMatrices(got.Dist, want.Dist) {
					t.Errorf("%s/%v/%s: repaired distances differ from warm re-solve (stats %+v)", tc.name, wire, kind, st)
				}
				if err := VerifyPaths(g2, got); err != nil {
					t.Errorf("%s/%v/%s: repaired successors invalid: %v", tc.name, wire, kind, err)
				}
				if !identicalMatrices(prev.Dist, prevDist) {
					t.Fatalf("%s/%v/%s: Repair mutated the previous result", tc.name, wire, kind)
				}
				if st.Edits == 0 || st.Edits != st.Decreases+st.Increases {
					t.Errorf("%s/%v/%s: inconsistent stats %+v", tc.name, wire, kind, st)
				}
				if kind == "dec" && st.Increases != 0 {
					t.Errorf("%s/%v/%s: decrease-only edits recorded %d increases", tc.name, wire, kind, st.Increases)
				}
			}
			// The original solve populated the plan cache; the repairs
			// must have reused it instead of rebuilding the symbolic
			// phase (the whole point of repairing in place).
			if s := sopts.Plans.Stats(); s.Builds != 1 {
				t.Errorf("%s/%v: plan cache built %d times, want 1", tc.name, wire, s.Builds)
			}
		}
	}
}

// TestRepairFallback forces the damage threshold to zero-ish so every
// repair falls back to the warm Execute, and checks the fallback is
// just as exact and flagged in the stats.
func TestRepairFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Grid2D(9, 9, integerWeights(rng, 10))
	const p = 9
	sopts := SparseOptions{Seed: 5, Plans: NewPlanCache()}
	prev := solvePaths(t, g, p, sopts)
	edits := pickEdits(g, rng, 6, "mixed")

	got, g2, st, err := RepairWithOptions(g, prev, edits, p, sopts, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FellBack {
		t.Fatalf("threshold 1e-9 did not trigger fallback (stats %+v)", st)
	}
	want := solvePaths(t, g2, p, sopts)
	if !identicalMatrices(got.Dist, want.Dist) {
		t.Error("fallback distances differ from warm re-solve")
	}
	if err := VerifyPaths(g2, got); err != nil {
		t.Errorf("fallback successors invalid: %v", err)
	}

	// Threshold >= 1 must never fall back, even for heavy edits.
	heavy := pickEdits(g, rng, g.M()/2, "mixed")
	_, _, st2, err := RepairWithOptions(g, prev, heavy, p, sopts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.FellBack {
		t.Errorf("threshold 2 fell back anyway (stats %+v)", st2)
	}
}

// TestRepairEditValidation pins the error behavior: edits must name
// existing edges with finite non-negative weights, and ApplyEdits
// shares the exact same validation (the registry fingerprints the
// edited graph before repairing, so both must agree on what's legal).
func TestRepairEditValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Grid2D(5, 5, integerWeights(rng, 10))
	const p = 9
	prev := solvePaths(t, g, p, SparseOptions{Seed: 1})

	bad := [][]EdgeEdit{
		{{U: 0, V: 24, W: 3}},                    // not an edge
		{{U: 0, V: 0, W: 3}},                     // self-loop
		{{U: -1, V: 1, W: 3}},                    // out of range
		{{U: 0, V: 25, W: 3}},                    // out of range
		{{U: 0, V: 1, W: -2}},                    // negative weight
		{{U: 0, V: 1, W: math.NaN()}},            // NaN
		{{U: 0, V: 1, W: math.Inf(1)}},           // Inf (would delete the edge)
		{{U: 0, V: 1, W: 2}, {U: 5, V: 7, W: 1}}, // second edit bad, first fine
	}
	for i, edits := range bad {
		if _, _, _, err := RepairWithOptions(g, prev, edits, p, SparseOptions{Seed: 1}, 0); err == nil {
			t.Errorf("case %d: Repair accepted invalid edits %+v", i, edits)
		}
		if _, err := ApplyEdits(g, edits); err == nil {
			t.Errorf("case %d: ApplyEdits accepted invalid edits %+v", i, edits)
		}
	}

	// Duplicate edits: the last write wins, matching ApplyEdits.
	w01, _ := g.HasEdge(0, 1)
	dup := []EdgeEdit{{U: 0, V: 1, W: w01 + 4}, {U: 1, V: 0, W: w01 + 2}}
	got, g2, st, err := RepairWithOptions(g, prev, dup, p, SparseOptions{Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g2.HasEdge(0, 1); w != w01+2 {
		t.Errorf("duplicate edits: edge {0,1} weight %g, want last write %g", w, w01+2)
	}
	if st.Edits != 1 {
		t.Errorf("duplicate edits collapsed to %d deltas, want 1", st.Edits)
	}
	want := solvePaths(t, g2, p, SparseOptions{Seed: 1})
	if !identicalMatrices(got.Dist, want.Dist) {
		t.Error("duplicate-edit repair differs from re-solve")
	}

	// No-op edits (same weight) repair to an identical, non-aliased copy.
	noop := []EdgeEdit{{U: 0, V: 1, W: w01}}
	got2, _, st2, err := RepairWithOptions(g, prev, noop, p, SparseOptions{Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Edits != 0 {
		t.Errorf("no-op edit counted as %d edits", st2.Edits)
	}
	if !identicalMatrices(got2.Dist, prev.Dist) {
		t.Error("no-op repair changed distances")
	}
	if &got2.Dist.V[0] == &prev.Dist.V[0] || &got2.next.words[0] == &prev.next.words[0] {
		t.Error("no-op repair aliased the previous result's storage")
	}
}

// TestRepairZeroWeightEdges exercises the awkward corner the tight-edge
// successor walk exists for: decreases down to weight 0 create
// zero-weight cycles in the tight-edge graph, and increases from 0 make
// previously free detours cost real weight.
func TestRepairZeroWeightEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.Grid2D(7, 7, integerWeights(rng, 3))
	const p = 9
	sopts := SparseOptions{Seed: 2, Plans: NewPlanCache()}
	prev := solvePaths(t, g, p, sopts)

	edges := g.Edges()
	var edits []EdgeEdit
	for i := 0; i < 8 && i < len(edges); i++ {
		edits = append(edits, EdgeEdit{U: edges[i].U, V: edges[i].V, W: 0})
	}
	got, g2, _, err := RepairWithOptions(g, prev, edits, p, sopts, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := solvePaths(t, g2, p, sopts)
	if !identicalMatrices(got.Dist, want.Dist) {
		t.Error("zero-weight decreases: distances differ from re-solve")
	}
	if err := VerifyPaths(g2, got); err != nil {
		t.Errorf("zero-weight decreases: %v", err)
	}

	// Now raise them back up from zero.
	var back []EdgeEdit
	for _, e := range edits {
		back = append(back, EdgeEdit{U: e.U, V: e.V, W: 5})
	}
	got2, g3, st, err := RepairWithOptions(g2, got, back, p, sopts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Increases != len(back) {
		t.Errorf("raising %d zero edges recorded %d increases", len(back), st.Increases)
	}
	want2 := solvePaths(t, g3, p, sopts)
	if !identicalMatrices(got2.Dist, want2.Dist) {
		t.Error("increases from zero: distances differ from re-solve")
	}
	if err := VerifyPaths(g3, got2); err != nil {
		t.Errorf("increases from zero: %v", err)
	}
}

// TestRepairChain applies many small edit batches sequentially, each
// repair feeding the next — the registry's actual usage pattern — and
// checks the final state never drifts from a from-scratch solve.
func TestRepairChain(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	g := graph.RandomGNP(60, 0.1, integerWeights(rng, 9), rng)
	const p = 9
	sopts := SparseOptions{Seed: 17, Plans: NewPlanCache()}
	cur := g
	prev := solvePaths(t, g, p, sopts)
	for round := 0; round < 6; round++ {
		kind := []string{"dec", "inc", "mixed"}[round%3]
		edits := pickEdits(cur, rng, 3, kind)
		next, g2, _, err := RepairWithOptions(cur, prev, edits, p, sopts, 0)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		cur, prev = g2, next
	}
	want := solvePaths(t, cur, p, sopts)
	if !identicalMatrices(prev.Dist, want.Dist) {
		t.Error("chained repairs drifted from the from-scratch solve")
	}
	if err := VerifyPaths(cur, prev); err != nil {
		t.Errorf("chained repairs: %v", err)
	}
}

// johnsonPaths is the repair tests' cheap reference solve: Johnson's
// distances plus full successor extraction.
func johnsonPaths(t *testing.T, g *graph.Graph) *PathResult {
	t.Helper()
	pr, err := SuccessorsFromDist(g, mustJohnson(t, g))
	if err != nil {
		t.Fatalf("successors: %v", err)
	}
	return pr
}

// TestRepairReadsEachRowOnce: a repair that does not fall back asks
// prevDist for each row exactly once — the copy it goes on to edit —
// and finds the successor rows to rebuild from its own writes rather
// than by reading every row a second time to diff against.
func TestRepairReadsEachRowOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	g := graph.Grid2D(8, 8, integerWeights(rng, 9))
	n := g.N()
	prev := johnsonPaths(t, g)
	for _, kind := range []string{"dec", "inc", "mixed"} {
		ed, err := ApplyEdits(g, pickEdits(g, rng, 3, kind))
		if err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		rows := matrixRows(prev.Dist)
		counting := func(v int, buf []float64) []float64 {
			calls.Add(1)
			return rows(v, buf)
		}
		got, st, err := RepairRows(ed, counting, prev.next, 1)
		if err != nil || st.FellBack {
			t.Fatalf("%s: err %v, stats %+v", kind, err, st)
		}
		if c := calls.Load(); c != int64(n) {
			t.Errorf("%s: prevDist asked %d times, want one read per row (%d)", kind, c, n)
		}
		if !identicalMatrices(got.Dist, mustJohnson(t, ed.Graph)) {
			t.Errorf("%s: repaired distances differ from Johnson", kind)
		}
	}
}

// TestRepairWorkerInvariance: both repair phases sweep rows in bands on
// the pool, each goroutine with its own scratch and counters, so the
// repaired distances, the successor words and every RepairStats field
// must come out the same at 1, 2 and 4 goroutines — on integer and on
// real-valued weights, for decrease, increase and mixed batches, and for
// a batch whose damage makes the repair give up. Run under -race.
func TestRepairWorkerInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type outcome struct {
		dist  []uint64
		words []uint64
		st    RepairStats
	}
	rng := rand.New(rand.NewSource(53))
	for _, wc := range []struct {
		name string
		w    graph.WeightFn
	}{{"int", integerWeights(rng, 9)}, {"real", graph.RandomWeights(rng, 1, 9)}} {
		g := graph.Grid2D(12, 12, wc.w)
		prev := johnsonPaths(t, g)
		type batch struct {
			name      string
			edits     []EdgeEdit
			threshold float64
		}
		batches := []batch{
			{"dec", pickEdits(g, rng, 4, "dec"), 1},
			{"inc", pickEdits(g, rng, 4, "inc"), 1},
			{"mixed", pickEdits(g, rng, 6, "mixed"), 1},
			{"fallback", pickEdits(g, rng, 12, "inc"), 0.05},
		}
		for _, b := range batches {
			ed, err := ApplyEdits(g, b.edits)
			if err != nil {
				t.Fatal(err)
			}
			var want outcome
			for i, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				res, st, err := RepairRows(ed, matrixRows(prev.Dist), prev.next, b.threshold)
				if err != nil {
					t.Fatalf("%s/%s at %d: %v", wc.name, b.name, procs, err)
				}
				got := outcome{st: st}
				if res != nil {
					got.words = slices.Clone(res.next.words)
					for _, x := range res.Dist.V {
						got.dist = append(got.dist, math.Float64bits(x))
					}
				}
				if st.FellBack != (b.name == "fallback") || (st.FellBack && st.ResetPairs == 0) {
					t.Fatalf("%s/%s at %d: FellBack = %v after %d reset pairs", wc.name, b.name, procs, st.FellBack, st.ResetPairs)
				}
				if i == 0 {
					want = got
					continue
				}
				if !slices.Equal(got.dist, want.dist) {
					t.Errorf("%s/%s: distances at %d goroutines differ from 1", wc.name, b.name, procs)
				}
				if !slices.Equal(got.words, want.words) {
					t.Errorf("%s/%s: successor words at %d goroutines differ from 1", wc.name, b.name, procs)
				}
				if !reflect.DeepEqual(got.st, want.st) {
					t.Errorf("%s/%s: stats at %d goroutines %+v, at 1 %+v", wc.name, b.name, procs, got.st, want.st)
				}
			}
		}
	}
}

// BenchmarkRepairRows times one repair on the served grid's shape — 32²,
// weights 1..9 — under the bench's reweight toggle: one edge of weight
// ≤ 5 raised by 4 and one above 5 lowered by 4. Each repair's matrix
// goes back to the buffer pool, as the registry hands it back once
// narrowed.
func BenchmarkRepairRows(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Grid2D(32, 32, integerWeights(rng, 9))
	d, err := Johnson(g)
	if err != nil {
		b.Fatal(err)
	}
	prev, err := SuccessorsFromDist(g, d)
	if err != nil {
		b.Fatal(err)
	}
	var edits []EdgeEdit
	var up, down bool
	for _, e := range g.Edges() {
		if e.W <= 5 && !up {
			edits, up = append(edits, EdgeEdit{U: e.U, V: e.V, W: e.W + 4}), true
		} else if e.W > 5 && !down {
			edits, down = append(edits, EdgeEdit{U: e.U, V: e.V, W: e.W - 4}), true
		}
	}
	ed, err := ApplyEdits(g, edits)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, st, err := RepairRows(ed, matrixRows(prev.Dist), prev.next, 0)
		if err != nil || st.FellBack {
			b.Fatalf("err %v, stats %+v", err, st)
		}
		ReleaseDist(res.Dist)
	}
}

// FuzzRepairMatchesJohnson draws a small integer-weight graph (zero
// weights, duplicate edges and several components included) and a
// batch of edits to it; the repair must either report FellBack or
// return Johnson's distances for the edited graph bit for bit, with
// successors that pass VerifyPaths and the previous result untouched.
func FuzzRepairMatchesJohnson(f *testing.F) {
	f.Add([]byte{9, 14, 0, 1, 3, 1, 2, 0, 2, 3, 5, 3, 4, 1, 4, 0, 2, 5, 6, 7, 6, 7, 0, 7, 8, 4, 8, 5, 3, 2, 4, 1, 0, 3, 7, 5, 6, 1, 0})
	f.Add([]byte{6, 9, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 1, 4, 5, 0, 5, 0, 2, 1, 3, 7, 0, 4, 2, 2, 6, 0, 7, 2, 1})
	f.Add([]byte{12, 30, 1, 2, 7, 3, 4, 7, 5, 6, 7, 7, 8, 7, 9, 10, 7, 11, 0, 7, 0, 1, 1, 2, 3, 1, 4, 5, 1, 6, 7, 1, 8, 9, 1, 10, 11, 1, 4, 2, 0, 5, 3, 6, 0, 1, 8, 2, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 2 + next()%14
		g := graph.New(n)
		for k := next() % 48; k > 0; k-- {
			g.AddEdge(next()%n, next()%n, float64(next()%8))
		}
		edges := g.Edges()
		if len(edges) == 0 {
			return
		}
		var edits []EdgeEdit
		for k := next() % 6; k > 0; k-- {
			e := edges[next()%len(edges)]
			if next()%2 == 1 {
				e.U, e.V = e.V, e.U
			}
			edits = append(edits, EdgeEdit{U: e.U, V: e.V, W: float64(next() % 8)})
		}
		threshold := 0.0
		if next()%2 == 1 {
			threshold = 2 // never give up
		}

		prev := johnsonPaths(t, g)
		before := prev.Dist.Clone()
		ed, err := ApplyEdits(g, edits)
		if err != nil {
			t.Fatalf("valid edits %+v refused: %v", edits, err)
		}
		got, st, err := RepairRows(ed, matrixRows(prev.Dist), prev.next, threshold)
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
		if !identicalMatrices(prev.Dist, before) {
			t.Fatal("the repair mutated the previous distances")
		}
		if st.FellBack {
			return
		}
		if !identicalMatrices(got.Dist, mustJohnson(t, ed.Graph)) {
			t.Fatalf("repaired distances differ from Johnson of the edited graph (edits %+v, stats %+v)", edits, st)
		}
		if err := VerifyPaths(ed.Graph, got); err != nil {
			t.Fatalf("repaired successors: %v (edits %+v)", err, edits)
		}
	})
}
