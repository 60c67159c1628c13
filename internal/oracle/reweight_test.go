package oracle

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/graph"
)

// intGraph builds a connected random graph with small integer weights,
// so path sums are float64-exact and repaired results can be compared
// bit for bit against a from-scratch Floyd–Warshall.
func intGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v, float64(rng.Intn(9)+1))
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, float64(rng.Intn(9)+1))
		}
	}
	return g
}

// testRepairer routes repairs through the real engine at its default
// damage threshold, like the root package wiring.
func testRepairer() RepairFunc {
	return func(ed *apsp.Edited, prevDist apsp.RowFunc, prevNext *apsp.Successors) (*apsp.PathResult, apsp.RepairStats, error) {
		return apsp.RepairRows(ed, prevDist, prevNext, 0)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestRegistryReweightSwapsFingerprint is the end-to-end registry
// contract: Reweight installs an exact repaired oracle under the edited
// graph's fingerprint, the old fingerprint stops serving atomically,
// and the byte accounting survives the swap.
func TestRegistryReweightSwapsFingerprint(t *testing.T) {
	r := NewRegistry(Config{Solve: fwSolve, Repair: testRepairer()})
	g := intGraph(5, 40)
	fp := FingerprintOf(g)
	if _, err := r.Get(g); err != nil {
		t.Fatal(err)
	}

	edges := g.Edges()
	edits := []apsp.EdgeEdit{
		{U: edges[0].U, V: edges[0].V, W: edges[0].W + 3},
		{U: edges[1].U, V: edges[1].V, W: edges[1].W + 2},
		{U: edges[2].U, V: edges[2].V, W: 0},
	}
	newFp, o, st, err := r.Reweight(fp, edits)
	if err != nil {
		t.Fatal(err)
	}
	if newFp == fp {
		t.Fatal("reweight with real edits kept the old fingerprint")
	}
	if st.Edits != 3 {
		t.Errorf("stats %+v, want 3 edits", st)
	}

	// Old fingerprint must be gone; new one must serve.
	if _, ok, _ := r.Lookup(fp); ok {
		t.Error("old fingerprint still serves after reweight")
	}
	o2, ok, err := r.Lookup(newFp)
	if !ok || err != nil {
		t.Fatalf("new fingerprint not served: ok=%v err=%v", ok, err)
	}
	if o2 != o {
		t.Error("Lookup returned a different oracle than Reweight")
	}

	// The repaired distances are bit-identical to a from-scratch solve
	// of the edited graph (integer weights keep sums exact).
	ed, err := apsp.ApplyEdits(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	g2 := ed.Graph
	if FingerprintOf(g2) != newFp {
		t.Error("reweight fingerprint disagrees with ApplyEdits")
	}
	want := apsp.FloydWarshallPaths(g2)
	for u := 0; u < g2.N(); u++ {
		for v := 0; v < g2.N(); v++ {
			got, err := o.Dist(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want.Dist.At(u, v)) {
				t.Fatalf("Dist(%d,%d) = %g, want %g", u, v, got, want.Dist.At(u, v))
			}
		}
	}
	if err := apsp.VerifyPaths(g2, want); err != nil {
		t.Fatal(err)
	}

	stats := r.Stats()
	if stats.Reweights != 1 {
		t.Errorf("Reweights = %d, want 1", stats.Reweights)
	}
	if stats.Entries != 1 {
		t.Errorf("Entries = %d after swap, want 1", stats.Entries)
	}
	if stats.Bytes != o.MemoryBytes() {
		t.Errorf("Bytes = %d after swap, want %d (old oracle not released)", stats.Bytes, o.MemoryBytes())
	}

	// No-op reweight: same weights, same fingerprint, same oracle.
	fp3, o3, _, err := r.Reweight(newFp, []apsp.EdgeEdit{{U: edits[0].U, V: edits[0].V, W: edits[0].W}})
	if err != nil {
		t.Fatal(err)
	}
	if fp3 != newFp || o3 != o {
		t.Error("no-op reweight did not return the existing oracle")
	}
}

// TestRegistryReweightErrors pins the failure modes: unknown
// fingerprints, invalid edits (which must leave the old oracle
// serving), and a registry wired without a repair function.
func TestRegistryReweightErrors(t *testing.T) {
	r := NewRegistry(Config{Solve: fwSolve, Repair: testRepairer()})
	g := intGraph(9, 30)
	fp := FingerprintOf(g)

	if _, _, _, err := r.Reweight(fp, nil); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("reweight of unknown graph: err = %v, want ErrUnknownGraph", err)
	}
	if _, err := r.Get(g); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.Reweight(fp, []apsp.EdgeEdit{{U: 0, V: 0, W: 1}}); err == nil {
		t.Error("reweight with a self-loop edit did not error")
	}
	if _, _, _, err := r.Reweight(fp, []apsp.EdgeEdit{{U: g.Edges()[0].U, V: g.Edges()[0].V, W: -1}}); err == nil {
		t.Error("reweight with a negative weight did not error")
	}
	if _, ok, _ := r.Lookup(fp); !ok {
		t.Error("failed reweight displaced the old oracle")
	}

	bare := NewRegistry(Config{Solve: fwSolve})
	if _, err := bare.Get(g); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := bare.Reweight(fp, nil); err == nil {
		t.Error("registry without a repair function accepted Reweight")
	}
}

// TestRegistryFailedWaitsAreNotHits is the stats regression test: Get
// and Lookup calls that coalesce onto a solve must record the OUTCOME —
// waiting out a failed solve is not a cache hit. Before the fix the hit
// was counted (and the LRU touched) before the wait, so a failing graph
// hammered by concurrent clients reported an arbitrarily high hit rate
// while serving nothing but errors. Run under -race in CI.
func TestRegistryFailedWaitsAreNotHits(t *testing.T) {
	boom := fmt.Errorf("boom")
	var calls atomic.Int64
	r := NewRegistry(Config{Solve: func(g *graph.Graph) (*apsp.PathResult, error) {
		calls.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the coalescing window
		return nil, boom
	}})
	g := testGraph(3, 20)
	fp := FingerprintOf(g)

	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				if _, err := r.Get(g); !errors.Is(err, boom) {
					t.Errorf("Get: err = %v, want boom", err)
				}
			} else {
				_, ok, err := r.Lookup(fp)
				// Lookups racing ahead of the first Get legitimately
				// miss; ones that found the in-flight entry must
				// surface the solve error.
				if ok && !errors.Is(err, boom) {
					t.Errorf("Lookup: ok with err = %v, want boom", err)
				}
			}
		}(w)
	}
	wg.Wait()

	st := r.Stats()
	if st.Hits != 0 {
		t.Errorf("Hits = %d after nothing but failed solves, want 0", st.Hits)
	}
	if st.Misses != workers {
		t.Errorf("Misses = %d, want %d (every caller)", st.Misses, workers)
	}
	if st.Entries != 0 {
		t.Errorf("Entries = %d, failed solves must not be cached", st.Entries)
	}

	// Sanity on the flip side: successful waits DO count as hits.
	ok := NewRegistry(Config{Solve: countingSolver(&atomic.Int64{}, 5*time.Millisecond)})
	var wg2 sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			if _, err := ok.Get(g); err != nil {
				t.Error(err)
			}
		}()
	}
	wg2.Wait()
	if st := ok.Stats(); st.Hits != 7 || st.Misses != 1 {
		t.Errorf("successful coalesce: hits=%d misses=%d, want 7/1", st.Hits, st.Misses)
	}
}

// TestRegistryReweightConcurrent hammers one registry with concurrent
// reweights toward the same edited graph plus queries on whatever is
// currently cached. Concurrent reweights must coalesce (at most one
// repair runs), every returned oracle must serve exact distances for
// its graph, and the cache must end in a consistent single-entry
// state. Run under -race in CI.
func TestRegistryReweightConcurrent(t *testing.T) {
	r := NewRegistry(Config{Solve: fwSolve, Repair: testRepairer()})
	g := intGraph(11, 36)
	fp := FingerprintOf(g)
	if _, err := r.Get(g); err != nil {
		t.Fatal(err)
	}
	e0 := g.Edges()[0]
	edits := []apsp.EdgeEdit{{U: e0.U, V: e0.V, W: e0.W + 5}}
	ed, err := apsp.ApplyEdits(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	g2 := ed.Graph
	want := apsp.FloydWarshallPaths(g2)
	newFp := FingerprintOf(g2)

	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			switch w % 3 {
			case 0: // reweight old → new
				gotFp, o, _, err := r.Reweight(fp, edits)
				if errors.Is(err, ErrUnknownGraph) {
					return // another reweight already removed fp
				}
				if err != nil {
					t.Errorf("reweight: %v", err)
					return
				}
				if gotFp != newFp {
					t.Errorf("reweight produced fp %s, want %s", gotFp, newFp)
					return
				}
				if d, err := o.Dist(0, g.N()-1); err != nil || !sameBits(d, want.Dist.At(0, g.N()-1)) {
					t.Errorf("reweighted oracle Dist = %v (err %v), want %v", d, err, want.Dist.At(0, g.N()-1))
				}
			case 1: // query whichever fingerprint still serves
				if o, ok, err := r.Lookup(fp); ok && err == nil {
					if _, err := o.Dist(1, 2); err != nil {
						t.Errorf("old oracle query: %v", err)
					}
				}
			default:
				if o, ok, err := r.Lookup(newFp); ok && err == nil {
					if d, err := o.Dist(0, g.N()-1); err != nil || !sameBits(d, want.Dist.At(0, g.N()-1)) {
						t.Errorf("new oracle Dist = %v (err %v)", d, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if _, ok, _ := r.Lookup(fp); ok {
		t.Error("old fingerprint still serves after concurrent reweights")
	}
	o, ok, err := r.Lookup(newFp)
	if !ok || err != nil {
		t.Fatalf("new fingerprint not served: ok=%v err=%v", ok, err)
	}
	for u := 0; u < g2.N(); u += 7 {
		for v := 0; v < g2.N(); v += 5 {
			if d, _ := o.Dist(u, v); !sameBits(d, want.Dist.At(u, v)) {
				t.Fatalf("final oracle Dist(%d,%d) = %g, want %g", u, v, d, want.Dist.At(u, v))
			}
		}
	}
	st := r.Stats()
	if st.Entries != 1 {
		t.Errorf("Entries = %d after converged reweights, want 1", st.Entries)
	}
	if st.Reweights < 1 {
		t.Errorf("Reweights = %d, want >= 1", st.Reweights)
	}
	if st.Bytes != o.MemoryBytes() {
		t.Errorf("Bytes = %d, want %d", st.Bytes, o.MemoryBytes())
	}
}

// TestReweightFallbackIsRegistrySolve: editing more than a quarter of
// the edges makes the repair give up, and Reweight answers with the
// registry's own Solve on the edited graph — called exactly once, booked
// as a reweight and a repair fallback but not as a solve — so distances
// and every path are bit-identical to what a fresh Get of the edited
// graph serves.
func TestReweightFallbackIsRegistrySolve(t *testing.T) {
	var solves atomic.Int64
	solve := func(g *graph.Graph) (*apsp.PathResult, error) {
		solves.Add(1)
		return succSolve(g)
	}
	r := NewRegistry(Config{Solve: solve, Repair: testRepairer()})
	g := intGraph(31, 30)
	if _, err := r.Get(g); err != nil {
		t.Fatal(err)
	}
	var edits []apsp.EdgeEdit
	edges := g.Edges()
	for _, e := range edges[:len(edges)/3] {
		edits = append(edits, apsp.EdgeEdit{U: e.U, V: e.V, W: e.W + 3})
	}
	before := r.Stats()
	solves.Store(0)
	newFp, o, st, err := r.Reweight(FingerprintOf(g), edits)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FellBack {
		t.Fatalf("editing %d of %d edges did not fall back: %+v", len(edits), len(edges), st)
	}
	if got := solves.Load(); got != 1 {
		t.Errorf("the fallback ran Solve %d times, want 1", got)
	}
	after := r.Stats()
	if after.RepairFallbacks != 1 || after.Reweights != 1 || after.Solves != before.Solves {
		t.Errorf("after the fallback: %d fallbacks, %d reweights, %d solves; want 1, 1, %d",
			after.RepairFallbacks, after.Reweights, after.Solves, before.Solves)
	}

	ed, err := apsp.ApplyEdits(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	g2 := ed.Graph
	if newFp != FingerprintOf(g2) {
		t.Fatal("the fallback installed the result under another fingerprint")
	}
	fresh, err := NewRegistry(Config{Solve: succSolve}).Get(g2)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g2.N(); u++ {
		for v := 0; v < g2.N(); v++ {
			d, _ := o.Dist(u, v)
			want, _ := fresh.Dist(u, v)
			if !sameBits(d, want) {
				t.Fatalf("Dist(%d,%d) = %v, a fresh Get serves %v", u, v, d, want)
			}
			p, _ := o.Path(u, v)
			wantP, _ := fresh.Path(u, v)
			if !slices.Equal(p, wantP) {
				t.Fatalf("Path(%d,%d) = %v, a fresh Get serves %v", u, v, p, wantP)
			}
		}
	}
}

// TestRegistryPanicIsTheCallsError: a Solve or Repair that panics fails
// the Get or Reweight that ran it, like an error would. The entry is
// dropped and its waiters released, so a second Get of the same graph
// retries instead of blocking forever, Quiesce returns and nothing stays
// in flight; a panicking repair leaves the old oracle serving.
func TestRegistryPanicIsTheCallsError(t *testing.T) {
	var calls atomic.Int64
	r := NewRegistry(Config{
		Solve: func(g *graph.Graph) (*apsp.PathResult, error) {
			if calls.Add(1) == 1 {
				var zero int
				_ = 1 / zero // the first solve divides by zero
			}
			return succSolve(g)
		},
		Repair: func(*apsp.Edited, apsp.RowFunc, *apsp.Successors) (*apsp.PathResult, apsp.RepairStats, error) {
			panic("repair exploded")
		},
	})
	g := intGraph(13, 20)
	if _, err := r.Get(g); err == nil || !strings.Contains(err.Error(), "divide by zero") {
		t.Fatalf("Get with a panicking solve: err = %v, want the panic", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Get(g)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Get after the panic: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get after a panicking solve is still blocked")
	}

	e := g.Edges()[0]
	if _, _, _, err := r.Reweight(FingerprintOf(g), []apsp.EdgeEdit{{U: e.U, V: e.V, W: e.W + 1}}); err == nil || !strings.Contains(err.Error(), "repair exploded") {
		t.Fatalf("Reweight with a panicking repair: err = %v, want the panic", err)
	}
	if _, ok, err := r.Lookup(FingerprintOf(g)); !ok || err != nil {
		t.Errorf("a panicking repair displaced the old oracle: ok=%v err=%v", ok, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Quiesce(ctx); err != nil {
		t.Fatalf("Quiesce after the panics: %v", err)
	}
	if st := r.Stats(); st.SolvesInFlight != 0 || st.Entries != 1 || st.Reweights != 1 {
		t.Errorf("stats = %+v, want nothing in flight, 1 entry and 1 reweight", st)
	}
}

// TestReweightRecyclesOnlyUnsharedMatrices: a repair's working matrix
// goes back to the solvers' buffer pool once the new oracle's store has
// narrowed it — unless the store keeps it, as the square f64 kind does.
// Real-valued, asymmetric repairs (one entry pushed an ulp off its
// mirror) land in that kind; their answers must stay bit for bit what
// they were while concurrent queries read them and another graph of the
// same size is reweighted over and over, drawing recycled buffers from
// the pool. Run under -race.
func TestReweightRecyclesOnlyUnsharedMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	real := graph.Grid2D(6, 6, graph.RandomWeights(rng, 1, 9))
	churn := intGraph(62, real.N())
	asym := func(res *apsp.PathResult, g *graph.Graph) {
		if res != nil && g.M() == real.M() {
			n := g.N()
			res.Dist.Set(0, n-1, math.Nextafter(res.Dist.At(0, n-1), math.Inf(1)))
		}
	}
	r := NewRegistry(Config{
		Solve: func(g *graph.Graph) (*apsp.PathResult, error) {
			res, err := succSolve(g)
			asym(res, g)
			return res, err
		},
		Repair: func(ed *apsp.Edited, prevDist apsp.RowFunc, prevNext *apsp.Successors) (*apsp.PathResult, apsp.RepairStats, error) {
			res, st, err := apsp.RepairRows(ed, prevDist, prevNext, 1)
			asym(res, ed.Graph)
			return res, st, err
		},
	})
	type served struct {
		o    *Oracle
		want []float64
	}
	var oracles []served
	o, err := r.Get(real)
	if err != nil {
		t.Fatal(err)
	}
	fp, g := FingerprintOf(real), real
	for i, e := range g.Edges()[:4] {
		w := e.W + 0.5
		if i%2 == 1 {
			w = e.W / 2
		}
		if fp, o, _, err = r.Reweight(fp, []apsp.EdgeEdit{{U: e.U, V: e.V, W: w}}); err != nil {
			t.Fatal(err)
		}
		if o.dist.tri || o.dist.kind != tierF64 {
			t.Fatalf("reweight %d: store %s/%s, want the square f64 kind", i, o.dist.kindName(), o.dist.layoutName())
		}
		n := o.N()
		want := make([]float64, n*n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want[u*n+v], _ = o.Dist(u, v)
			}
		}
		oracles = append(oracles, served{o, want})
	}

	if _, err := r.Get(churn); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range oracles {
					n := s.o.N()
					for u := 0; u < n; u++ {
						for v := 0; v < n; v++ {
							if got, _ := s.o.Dist(u, v); !sameBits(got, s.want[u*n+v]) {
								t.Errorf("Dist(%d,%d) = %v, was %v: a live store's matrix was recycled", u, v, got, s.want[u*n+v])
								return
							}
						}
					}
				}
			}
		}()
	}
	e := churn.Edges()[0]
	cur := FingerprintOf(churn)
	for i := 0; i < 40; i++ {
		w := e.W + float64(1+i%2)
		next, co, st, err := r.Reweight(cur, []apsp.EdgeEdit{{U: e.U, V: e.V, W: w}})
		if err != nil {
			t.Error(err)
			break
		}
		if st.FellBack || co.dist.kind == tierF64 {
			t.Errorf("churn reweight %d: fell back %v, store %s — it must repair into a narrowed kind", i, st.FellBack, co.dist.kindName())
			break
		}
		cur = next
	}
	close(stop)
	wg.Wait()
}
