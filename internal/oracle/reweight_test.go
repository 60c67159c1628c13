package oracle

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
	r := NewRegistry(Config{Solve: succSolve, Repair: testRepairer()})
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
	want := fwDist(g2)
	for u := 0; u < g2.N(); u++ {
		for v := 0; v < g2.N(); v++ {
			got, err := o.Dist(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want.At(u, v)) {
				t.Fatalf("Dist(%d,%d) = %g, want %g", u, v, got, want.At(u, v))
			}
		}
	}
	fresh, err := apsp.SuccessorsFromDist(g2, want)
	if err != nil {
		t.Fatal(err)
	}
	if err := apsp.VerifyPaths(g2, fresh); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g2.N(); u++ {
		for v := 0; v < g2.N(); v++ {
			if got, err := o.Path(u, v); err != nil || !slices.Equal(got, fresh.Path(u, v)) {
				t.Fatalf("Path(%d,%d) = %v (%v), a fresh table walks %v", u, v, got, err, fresh.Path(u, v))
			}
		}
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
	r := NewRegistry(Config{Solve: succSolve, Repair: testRepairer()})
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

	bare := NewRegistry(Config{Solve: succSolve})
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
	r := NewRegistry(Config{Solve: succSolve, Repair: testRepairer()})
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
	want := fwDist(g2)
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
				if d, err := o.Dist(0, g.N()-1); err != nil || !sameBits(d, want.At(0, g.N()-1)) {
					t.Errorf("reweighted oracle Dist = %v (err %v), want %v", d, err, want.At(0, g.N()-1))
				}
			case 1: // query whichever fingerprint still serves
				if o, ok, err := r.Lookup(fp); ok && err == nil {
					if _, err := o.Dist(1, 2); err != nil {
						t.Errorf("old oracle query: %v", err)
					}
				}
			default:
				if o, ok, err := r.Lookup(newFp); ok && err == nil {
					if d, err := o.Dist(0, g.N()-1); err != nil || !sameBits(d, want.At(0, g.N()-1)) {
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
			if d, _ := o.Dist(u, v); !sameBits(d, want.At(u, v)) {
				t.Fatalf("final oracle Dist(%d,%d) = %g, want %g", u, v, d, want.At(u, v))
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

// TestReweightServesWhatAFreshGetServes: a chain of reweights on an
// integer-weight graph — the registry's usage, each repair feeding the
// next — leaves after every step an oracle whose store bytes are those a
// fresh registry's Get of the edited graph builds, and whose every path
// is that Get's. A graph's answers do not depend on whether it was
// loaded or reached by edits. The second chain runs on a grid, on which
// an edit leaves most rows unwritten and integer weights tie often.
// Every repair must leave rows pending, or the comparison would read
// only rows a solve wrote.
func TestReweightServesWhatAFreshGetServes(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, sv := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random", intGraph(17, 60)},
		{"grid", graph.Grid2D(8, 8, func(u, v int) float64 { return float64(rng.Intn(9) + 1) })},
	} {
		r := NewRegistry(Config{Solve: succSolve, Repair: testRepairer()})
		g := sv.g
		if _, err := r.Get(g); err != nil {
			t.Fatal(err)
		}
		n := g.N()
		pairs := make([][2]int, 0, n*n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				pairs = append(pairs, [2]int{u, v})
			}
		}
		fp := FingerprintOf(g)
		rng := rand.New(rand.NewSource(18))
		repaired := false
		for round := 0; round < 12; round++ {
			edges := g.Edges()
			var edits []apsp.EdgeEdit
			for _, i := range rng.Perm(len(edges))[:1+rng.Intn(2)] {
				edits = append(edits, apsp.EdgeEdit{U: edges[i].U, V: edges[i].V, W: float64(rng.Intn(9) + 1)})
			}
			next, o, st, err := r.Reweight(fp, edits)
			if err != nil {
				t.Fatal(err)
			}
			if p := o.succ.Pending(); st.Edits > 0 && (p == 0 || p != st.RepairedColumns) {
				t.Errorf("%s round %d: %d rows pending, stats say %d", sv.name, round, p, st.RepairedColumns)
			}
			fresh, err := NewRegistry(Config{Solve: succSolve}).Get(o.Graph())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(o.dist.encode(), fresh.dist.encode()) {
				t.Errorf("%s round %d: the reweighted store's bytes differ from a fresh Get's (edits %+v)", sv.name, round, edits)
			}
			if repaired = repaired || st.Edits > 0; !repaired {
				continue // no-op edits: o is still the loaded oracle
			}
			got, err := o.BatchPath(pairs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.BatchPath(pairs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || o.succ.Pending() != 0 {
				t.Errorf("%s round %d: the reweighted oracle's paths differ from a fresh Get's, %d rows still pending (edits %+v, stats %+v)", sv.name, round, o.succ.Pending(), edits, st)
			}
			fp, g = next, o.Graph()
		}
	}
}

// TestRefusedPendingRowIsTheQuerysError: a repaired table walks its
// pending rows from the distances it was repaired to, so a repair that
// wrote a wrong distance is found on the first path query of that row.
// Path and BatchPath return the walk's refusal as their error — every
// time, since the row stays pending — instead of panicking; distances
// and the rows the repair left alone still answer.
func TestRefusedPendingRowIsTheQuerysError(t *testing.T) {
	g := intGraph(23, 40)
	var bad [2]int // the corrupted entry: row bad[0], column bad[1]
	corrupt := func(ed *apsp.Edited, prevDist apsp.RowFunc, prevNext *apsp.Successors) (*apsp.PathResult, apsp.RepairStats, error) {
		res, st, err := apsp.RepairRows(ed, prevDist, prevNext, 1)
		if err != nil || st.FellBack {
			return res, st, err
		}
		n := ed.Graph.N()
		buf := make([]float64, n)
		for x := 0; x < n; x++ {
			old := prevDist(x, buf)
			for z := 0; z < n; z++ {
				if x != z && res.Dist.At(x, z) != old[z] {
					bad = [2]int{x, z}
					res.Dist.Set(x, z, res.Dist.At(x, z)+0.5) // no integer path explains it
					return res, st, nil
				}
			}
		}
		return nil, st, errors.New("the repair wrote no entry")
	}
	r := NewRegistry(Config{Solve: succSolve, Repair: corrupt})
	if _, err := r.Get(g); err != nil {
		t.Fatal(err)
	}
	e := g.Edges()[0]
	_, o, st, err := r.Reweight(FingerprintOf(g), []apsp.EdgeEdit{{U: e.U, V: e.V, W: e.W + 7}})
	if err != nil || st.FellBack {
		t.Fatalf("reweight: %v, stats %+v", err, st)
	}
	v, u := bad[0], bad[1]
	for i := 0; i < 2; i++ {
		if _, err := o.Path(u, v); err == nil || !strings.Contains(err.Error(), "inconsistent distances") {
			t.Errorf("Path(%d,%d) over the corrupted row: err %v, want the walk's refusal", u, v, err)
		}
		if _, err := o.BatchPath([][2]int{{0, 1}, {u, v}}); err == nil {
			t.Errorf("BatchPath over the corrupted row: no error")
		}
	}
	if d, err := o.Dist(v, u); err != nil || d != math.Floor(d)+0.5 {
		t.Errorf("Dist(%d,%d) = %v, %v: want the stored corrupted distance", v, u, d, err)
	}
	for w := 0; w < g.N(); w++ {
		if w == v {
			continue
		}
		if _, err := o.Path(u, w); err != nil {
			t.Errorf("Path(%d,%d) of an uncorrupted row: %v", u, w, err)
		}
	}
}

// TestPendingRowsWalkOnceUnderConcurrentQueries: readers ask paths over
// overlapping pending targets of a freshly reweighted oracle, while
// another keeps asking paths of the previous oracle — itself repaired,
// with rows pending — during the reweight that copies its table. Every
// path equals a fresh Get's of the same graph, and every pending row is
// walked once: the walk reads a row's distances once per walk, and the
// test counts those reads. Run under -race.
func TestPendingRowsWalkOnceUnderConcurrentQueries(t *testing.T) {
	r := NewRegistry(Config{Solve: succSolve, Repair: testRepairer()})
	g := graph.Grid2D(12, 12, func(u, v int) float64 { return float64((u*7+v*3)%9 + 1) })
	n := g.N()
	o0, err := r.Get(g)
	if err != nil {
		t.Fatal(err)
	}
	toggle := func(o *Oracle) []apsp.EdgeEdit {
		e := o.Graph().Edges()
		return []apsp.EdgeEdit{{U: e[5].U, V: e[5].V, W: e[5].W + 4}, {U: e[90].U, V: e[90].V, W: 1}}
	}
	// reads wraps an oracle's distance rows, counting the reads of each.
	reads := func(o *Oracle) []atomic.Int32 {
		c := make([]atomic.Int32, n)
		o.succ.ReadRowsFrom(func(v int, buf []float64) []float64 {
			c[v].Add(1)
			return o.dist.row(v, buf)
		})
		return c
	}
	fresh := func(g *graph.Graph) *Oracle {
		f, err := NewRegistry(Config{Solve: succSolve}).Get(g)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// same asks pairs of o and of a fresh oracle f of the same graph.
	same := func(o, f *Oracle, pairs [][2]int) bool {
		got, err := o.BatchPath(pairs)
		if err != nil {
			t.Error(err)
			return false
		}
		want, _ := f.BatchPath(pairs)
		return reflect.DeepEqual(got, want)
	}
	// into asks a path into each target in [lo, hi) from two sources.
	into := func(lo, hi int) [][2]int {
		var pairs [][2]int
		for v := lo; v < hi; v++ {
			pairs = append(pairs, [2]int{(v*37 + 1) % n, v}, [2]int{(v*5 + 11) % n, v})
		}
		return pairs
	}

	fp1, o1, _, err := r.Reweight(FingerprintOf(g), toggle(o0))
	if err != nil {
		t.Fatal(err)
	}
	pending1 := o1.succ.Pending()
	if pending1 == 0 {
		t.Fatal("the first reweight left no row pending")
	}
	reads1 := reads(o1)
	fresh1 := fresh(o1.Graph())

	var wg sync.WaitGroup
	oldDone := make(chan struct{})
	wg.Add(1)
	go func() { // the previous oracle, read while the reweight copies it
		defer wg.Done()
		defer close(oldDone)
		for k := 0; k < n; k += 8 {
			if !same(o1, fresh1, into(k, min(k+8, n))) {
				t.Errorf("old oracle: paths into %d..%d differ from a fresh Get's", k, k+7)
			}
		}
	}()
	_, o2, st2, err := r.Reweight(fp1, toggle(o1))
	<-oldDone
	if err != nil {
		t.Fatal(err)
	}
	if p := o2.succ.Pending(); p == 0 || p != st2.RepairedColumns {
		t.Fatalf("the second reweight left %d rows pending, stats say %d", p, st2.RepairedColumns)
	}
	reads2 := reads(o2)
	fresh2 := fresh(o2.Graph())
	pending2 := o2.succ.Pending()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w * 4; k < n; k += 12 { // windows of 24 targets, overlapping their neighbours'
				hi := min(k+24, n)
				if !same(o2, fresh2, into(k, hi)) {
					t.Errorf("reader %d: paths into %d..%d differ from a fresh Get's", w, k, hi-1)
				}
				u := (k*13 + 5) % n
				got, err := o2.Path(u, hi-1)
				if want, _ := fresh2.Path(u, hi-1); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("reader %d: Path(%d,%d) = %v, %v, a fresh Get's %v", w, u, hi-1, got, err, want)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, c := range []struct {
		name    string
		o       *Oracle
		reads   []atomic.Int32
		pending int
	}{{"old", o1, reads1, pending1}, {"new", o2, reads2, pending2}} {
		walks := 0
		for v := range c.reads {
			if k := c.reads[v].Load(); k > 1 {
				t.Errorf("%s oracle: row %d walked %d times", c.name, v, k)
			} else {
				walks += int(k)
			}
		}
		if p := c.o.succ.Pending(); p != 0 || walks != c.pending {
			t.Errorf("%s oracle: %d rows walked, %d pending before, %d after", c.name, walks, c.pending, p)
		}
	}
}

// BenchmarkReweightThenPaths times what a reweight costs a client that
// then asks for paths: one Registry.Reweight of the served grid's shape
// (32², integer weights 1..9) under the bench's toggle — one edge of
// weight ≤ 5 raised by 4, one above 5 lowered by 4, undone on the next
// iteration — plus the first 64-pair BatchPath of the new oracle, which
// walks the rows the repair left pending that the batch reads.
func BenchmarkReweightThenPaths(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Grid2D(32, 32, func(u, v int) float64 { return float64(rng.Intn(9) + 1) })
	solve := func(g *graph.Graph) (*apsp.PathResult, error) {
		d, err := apsp.Johnson(g)
		if err != nil {
			return nil, err
		}
		return apsp.SuccessorsFromDist(g, d)
	}
	r := NewRegistry(Config{Solve: solve, Repair: testRepairer()})
	if _, err := r.Get(g); err != nil {
		b.Fatal(err)
	}
	var there, back []apsp.EdgeEdit
	var up, down bool
	for _, e := range g.Edges() {
		if e.W <= 5 && !up {
			there, back, up = append(there, apsp.EdgeEdit{U: e.U, V: e.V, W: e.W + 4}), append(back, apsp.EdgeEdit{U: e.U, V: e.V, W: e.W}), true
		} else if e.W > 5 && !down {
			there, back, down = append(there, apsp.EdgeEdit{U: e.U, V: e.V, W: e.W - 4}), append(back, apsp.EdgeEdit{U: e.U, V: e.V, W: e.W}), true
		}
	}
	pairs := make([][2]int, 64)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
	}
	fp := FingerprintOf(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edits := there
		if i%2 == 1 {
			edits = back
		}
		next, o, st, err := r.Reweight(fp, edits)
		if err != nil || st.FellBack {
			b.Fatalf("err %v, stats %+v", err, st)
		}
		if _, err := o.BatchPath(pairs); err != nil {
			b.Fatal(err)
		}
		fp = next
	}
}
