package oracle

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// countingSolver wraps succSolve with an invocation counter and an
// optional delay that widens the coalescing window.
func countingSolver(count *atomic.Int64, delay time.Duration) SolveFunc {
	return func(g *graph.Graph) (*apsp.PathResult, error) {
		count.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		return succSolve(g)
	}
}

// TestRegistryCoalescesConcurrentSolves hammers one registry with many
// goroutines asking for the same unsolved graphs and asserts exactly
// one solve ran per fingerprint. Run under -race in CI.
func TestRegistryCoalescesConcurrentSolves(t *testing.T) {
	var solves atomic.Int64
	r := NewRegistry(Config{Solve: countingSolver(&solves, 5*time.Millisecond)})

	const graphs, workers = 3, 32
	gs := make([]*graph.Graph, graphs)
	for i := range gs {
		gs[i] = testGraph(int64(100+i), 30)
	}
	want := make([]*semiring.Matrix, graphs)
	for i, g := range gs {
		want[i] = fwDist(g)
	}

	var wg sync.WaitGroup
	errs := make(chan error, graphs*workers)
	for w := 0; w < workers; w++ {
		for i := range gs {
			wg.Add(1)
			go func(w, i int) {
				defer wg.Done()
				o, err := r.Get(gs[i])
				if err != nil {
					errs <- err
					return
				}
				rng := rand.New(rand.NewSource(int64(w*graphs + i)))
				u, v := rng.Intn(gs[i].N()), rng.Intn(gs[i].N())
				d, err := o.Dist(u, v)
				if err != nil {
					errs <- err
					return
				}
				if ref := want[i].At(u, v); d != ref {
					errs <- fmt.Errorf("graph %d: Dist(%d,%d) = %g, want %g", i, u, v, d, ref)
				}
			}(w, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := solves.Load(); got != graphs {
		t.Errorf("solver ran %d times for %d distinct graphs, want exactly one each", got, graphs)
	}
	st := r.Stats()
	if st.Solves != graphs || st.Misses != graphs {
		t.Errorf("stats solves=%d misses=%d, want %d each", st.Solves, st.Misses, graphs)
	}
	if st.Hits != graphs*workers-graphs {
		t.Errorf("stats hits=%d, want %d", st.Hits, graphs*workers-graphs)
	}
	if st.QueriesServed != graphs*workers {
		t.Errorf("stats queries served=%d, want %d", st.QueriesServed, graphs*workers)
	}
}

// TestRegistryLRUEviction checks both the budget invariant and the
// eviction order: the least recently *used* entry goes first.
func TestRegistryLRUEviction(t *testing.T) {
	var solves atomic.Int64
	gs := []*graph.Graph{testGraph(1, 24), testGraph(2, 24), testGraph(3, 24)}
	// Budget fits A beside either of the others, never all three: an
	// oracle's size follows its graph's edge count and degree.
	var size [3]int64
	for i, g := range gs {
		o, err := New(g, succSolve)
		if err != nil {
			t.Fatal(err)
		}
		size[i] = o.MemoryBytes()
	}
	budget := size[0] + max(size[1], size[2])
	r := NewRegistry(Config{Solve: countingSolver(&solves, 0), MemoryBudget: budget})

	fpA, fpB, fpC := FingerprintOf(gs[0]), FingerprintOf(gs[1]), FingerprintOf(gs[2])
	if _, err := r.Get(gs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(gs[1]); err != nil {
		t.Fatal(err)
	}
	// Touch A so B becomes least recently used.
	if _, err := r.Get(gs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(gs[2]); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := r.Lookup(fpB); ok {
		t.Error("B should have been evicted (least recently used)")
	}
	if _, ok, _ := r.Lookup(fpA); !ok {
		t.Error("A was evicted despite being recently used")
	}
	if _, ok, _ := r.Lookup(fpC); !ok {
		t.Error("C (newest) was evicted")
	}
	st := r.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > budget {
		t.Errorf("retained %d bytes over budget %d", st.Bytes, budget)
	}
	// Re-solving B counts as a fresh miss + solve.
	if _, err := r.Get(gs[1]); err != nil {
		t.Fatal(err)
	}
	if got := solves.Load(); got != 4 {
		t.Errorf("solves = %d, want 4 (three graphs + one re-solve)", got)
	}
}

// TestRegistryBudgetUnderConcurrentChurn drives many goroutines over
// more graphs than the budget holds and asserts the retained bytes
// never exceed the budget once settled. Run under -race in CI.
func TestRegistryBudgetUnderConcurrentChurn(t *testing.T) {
	var solves atomic.Int64
	gs := make([]*graph.Graph, 6)
	for i := range gs {
		gs[i] = testGraph(int64(200+i), 20)
	}
	one, err := New(gs[0], succSolve)
	if err != nil {
		t.Fatal(err)
	}
	budget := 3 * one.MemoryBytes()
	r := NewRegistry(Config{Solve: countingSolver(&solves, time.Millisecond), MemoryBudget: budget})

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for iter := 0; iter < 20; iter++ {
				g := gs[rng.Intn(len(gs))]
				o, err := r.Get(g)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := o.Dist(0, g.N()-1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := r.Stats()
	if st.Bytes > budget {
		t.Errorf("retained %d bytes over budget %d", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions with 6 graphs and a 3-oracle budget")
	}
	if st.Solves != solves.Load() {
		t.Errorf("stats solves=%d, counter=%d", st.Solves, solves.Load())
	}
	if st.QueriesServed != 16*20 {
		t.Errorf("queries served=%d, want %d (evicted counts must be folded in)", st.QueriesServed, 16*20)
	}
	if st.Hits+st.Misses != 16*20 {
		t.Errorf("hits %d + misses %d = %d, want %d: every Get books exactly one", st.Hits, st.Misses, st.Hits+st.Misses, 16*20)
	}
}

func TestRegistryFailedSolveNotCachedAndRetried(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	r := NewRegistry(Config{Solve: func(g *graph.Graph) (*apsp.PathResult, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return succSolve(g)
	}})
	g := testGraph(9, 15)
	if _, err := r.Get(g); !errors.Is(err, boom) {
		t.Fatalf("first Get: err = %v, want boom", err)
	}
	if r.Len() != 0 {
		t.Fatalf("failed solve left %d cached entries", r.Len())
	}
	if _, err := r.Get(g); err != nil {
		t.Fatalf("retry after failed solve: %v", err)
	}
	if calls.Load() != 2 {
		t.Errorf("solver calls = %d, want 2", calls.Load())
	}
}

func TestRegistryLookupUnknown(t *testing.T) {
	r := NewRegistry(Config{Solve: succSolve})
	if _, ok, _ := r.Lookup(FingerprintOf(testGraph(1, 8))); ok {
		t.Error("Lookup of never-loaded graph reported ok")
	}
	if _, err := r.Get(nil); err == nil {
		t.Error("Get(nil) should error")
	}
	if _, err := NewRegistry(Config{}).Get(testGraph(1, 8)); err == nil {
		t.Error("registry without solver should error")
	}
}

// TestRegistrySingleOracleOverBudget: one oracle larger than the whole
// budget used to sit pinned at the LRU front forever (the eviction loop
// only looked past the front entry), permanently blowing the budget.
// The fix drops it with an Evictions count; the Get that solved it is
// still served its result.
func TestRegistrySingleOracleOverBudget(t *testing.T) {
	var solves atomic.Int64
	r := NewRegistry(Config{Solve: countingSolver(&solves, 0), MemoryBudget: 1})
	a := testGraph(1, 16)
	o, err := r.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Dist(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := r.Lookup(FingerprintOf(a)); ok {
		t.Error("over-budget oracle stayed pinned in the hot tier")
	}
	st := r.Stats()
	if st.Evictions != 1 || st.Bytes != 0 {
		t.Errorf("stats = %+v, want 1 eviction and 0 retained bytes", st)
	}
	// The next Get re-solves — nothing was cached.
	if _, err := r.Get(a); err != nil {
		t.Fatal(err)
	}
	if got := solves.Load(); got != 2 {
		t.Errorf("solver ran %d times, want 2 (dropped oracle must re-solve)", got)
	}
}

// TestRegistryEvictedWhileWaitingIsAMiss: a caller that found the entry
// in the map and lost it to an eviction before it could take the oracle
// gets nothing, so it must be booked as a miss — once — and never as a
// hit. The window is between Lookup's map read and await's critical
// section; holding the stale entry across an eviction opens it
// deterministically.
func TestRegistryEvictedWhileWaitingIsAMiss(t *testing.T) {
	a, b := testGraph(1, 16), testGraph(2, 16)
	one, err := New(a, succSolve)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(Config{Solve: succSolve, MemoryBudget: one.MemoryBytes() + 1})
	if _, err := r.Get(a); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	stale := r.entries[FingerprintOf(a)] // where Lookup stands after its map read
	r.mu.Unlock()
	if _, err := r.Get(b); err != nil { // evicts a
		t.Fatal(err)
	}
	before := r.Stats()
	if before.Evictions != 1 || before.Entries != 1 {
		t.Fatalf("stats = %+v, want a evicted by b", before)
	}
	// The rest of Lookup: ok is "there was an oracle or a solve error".
	o, err := r.await(stale, true)
	if ok := o != nil || err != nil; ok {
		t.Fatalf("await on an evicted entry = (%v, %v), want nothing", o, err)
	}
	if st := r.Stats(); st.Hits != before.Hits || st.Misses != before.Misses+1 {
		t.Errorf("hits %d -> %d, misses %d -> %d, want no hit and one miss",
			before.Hits, st.Hits, before.Misses, st.Misses)
	}
}

// TestRegistryQuiesceWaitsForInFlightSolves is the drain regression
// test: a graceful shutdown must wait for solves coalesced inside the
// registry, not just for open HTTP connections — a solve whose
// originating client disconnected still runs, and Quiesce is what the
// drain path blocks on until it completes.
func TestRegistryQuiesceWaitsForInFlightSolves(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var solveDone atomic.Bool
	r := NewRegistry(Config{Solve: func(g *graph.Graph) (*apsp.PathResult, error) {
		close(started)
		<-release // the solve outlives its originating request
		solveDone.Store(true)
		return succSolve(g)
	}})

	// Idle registry: Quiesce returns immediately.
	if err := r.Quiesce(context.Background()); err != nil {
		t.Fatalf("Quiesce on idle registry: %v", err)
	}

	g := testGraph(1, 20)
	getDone := make(chan struct{})
	go func() {
		defer close(getDone)
		if _, err := r.Get(g); err != nil {
			t.Error(err)
		}
	}()
	<-started
	if n := r.ActiveSolves(); n != 1 {
		t.Fatalf("ActiveSolves = %d during solve, want 1", n)
	}

	// A bounded Quiesce while the solve hangs must time out, not
	// return success.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	err := r.Quiesce(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Quiesce during hung solve = %v, want deadline exceeded", err)
	}

	// Release the solve: Quiesce must now return only after the solve
	// finished (solveDone observed true strictly before Quiesce ends).
	quiesced := make(chan error, 1)
	go func() {
		quiesced <- r.Quiesce(context.Background())
	}()
	close(release)
	if err := <-quiesced; err != nil {
		t.Fatalf("Quiesce after release: %v", err)
	}
	if !solveDone.Load() {
		t.Fatal("Quiesce returned before the in-flight solve completed")
	}
	<-getDone
	if n := r.ActiveSolves(); n != 0 {
		t.Fatalf("ActiveSolves = %d after drain, want 0", n)
	}
	if st := r.Stats(); st.SolvesInFlight != 0 || st.Solves != 1 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestStatsAddCoversEveryField sets every field of a Stats by reflection
// — a counter, a duration, a census key — and adds it twice to a zero
// Stats: every field must come out doubled. A field added to Stats
// later is set here too, so Add cannot leave it out of the fleet sum.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Map:
			m := reflect.MakeMap(f.Type())
			key := reflect.New(f.Type().Key()).Elem()
			if key.Kind() == reflect.String {
				key.SetString("k")
			} else {
				key.SetInt(7)
			}
			val := reflect.New(f.Type().Elem()).Elem()
			val.SetInt(int64(i + 1))
			m.SetMapIndex(key, val)
			f.Set(m)
		default:
			t.Fatalf("Stats.%s: kind %s has no case here; teach the test (and Add) to sum it", v.Type().Field(i).Name, f.Kind())
		}
	}
	var sum Stats
	sum.Add(one)
	sum.Add(one)
	got := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		name, f, g := v.Type().Field(i).Name, v.Field(i), got.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			if g.Int() != 2*f.Int() {
				t.Errorf("Stats.%s: %d + %d added up to %d", name, f.Int(), f.Int(), g.Int())
			}
		case reflect.Float64:
			if g.Float() != 2*f.Float() {
				t.Errorf("Stats.%s: %v + %v added up to %v", name, f.Float(), f.Float(), g.Float())
			}
		case reflect.Map:
			key := f.MapKeys()[0]
			if g.Len() != 1 || !g.MapIndex(key).IsValid() || g.MapIndex(key).Int() != 2*f.MapIndex(key).Int() {
				t.Errorf("Stats.%s: %v + %v added up to %v", name, f, f, g)
			}
		}
	}
}
