package oracle

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/graph"
)

// FuzzRegistryHistory runs one registry through a history the fuzz
// bytes choose and holds every answer to what a fresh registry's Get of
// the current graph serves. The bytes pick a graph family (grid, G(n,
// 4/n), cycle or random tree; n ≤ 64) with integer weights 0..9, a
// memory budget (unlimited, or about one oracle, so that a Get of
// another graph evicts the current one) and up to 24 steps: a Get of the
// current graph, a Reweight of 1–3 edges to integer weights 0..9 under a
// damage threshold (the default, one that falls back on any seeded pair,
// or one that never does), a BatchPath or BatchDist window, or a Get of
// another graph. After a Get or Reweight the store bytes are the fresh
// oracle's; every window's distances are its bit for bit and its paths
// hop for hop. At the end every distance and all n² paths are too, and
// no row is left pending. A Reweight of a graph the registry no longer
// holds loads it again first, as a client would; if the registry cannot
// keep even that (the repaired oracle outgrew the budget), the step
// loads the edited graph instead.
func FuzzRegistryHistory(f *testing.F) {
	f.Add([]byte{0, 6, 6, 3, 0, 1, 2, 5, 1, 1, 7, 4, 2, 0, 0, 9, 3, 3, 0, 0, 20, 1, 1, 40, 2, 2, 4, 2, 0, 0, 63})
	f.Add([]byte{1, 40, 9, 1, 1, 2, 3, 0, 2, 4, 1, 0, 1, 5, 0, 1, 0, 2, 1, 1, 2, 9, 0, 3, 0, 0, 39})
	f.Add([]byte{2, 30, 4, 0, 1, 2, 0, 0, 0, 1, 1, 1, 29, 9, 2, 0, 0, 29})
	f.Add([]byte{3, 50, 7, 1, 4, 1, 1, 1, 3, 0, 1, 0, 2, 7, 2, 1, 0, 0, 0, 4, 1, 2, 2, 6, 2, 3, 0, 5, 49})
	// Histories on which the rule before E61 (a reweight walks again only
	// the rows it wrote and the targets whose tree used an edited edge)
	// served a stale path: integer-weight grids and G(n, 4/n) graphs,
	// where a decrease onto a tie makes an edge tight without moving a
	// distance.
	for _, b := range []string{"000108", "10208", "11208", "10001810202", "01 B0822y7082"} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var g *graph.Graph
		family, size := next()%4, next()
		rng := rand.New(rand.NewSource(int64(next())))
		w := func(u, v int) float64 { return float64(rng.Intn(10)) }
		switch family {
		case 0:
			g = graph.Grid2D(2+size%7, 2+next()%7, w)
		case 1:
			n := 2 + size%63
			g = graph.RandomGNP(n, 4/float64(n), w, rng)
		case 2:
			g = graph.Cycle(3+size%62, w)
		default:
			g = graph.RandomTree(2+size%63, w, rng)
		}
		n := g.N()

		fresh := map[Fingerprint]*Oracle{}
		freshOf := func(g *graph.Graph) *Oracle {
			fp := FingerprintOf(g)
			if o, ok := fresh[fp]; ok {
				return o
			}
			o, err := NewRegistry(Config{Solve: succSolve}).Get(g)
			if err != nil {
				t.Fatal(err)
			}
			fresh[fp] = o
			return o
		}
		threshold := 0.0
		repair := func(ed *apsp.Edited, prevDist apsp.RowFunc, prevNext *apsp.Successors) (*apsp.PathResult, apsp.RepairStats, error) {
			return apsp.RepairRows(ed, prevDist, prevNext, threshold)
		}
		var budget int64
		if next()%2 == 1 {
			budget = freshOf(g).MemoryBytes() * 3 / 2
		}
		r := NewRegistry(Config{Solve: succSolve, Repair: repair, MemoryBudget: budget})
		other := graph.Path(n, func(u, v int) float64 { return 9 })

		get := func(g *graph.Graph) *Oracle {
			t.Helper()
			o, err := r.Get(g)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(o.dist.encode(), freshOf(g).dist.encode()) {
				t.Fatalf("Get: the store's bytes differ from a fresh Get's")
			}
			return o
		}
		o := get(g)
		fp := FingerprintOf(g)
		for step := 0; step < 24 && len(data) > 0; step++ {
			switch op := next() % 5; op {
			case 0:
				o = get(g)
			case 1:
				edges := g.Edges()
				if len(edges) == 0 {
					continue
				}
				var edits []apsp.EdgeEdit
				for k := 1 + next()%3; k > 0; k-- {
					e := edges[next()%len(edges)]
					edits = append(edits, apsp.EdgeEdit{U: e.U, V: e.V, W: float64(next() % 10)})
				}
				threshold = []float64{0, 1e-9, 2}[next()%3]
				ed, err := apsp.ApplyEdits(g, edits)
				if err != nil {
					t.Fatalf("valid edits %+v refused: %v", edits, err)
				}
				want := FingerprintOf(ed.Graph)
				nextFp, o2, st, err := r.Reweight(fp, edits)
				if errors.Is(err, ErrUnknownGraph) { // evicted: load it again
					get(g)
					nextFp, o2, st, err = r.Reweight(fp, edits)
				}
				if errors.Is(err, ErrUnknownGraph) { // too wide for the budget to keep
					nextFp, o2, err = want, get(ed.Graph), nil
				}
				if err != nil {
					t.Fatalf("Reweight %+v: %v", edits, err)
				}
				if nextFp != want || FingerprintOf(o2.Graph()) != want {
					t.Fatalf("Reweight %+v: fingerprint %s, graph %s, want %s", edits, nextFp, FingerprintOf(o2.Graph()), want)
				}
				if !slices.Equal(o2.dist.encode(), freshOf(ed.Graph).dist.encode()) {
					t.Fatalf("Reweight %+v (stats %+v): the store's bytes differ from a fresh Get's", edits, st)
				}
				o, g, fp = o2, ed.Graph, want
			case 2, 3:
				a, b := next()%n, next()%n
				pairs := make([][2]int, 1+next()%16)
				for k := range pairs {
					pairs[k] = [2]int{(a + k) % n, (b + k*k) % n}
				}
				if op == 2 {
					checkPaths(t, o, freshOf(g), pairs)
				} else {
					checkDists(t, o, freshOf(g), pairs)
				}
			case 4:
				get(other)
			}
		}
		all := make([][2]int, 0, n*n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				all = append(all, [2]int{u, v})
			}
		}
		checkDists(t, o, freshOf(g), all)
		checkPaths(t, o, freshOf(g), all)
		if p := o.succ.Pending(); p != 0 {
			t.Fatalf("%d rows still pending after every path was read", p)
		}
	})
}

// checkDists holds o's distances of pairs to want's bit for bit.
func checkDists(t *testing.T, o, want *Oracle, pairs [][2]int) {
	t.Helper()
	got, err := o.BatchDist(pairs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := want.BatchDist(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if !sameBits(got[i], ref[i]) {
			t.Fatalf("Dist%v = %v, a fresh Get says %v", p, got[i], ref[i])
		}
	}
}

// checkPaths holds o's paths of pairs to want's hop for hop.
func checkPaths(t *testing.T, o, want *Oracle, pairs [][2]int) {
	t.Helper()
	got, err := o.BatchPath(pairs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := want.BatchPath(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if !slices.Equal(got[i], ref[i]) {
			t.Fatalf("Path%v = %v, a fresh Get walks %v", p, got[i], ref[i])
		}
	}
}
