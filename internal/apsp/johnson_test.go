package apsp

import (
	"math"
	"math/rand"
	"testing"

	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// metamorphicFamilies are the graphs the Dijkstra's metamorphic tests
// run over: one with several components, one with zero-weight edges,
// one built from repeated AddEdge calls on the same pairs (the lighter
// duplicate wins) and one with real-valued weights, whose path sums
// round.
func metamorphicFamilies(t *testing.T) []namedGraph {
	rng := rand.New(rand.NewSource(1308))
	random := func(n, m int) *graph.Graph {
		g := graph.New(n)
		for i := 0; i < m; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), float64(rng.Intn(6)+1))
		}
		return g
	}
	disconnected, dup := random(60, 45), random(40, 200)
	if disconnected.Connected() || dup.M() >= 200 {
		t.Fatal("the families did not draw what they are named for")
	}
	zero := func(u, v int) float64 { return float64(rng.Intn(3)) }
	return []namedGraph{
		{"disconnected", disconnected},
		{"zero-weight", graph.Grid2D(7, 8, zero)},
		{"duplicate-edge", dup},
		{"real-valued", graph.RandomGNP(50, 0.1, graph.RandomWeights(rng, 0.1, 10), rng)},
	}
}

func mustJohnson(t *testing.T, g *graph.Graph) *semiring.Matrix {
	t.Helper()
	d, err := Johnson(g)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestJohnsonRelabel: renumbering the vertices permutes the distance
// matrix, bit for bit — the Dijkstra's answer does not depend on the
// order it meets the vertices or their edges in.
func TestJohnsonRelabel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, f := range metamorphicFamilies(t) {
		n := f.g.N()
		perm := rng.Perm(n)
		d, want := mustJohnson(t, f.g), semiring.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want.Set(perm[i], perm[j], d.At(i, j))
			}
		}
		if !identicalMatrices(mustJohnson(t, f.g.Permute(perm)), want) {
			t.Errorf("%s: the relabelled graph's distances are not the permuted matrix", f.name)
		}
	}
}

// TestJohnsonDisjointUnion: the distances of two graphs side by side
// are the block-diagonal of their own, with Inf off the blocks.
func TestJohnsonDisjointUnion(t *testing.T) {
	fams := metamorphicFamilies(t)
	for i, f := range fams {
		h := fams[(i+1)%len(fams)].g
		n1, n2 := f.g.N(), h.N()
		u := graph.New(n1 + n2)
		for _, e := range f.g.Edges() {
			u.AddEdge(e.U, e.V, e.W)
		}
		for _, e := range h.Edges() {
			u.AddEdge(n1+e.U, n1+e.V, e.W)
		}
		d1, d2, want := mustJohnson(t, f.g), mustJohnson(t, h), semiring.NewMatrix(n1+n2, n1+n2)
		for x := 0; x < n1; x++ {
			copy(want.V[x*(n1+n2):], d1.V[x*n1:(x+1)*n1])
		}
		for x := 0; x < n2; x++ {
			copy(want.V[(n1+x)*(n1+n2)+n1:], d2.V[x*n2:(x+1)*n2])
		}
		if !identicalMatrices(mustJohnson(t, u), want) {
			t.Errorf("%s ⊔ next: the union's distances are not the block-diagonal of the parts", f.name)
		}
	}
}

// TestJohnsonDominatedEdge: an edge no lighter than its endpoints'
// current distance shortens nothing. On integer weights the edge is
// exactly as heavy as that distance, a tie; on real-valued weights it
// is one unit heavier, because a path that takes the new edge sums
// d(x,u) + w where the old one folded the u–v path edge by edge, and
// the two can round a last bit apart.
func TestJohnsonDominatedEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, f := range metamorphicFamilies(t) {
		n := f.g.N()
		d := mustJohnson(t, f.g)
		added := 0
		for try := 0; added < 5 && try < 1000; try++ {
			u, v := rng.Intn(n), rng.Intn(n)
			w := d.At(u, v)
			if u == v || math.IsInf(w, 1) {
				continue
			}
			if f.name == "real-valued" {
				w++
			}
			g2 := f.g.Clone()
			g2.AddEdge(u, v, w)
			if !identicalMatrices(mustJohnson(t, g2), d) {
				t.Fatalf("%s: adding {%d,%d} at weight %v (distance %v) changed the distances", f.name, u, v, w, d.At(u, v))
			}
			added++
		}
		if added < 5 {
			t.Fatalf("%s: found %d connected pairs, want 5", f.name, added)
		}
	}
}
