package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// Everything the program under test receives is generated here, from the
// run's seed, before any clock starts. The program sees only the bytes.

// gnpStructureSeed fixes the G(n,4/n) edge set. The driver compares runs
// made with different seeds, so the seed may change weights, pairs and
// edits but not the amount of work: a different random structure has a
// different separator and a different solve time.
const gnpStructureSeed = 20210809

// half is one direction of an undirected edge in bench's own adjacency.
type half struct {
	to int
	w  float64
}

// input is one generated graph: body is what the program receives, adj is
// bench's private view used by the independent Dijkstra check.
type input struct {
	n    int
	m    int
	body []byte
	adj  [][]half
}

// structure returns the undirected edge set (u < v) of a workload family.
func structure(family string, n int) [][2]int {
	var es [][2]int
	switch family {
	case "grid":
		side := int(math.Round(math.Sqrt(float64(n))))
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				v := r*side + c
				if c+1 < side {
					es = append(es, [2]int{v, v + 1})
				}
				if r+1 < side {
					es = append(es, [2]int{v, v + side})
				}
			}
		}
	case "gnp":
		rng := rand.New(rand.NewSource(gnpStructureSeed))
		prob := 4.0 / float64(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < prob {
					es = append(es, [2]int{u, v})
				}
			}
		}
	case "cycle":
		for v := 0; v+1 < n; v++ {
			es = append(es, [2]int{v, v + 1})
		}
		es = append(es, [2]int{0, n - 1})
	default:
		panic("bench: unknown graph family " + family)
	}
	return es
}

// weigh draws integer weights 1..9 for a structure (integers keep every
// path sum exact in float64, so distances can be compared bit for bit)
// and renders the edge-list body the program parses.
func weigh(n int, es [][2]int, rng *rand.Rand) *input {
	in := &input{n: n, m: len(es), adj: make([][]half, n)}
	body := make([]byte, 0, 16*len(es)+16)
	body = append(body, "n "...)
	body = strconv.AppendInt(body, int64(n), 10)
	body = append(body, '\n')
	for _, e := range es {
		w := float64(1 + rng.Intn(9))
		in.adj[e[0]] = append(in.adj[e[0]], half{e[1], w})
		in.adj[e[1]] = append(in.adj[e[1]], half{e[0], w})
		body = strconv.AppendInt(body, int64(e[0]), 10)
		body = append(body, ' ')
		body = strconv.AppendInt(body, int64(e[1]), 10)
		body = append(body, ' ')
		body = strconv.AppendInt(body, int64(w), 10)
		body = append(body, '\n')
	}
	in.body = body
	return in
}

// weight returns the weight of edge {u,v}, false when it is no edge.
func (in *input) weight(u, v int) (float64, bool) {
	for _, h := range in.adj[u] {
		if h.to == v {
			return h.w, true
		}
	}
	return 0, false
}

// reweighted returns a copy of in with the edits applied (body is not
// rendered: a reweighted graph reaches the program as edits, not bytes).
func (in *input) reweighted(edits [][3]int) *input {
	out := &input{n: in.n, m: in.m, adj: make([][]half, in.n)}
	for u := range in.adj {
		out.adj[u] = append([]half(nil), in.adj[u]...)
	}
	for _, e := range edits {
		for _, d := range [2][2]int{{e[0], e[1]}, {e[1], e[0]}} {
			for i := range out.adj[d[0]] {
				if out.adj[d[0]][i].to == d[1] {
					out.adj[d[0]][i].w = float64(e[2])
				}
			}
		}
	}
	return out
}

// batchPairs is the size of every /query batch.
const batchPairs = 64

// zipfS is the skew of query sources: a few vertices are asked about far
// more often than the rest, targets are uniform.
const zipfS = 1.2

// hotSources is how many vertices are ever asked about as a source: the
// Zipf ranks beyond it carry a tenth of the mass, and bench needs one
// Dijkstra row per distinct source and graph version at every set-up.
const hotSources = 256

// drawPairs draws k query pairs: sources Zipf over a seeded relabelling
// (so the hot sources are not the low vertex ids), targets uniform.
func drawPairs(n, k int, rng *rand.Rand) [][2]int {
	label := rng.Perm(n)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(min(n, hotSources)-1))
	ps := make([][2]int, k)
	for i := range ps {
		ps[i] = [2]int{label[zipf.Uint64()], rng.Intn(n)}
	}
	return ps
}

// queryBody renders a /query request.
func queryBody(fp string, pairs [][2]int, paths bool) []byte {
	b := make([]byte, 0, 96+10*len(pairs))
	b = append(b, `{"graph":"`...)
	b = append(b, fp...)
	b = append(b, `","pairs":[`...)
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(p[0]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p[1]), 10)
		b = append(b, ']')
	}
	b = append(b, `],"paths":`...)
	b = strconv.AppendBool(b, paths)
	return append(b, '}')
}

// reweightBody renders a /reweight request.
func reweightBody(fp string, edits [][3]int) []byte {
	b := []byte(`{"graph":"` + fp + `","edits":[`)
	for i, e := range edits {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, fmt.Sprintf("[%d,%d,%d]", e[0], e[1], e[2])...)
	}
	return append(b, "]}"...)
}

// toggleEdits picks two edges and returns an edit set that raises one
// weight and lowers the other, plus the edit set that undoes it. Posting
// them alternately keeps the graph on two versions whose answers are
// both known before the clock starts, while every post is a real repair
// with one increase and one decrease.
func toggleEdits(in *input, es [][2]int, rng *rand.Rand) (there, back [][3]int) {
	var up, down *[2]int
	for _, i := range rng.Perm(len(es)) {
		e := es[i]
		w, _ := in.weight(e[0], e[1])
		if w <= 5 && up == nil {
			up = &[2]int{e[0], e[1]}
		} else if w > 5 && down == nil {
			down = &[2]int{e[0], e[1]}
		}
		if up != nil && down != nil {
			break
		}
	}
	for _, e := range []*[2]int{up, down} {
		if e == nil {
			continue // every weight on one side of 5: a one-edit toggle is still valid
		}
		w, _ := in.weight(e[0], e[1])
		nw := w + 4
		if w > 5 {
			nw = w - 4
		}
		there = append(there, [3]int{e[0], e[1], int(nw)})
		back = append(back, [3]int{e[0], e[1], int(w)})
	}
	return there, back
}
