package main

import (
	"fmt"
	"math"
)

// The correctness gate: bench's own single-source shortest paths, sharing
// no code with the program, and the checks that compare every answer the
// program gives against it. A mismatch is a failed operation.

// heapItem is one tentative distance in the Dijkstra frontier.
type heapItem struct {
	d float64
	v int
}

// minHeap is a plain binary heap with lazy deletion: stale entries are
// skipped when popped instead of being decreased in place.
type minHeap []heapItem

func (h *minHeap) push(it heapItem) {
	*h = append(*h, it)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p].d <= a[i].d {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *minHeap) pop() heapItem {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < last && a[l].d < a[m].d {
			m = l
		}
		if r < last && a[r].d < a[m].d {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	*h = a
	return top
}

// dijkstra returns the distances from src to every vertex, +Inf where
// unreachable.
func dijkstra(in *input, src int) []float64 {
	dist := make([]float64, in.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := minHeap{{0, src}}
	for len(h) > 0 {
		it := h.pop()
		if it.d > dist[it.v] {
			continue
		}
		for _, e := range in.adj[it.v] {
			if nd := it.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				h.push(heapItem{nd, e.to})
			}
		}
	}
	return dist
}

// rowCache memoises Dijkstra rows of one graph by source.
type rowCache struct {
	in   *input
	rows map[int][]float64
}

func newRowCache(in *input) *rowCache { return &rowCache{in: in, rows: make(map[int][]float64)} }

func (rc *rowCache) dist(u, v int) float64 {
	row, ok := rc.rows[u]
	if !ok {
		row = dijkstra(rc.in, u)
		rc.rows[u] = row
	}
	return row[v]
}

// expect returns the wire form of the true distances of pairs: the
// server writes -1 for an unreachable pair because JSON has no Inf.
func (rc *rowCache) expect(pairs [][2]int) []float64 {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		if d := rc.dist(p[0], p[1]); math.IsInf(d, 1) {
			out[i] = -1
		} else {
			out[i] = d
		}
	}
	return out
}

// checkDists compares answered distances with the expected ones bit for
// bit (integer weights make every path sum exact).
func checkDists(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d distances, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("pair %d: distance %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkPaths walks every returned path: it starts and ends at the asked
// pair, every hop is an edge of the graph, and the hop weights sum to the
// expected distance. An unreachable pair must come back without a path.
func checkPaths(in *input, pairs [][2]int, want []float64, paths [][]int) error {
	if len(paths) != len(pairs) {
		return fmt.Errorf("got %d paths, want %d", len(paths), len(pairs))
	}
	for i, p := range pairs {
		path := paths[i]
		if want[i] < 0 {
			if len(path) != 0 {
				return fmt.Errorf("pair %d: path for an unreachable pair", i)
			}
			continue
		}
		if len(path) == 0 || path[0] != p[0] || path[len(path)-1] != p[1] {
			return fmt.Errorf("pair %d: path does not join %d and %d", i, p[0], p[1])
		}
		sum := 0.0
		for k := 0; k+1 < len(path); k++ {
			a, b := path[k], path[k+1]
			if a < 0 || a >= in.n || b < 0 || b >= in.n {
				return fmt.Errorf("pair %d: hop %d leaves the graph", i, k)
			}
			w, ok := in.weight(a, b)
			if !ok {
				return fmt.Errorf("pair %d: hop %d-%d is not an edge", i, a, b)
			}
			sum += w
		}
		if sum != want[i] {
			return fmt.Errorf("pair %d: path weighs %v, distance is %v", i, sum, want[i])
		}
	}
	return nil
}
