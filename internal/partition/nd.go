package partition

import (
	"fmt"
	"math/rand"
	"sort"

	"sparseapsp/internal/etree"
	"sparseapsp/internal/graph"
)

// Result is a nested-dissection ordering: a complete binary supernode
// tree of height H with N = 2^H − 1 supernodes, carrying etree's labels
// (Fig. 3a: leaves are 1..2^{H−1}, the root separator is N), and the
// vertex permutation that makes each supernode's vertices consecutive
// in label order. FromOrdering builds every Result.
type Result struct {
	H       int     // tree height (number of levels)
	N       int     // number of supernodes, 2^H − 1
	Super   [][]int // 1-based: Super[t] lists the original vertices of supernode t
	Sizes   []int   // 1-based: Sizes[t] = len(Super[t])
	Starts  []int   // 1-based: first new index of supernode t
	Perm    []int   // old vertex id -> new vertex id
	InvPerm []int   // new vertex id -> old vertex id
}

// SeparatorSize returns |S|, the size of the top-level separator (the
// root supernode) — the quantity the paper's bounds are stated in.
func (r *Result) SeparatorSize() int {
	if r.H == 1 {
		return 0 // no dissection happened
	}
	return r.Sizes[r.N]
}

// MaxSeparatorSize returns the largest separator size over all
// non-leaf supernodes.
func (r *Result) MaxSeparatorSize() int {
	m := 0
	for t := 1<<(r.H-1) + 1; t <= r.N; t++ {
		m = max(m, r.Sizes[t])
	}
	return m
}

// NestedDissection orders g with h levels of recursive dissection:
// h−1 rounds of (bisect, extract vertex separator) followed by leaf
// supernodes holding whatever remains. Supernodes may be empty on
// small or lopsided graphs; all algorithms tolerate empty blocks.
// The seed makes the randomized partitioner deterministic.
func NestedDissection(g *graph.Graph, h int, seed int64) (*Result, error) {
	if h < 1 {
		return nil, fmt.Errorf("partition: tree height %d < 1", h)
	}
	n := g.N()
	tr := etree.New(h)
	super := make([][]int, tr.N+1)
	rng := rand.New(rand.NewSource(seed))
	opts := defaultBisectOptions()

	all := make([]int, n)
	for v := range all {
		all[v] = v
	}

	// assign walks the dissection tree. depth 0 is the root (eTree level
	// h); idx is the 1-based position of the node within its level.
	var assign func(vertices []int, depth, idx int)
	assign = func(vertices []int, depth, idx int) {
		label := tr.LevelOffset(h-depth) + idx
		if depth == h-1 {
			super[label] = vertices
			return
		}
		if len(vertices) == 0 {
			assign(nil, depth+1, 2*idx-1)
			assign(nil, depth+1, 2*idx)
			return
		}
		sub := g.Subgraph(vertices)
		w := fromGraph(sub)
		part := bisect(w, opts, rng)
		sep := VertexSeparator(sub, part)
		var sepVerts, left, right []int
		for i, v := range vertices {
			switch {
			case sep[i]:
				sepVerts = append(sepVerts, v)
			case part[i] == 0:
				left = append(left, v)
			default:
				right = append(right, v)
			}
		}
		super[label] = sepVerts
		assign(left, depth+1, 2*idx-1)
		assign(right, depth+1, 2*idx)
	}
	assign(all, 0, 1)
	return fromSupernodes(h, n, super)
}

// fromSupernodes finishes a dissection of n vertices from its 1-based
// supernode lists: supernodes in label order, the vertices inside one
// in ascending original id for determinism.
func fromSupernodes(h, n int, super [][]int) (*Result, error) {
	perm := make([]int, n)
	sizes := make([]int, len(super))
	next := 0
	for t := 1; t < len(super); t++ {
		sort.Ints(super[t])
		sizes[t] = len(super[t])
		for _, v := range super[t] {
			perm[v] = next
			next++
		}
	}
	return FromOrdering(h, perm, sizes)
}

// FromOrdering rebuilds the h-level dissection whose vertex permutation
// is perm (old id -> new id) and whose supernode t holds sizes[t]
// consecutive new indices (sizes is 1-based, sizes[0] = 0). It is the
// one constructor of a Result, and it checks every field a plan file
// read from disk could get wrong.
func FromOrdering(h int, perm, sizes []int) (*Result, error) {
	if h < 1 {
		return nil, fmt.Errorf("partition: tree height %d < 1", h)
	}
	n, nsup := len(perm), (1<<h)-1
	if len(sizes) != nsup+1 {
		return nil, fmt.Errorf("partition: %d supernode sizes for %d supernodes", len(sizes), nsup)
	}
	if sizes[0] != 0 {
		return nil, fmt.Errorf("partition: sizes[0] = %d (labels are 1-based)", sizes[0])
	}
	total := 0
	for t := 1; t <= nsup; t++ {
		if sizes[t] < 0 {
			return nil, fmt.Errorf("partition: negative supernode size %d", sizes[t])
		}
		total += sizes[t]
	}
	if total != n {
		return nil, fmt.Errorf("partition: supernode sizes sum to %d, permutation covers %d vertices", total, n)
	}
	r := &Result{
		H: h, N: nsup,
		Perm:    perm,
		Sizes:   sizes,
		Starts:  make([]int, nsup+1),
		InvPerm: make([]int, n),
		Super:   make([][]int, nsup+1),
	}
	seen := make([]bool, n)
	for old, nw := range perm {
		if nw < 0 || nw >= n || seen[nw] {
			return nil, fmt.Errorf("partition: perm is not a permutation (entry %d -> %d)", old, nw)
		}
		seen[nw] = true
		r.InvPerm[nw] = old
	}
	next := 0
	for t := 1; t <= nsup; t++ {
		r.Starts[t] = next
		next += sizes[t]
		if sizes[t] > 0 {
			r.Super[t] = append([]int(nil), r.InvPerm[r.Starts[t]:next]...)
		}
	}
	return r, nil
}

// VertexBlocks maps every new vertex index to its supernode and its
// offset within that supernode, in one O(n) sweep.
func (r *Result) VertexBlocks() (sup, loc []int32) {
	n := len(r.Perm)
	sup = make([]int32, n)
	loc = make([]int32, n)
	for t := 1; t <= r.N; t++ {
		for i := 0; i < r.Sizes[t]; i++ {
			sup[r.Starts[t]+i] = int32(t)
			loc[r.Starts[t]+i] = int32(i)
		}
	}
	return sup, loc
}

// CheckSeparation verifies the structural invariant the whole algorithm
// rests on: the *reordered* graph has no edge between supernodes that
// are cousins in the elimination tree (Section 4.2). It returns an
// error naming the first offending edge.
func CheckSeparation(g *graph.Graph, r *Result) error {
	tr := etree.New(r.H)
	sup, _ := r.VertexBlocks()
	for _, e := range g.Edges() {
		tu, tv := int(sup[r.Perm[e.U]]), int(sup[r.Perm[e.V]])
		if !tr.Related(tu, tv) {
			return fmt.Errorf("partition: edge {%d,%d} joins cousin supernodes %d and %d", e.U, e.V, tu, tv)
		}
	}
	return nil
}
