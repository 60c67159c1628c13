package partition

import (
	"fmt"

	"sparseapsp/internal/comm"
	"sparseapsp/internal/etree"
	"sparseapsp/internal/graph"
)

// DistributedND is a genuinely distributed nested dissection running
// as an SPMD program on the simulated machine — the Karypis–Kumar
// parallel multilevel scheme the paper cites in Section 5.4.4,
// simplified where noted:
//
//   - the subgraph at each tree node is distributed in contiguous
//     vertex chunks over the node's processor group;
//   - coarsening rounds match heavy edges *locally* (no cross-rank
//     matching) and exchange only boundary coarsening maps, with
//     O(log q)-latency collectives per round;
//   - the coarsest graph is gathered to the group leader, bisected
//     with the sequential multilevel code, and the coarse partition is
//     broadcast back and projected down the (local) matching chains;
//   - the projected partition is refined by a few rounds of greedy
//     one-directional moves of positive-gain boundary vertices under a
//     per-rank balance budget (refineDistributed), a simplified
//     parallel FM;
//   - the cut edges are gathered to the leader, which extracts the
//     minimum vertex separator by König's theorem and broadcasts it;
//   - both halves are redistributed to the two halves of the group,
//     shipping each vertex's adjacency to its new owner, and the
//     recursion continues in parallel on the disjoint halves.
//
// Deviations from [18] and their cost impact are documented in
// DESIGN.md: local-only matching can coarsen slightly slower, the
// refinement after projection is that greedy approximation rather than
// full parallel FM (the leader's bisect still refines the coarsest
// level with FM), and the redistribution is a direct point-to-point
// exchange. The returned Result satisfies the same invariants as
// NestedDissection (CheckSeparation etc.), and the comm.Report carries
// the measured preprocessing cost used by experiment E9.
func DistributedND(g *graph.Graph, p, h int, seed int64) (*Result, comm.Report, error) {
	if h < 1 {
		return nil, comm.Report{}, fmt.Errorf("partition: tree height %d < 1", h)
	}
	if p < 1 {
		return nil, comm.Report{}, fmt.Errorf("partition: p=%d < 1", p)
	}
	n := g.N()
	tr := etree.New(h)
	super := make([][]int, tr.N+1)

	machine := comm.NewMachine(p)
	err := machine.Run(func(ctx *comm.Ctx) {
		w := &dndWorker{ctx: ctx, tr: tr, super: super, seed: seed}
		group := make([]int, p)
		for i := range group {
			group[i] = i
		}
		// Initial contiguous chunk of the whole vertex set.
		pos := ctx.Rank()
		lo, hi := pos*n/p, (pos+1)*n/p
		chunk := newChunk()
		for v := lo; v < hi; v++ {
			chunk.verts = append(chunk.verts, v)
			chunk.weight[v] = 1
			chunk.adj[v] = append([]graph.Edge(nil), g.Adj(v)...)
		}
		w.node(group, chunk, 0, 1)
	})
	if err != nil {
		return nil, comm.Report{}, err
	}

	res, err := fromSupernodes(h, n, super)
	if err != nil {
		return nil, comm.Report{}, err
	}
	return res, machine.Report(), nil
}

// dndChunk is one rank's share of the current subgraph: global vertex
// ids, their collapsed weights, and adjacency over global ids.
type dndChunk struct {
	verts  []int
	weight map[int]int
	adj    map[int][]graph.Edge
}

func newChunk() *dndChunk {
	return &dndChunk{weight: map[int]int{}, adj: map[int][]graph.Edge{}}
}

type dndWorker struct {
	ctx   *comm.Ctx
	tr    *etree.Tree
	super [][]int // 1-based supernode lists, written by each node's leader
	seed  int64
}

// tag derives a collision-free tag from the tree position and phase.
func (w *dndWorker) tag(depth, idx, phase, round int) int {
	return (((depth*128+idx)*24 + phase) * 64) + round
}

// node processes the dissection-tree node at (depth, idx); group is the
// processor subset responsible and chunk is this rank's share of the
// node's subgraph.
func (w *dndWorker) node(group []int, chunk *dndChunk, depth, idx int) {
	label := w.tr.LevelOffset(w.tr.H-depth) + idx
	leader := group[0]

	if depth == w.tr.H-1 {
		// Leaf: leader collects the vertex ids.
		ids := make([]float64, len(chunk.verts))
		for i, v := range chunk.verts {
			ids[i] = float64(v)
		}
		parts := w.ctx.Gather(group, leader, w.tag(depth, idx, 0, 0), ids)
		if w.ctx.Rank() == leader {
			var all []int
			for _, part := range parts {
				for _, f := range part {
					all = append(all, int(f))
				}
			}
			w.super[label] = all
		}
		return
	}

	part, sep, remotePart := w.bisectNode(group, chunk, depth, idx)

	// Record the separator at the leader.
	if w.ctx.Rank() == leader {
		var sepList []int
		for v := range sep {
			sepList = append(sepList, v)
		}
		w.super[label] = sepList
	}

	// Split vertices into sides, dropping separator vertices.
	var left, right []int
	for _, v := range chunk.verts {
		if sep[v] {
			continue
		}
		if part[v] == 0 {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}

	// Redistribute each side to its half of the group and recurse.
	half := (len(group) + 1) / 2
	leftGroup, rightGroup := group[:half], group[half:]
	if len(rightGroup) == 0 {
		// Group of one rank: process both children locally.
		leftChunk := w.filterChunk(chunk, left, part, sep, 0)
		rightChunk := w.filterChunk(chunk, right, part, sep, 1)
		w.node(group, leftChunk, depth+1, 2*idx-1)
		w.node(group, rightChunk, depth+1, 2*idx)
		return
	}
	leftChunk := w.redistribute(group, chunk, left, part, sep, remotePart, 0, leftGroup, depth, idx, 10)
	rightChunk := w.redistribute(group, chunk, right, part, sep, remotePart, 1, rightGroup, depth, idx, 14)
	myPos := groupIndex(group, w.ctx.Rank())
	if myPos < half {
		w.node(leftGroup, leftChunk, depth+1, 2*idx-1)
	} else {
		w.node(rightGroup, rightChunk, depth+1, 2*idx)
	}
}

// filterChunk locally induces the side's subgraph (single-rank path).
func (w *dndWorker) filterChunk(chunk *dndChunk, side []int, part map[int]int8, sep map[int]bool, wantSide int8) *dndChunk {
	out := newChunk()
	keep := map[int]bool{}
	for _, v := range side {
		keep[v] = true
	}
	for _, v := range side {
		out.verts = append(out.verts, v)
		out.weight[v] = chunk.weight[v]
		var edges []graph.Edge
		for _, e := range chunk.adj[v] {
			if keep[e.To] {
				edges = append(edges, e)
			}
		}
		out.adj[v] = edges
	}
	return out
}

// groupIndex returns rank's position in group.
func groupIndex(group []int, rank int) int {
	for i, r := range group {
		if r == rank {
			return i
		}
	}
	panic("partition: rank not in group")
}
