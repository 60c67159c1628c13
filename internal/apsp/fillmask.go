package apsp

// Symbolic fill analysis. Block (i, j) of the supernodal distance
// matrix starts with finite entries only where the permuted graph has
// edges between supernodes i and j, and every later update is a
// min-plus product A(i,j) ⊕= A(i,k) ⊗ A(k,j) scheduled by the eTree
// regions — so which blocks can EVER hold a finite entry is decided by
// the elimination tree and the supernode adjacency alone, before any
// numeric work. FillMask runs that analysis once: a per-level boolean
// overapproximation of block finiteness, level l's updates committed
// in one batch (no R3/R4 product at level l reads a block another
// level-l product wrote a first finite entry into — their outputs
// never have a level-l coordinate — and R2 panel updates cannot turn
// an all-Inf panel finite, since P ⊕ P⊗D has no finite entries when P
// has none).
//
// BuildPlan uses the mask to skip broadcasts whose payload is
// provably all-Inf and the multiplications fed by them; because those
// operations only move and fold semiring identities, skipping them
// leaves every distance bit-identical.

// FillMask records, per eTree level, which supernodal blocks may hold
// a finite entry. It is a sound overapproximation: At(l, i, j) ==
// false guarantees block (i, j) is all-Inf when level l starts.
type FillMask struct {
	H, N   int
	states [][]bool // states[s]: start of level s+1; states[H] is final
}

// NewFillMask runs the symbolic elimination on a layout's tree and
// supernode adjacency. BuildPlan computes it once for the schedule it
// enumerates; no plan or layout keeps it.
func NewFillMask(ly *Layout) *FillMask {
	tr, nd := ly.Tree, ly.ND
	n := tr.N
	stride := n + 1
	cur := make([]bool, stride*stride)
	// Initial structure: the diagonal of every non-empty supernode
	// (distance 0) plus every supernode pair joined by an edge, kept
	// symmetric (the solver mirrors the upper half by transposition).
	for i := 1; i <= n; i++ {
		if nd.Sizes[i] > 0 {
			cur[i*stride+i] = true
		}
	}
	sup, _ := nd.VertexBlocks()
	for v := 0; v < ly.PG.N(); v++ {
		sv := int(sup[v])
		for _, e := range ly.PG.Adj(v) {
			su := int(sup[e.To])
			cur[sv*stride+su] = true
			cur[su*stride+sv] = true
		}
	}
	fm := &FillMask{H: tr.H, N: n, states: make([][]bool, 0, tr.H+1)}
	fm.states = append(fm.states, cur)
	for l := 1; l <= tr.H; l++ {
		// Level l folds A(i,k) ⊗ A(k,j) into A(i,j) for every pivot
		// k ∈ Q_l and every i, j related to k (the R2/R3/R4 update set
		// is contained in related(k) × related(k); R1 and R2 cannot
		// change block-level finiteness).
		next := append([]bool(nil), cur...)
		for _, k := range tr.LevelNodes(l) {
			if nd.Sizes[k] == 0 {
				continue
			}
			rel := tr.RelatedSet(k)
			for _, i := range rel {
				if i == k || !cur[i*stride+k] {
					continue
				}
				for _, j := range rel {
					if j != k && cur[k*stride+j] {
						next[i*stride+j] = true
					}
				}
			}
		}
		cur = next
		fm.states = append(fm.states, cur)
	}
	return fm
}

// At reports whether block (i, j) may hold a finite entry at the start
// of level l (1-based supernode labels; l = H+1 queries the state after
// the final level).
func (fm *FillMask) At(l, i, j int) bool {
	return fm.states[l-1][i*(fm.N+1)+j]
}
