// Package etree implements the elimination tree of Section 4.2 and the
// scheduling machinery of Section 5.2: supernode labels, levels,
// ancestor/descendant/cousin sets, the four update regions R_l^1..R_l^4,
// and the one-to-one computing-unit-to-processor mapping of Corollary
// 5.5 with the row formula f = Σ_{b=h+a−c}^{h−1} 2^b + (a−l) and column
// formula g = k − Σ_{b=h−l+1}^{h−1} 2^b.
//
// The tree is the complete binary tree produced by recursive nested
// dissection with N = 2^h − 1 supernodes, labelled level by level from
// the bottom (Fig. 3a): level 1 holds the leaves 1..2^{h−1}, level l
// holds labels LevelOffset(l)+1 .. LevelOffset(l)+2^{h−l}, and the root
// separator is N. All labels and levels are 1-based, exactly as in the
// paper.
package etree

import "fmt"

// Tree is a complete binary elimination tree of height H.
type Tree struct {
	H int // number of levels
	N int // number of supernodes, 2^H − 1
}

// New returns the elimination tree with h levels. h must be ≥ 1.
func New(h int) *Tree {
	if h < 1 {
		panic(fmt.Sprintf("etree: height %d < 1", h))
	}
	return &Tree{H: h, N: (1 << h) - 1}
}

// HeightForGrid returns the tree height h with 2^h − 1 = s supernodes,
// or an error if s is not of that form. The block layout of Section 5.1
// requires the number of supernodes to equal the grid side √p.
func HeightForGrid(s int) (int, error) {
	h := 0
	for (1<<(h+1))-1 <= s {
		h++
	}
	if h == 0 || (1<<h)-1 != s {
		return 0, fmt.Errorf("etree: grid side %d is not 2^h-1 (valid: 1, 3, 7, 15, 31, ...)", s)
	}
	return h, nil
}

// LevelOffset returns the number of supernodes at levels below l.
func (t *Tree) LevelOffset(l int) int {
	return (1 << t.H) - (1 << (t.H - l + 1))
}

// LevelSize returns |Q_l| = 2^{H−l}.
func (t *Tree) LevelSize(l int) int { return 1 << (t.H - l) }

// Level returns the level of supernode k.
func (t *Tree) Level(k int) int {
	if k < 1 || k > t.N {
		panic(fmt.Sprintf("etree: supernode %d outside [1,%d]", k, t.N))
	}
	for l := 1; l <= t.H; l++ {
		if k <= t.LevelOffset(l)+t.LevelSize(l) {
			return l
		}
	}
	panic("etree: unreachable")
}

// IndexInLevel returns the 1-based position of k within its level.
func (t *Tree) IndexInLevel(k int) int { return k - t.LevelOffset(t.Level(k)) }

// LevelNodes returns Q_l, the supernodes of level l in label order.
func (t *Tree) LevelNodes(l int) []int {
	off := t.LevelOffset(l)
	out := make([]int, t.LevelSize(l))
	for i := range out {
		out[i] = off + i + 1
	}
	return out
}

// Parent returns the parent label of k, or 0 for the root.
func (t *Tree) Parent(k int) int {
	l := t.Level(k)
	if l == t.H {
		return 0
	}
	i := t.IndexInLevel(k)
	return t.LevelOffset(l+1) + (i+1)/2
}

// Children returns the two children of k, or nil for leaves.
func (t *Tree) Children(k int) []int {
	l := t.Level(k)
	if l == 1 {
		return nil
	}
	i := t.IndexInLevel(k)
	off := t.LevelOffset(l - 1)
	return []int{off + 2*i - 1, off + 2*i}
}

// AncestorAtLevel returns the ancestor of k at level a ≥ level(k)
// (k itself when a == level(k)).
func (t *Tree) AncestorAtLevel(k, a int) int {
	l := t.Level(k)
	if a < l || a > t.H {
		panic(fmt.Sprintf("etree: no ancestor of node %d (level %d) at level %d", k, l, a))
	}
	i := t.IndexInLevel(k)
	// Each step up halves the index (1-based ceil division).
	i = (i + (1 << (a - l)) - 1) >> (a - l)
	return t.LevelOffset(a) + i
}

// Ancestors returns 𝒜(k): the proper ancestors of k, bottom-up.
func (t *Tree) Ancestors(k int) []int {
	l := t.Level(k)
	out := make([]int, 0, t.H-l)
	for a := l + 1; a <= t.H; a++ {
		out = append(out, t.AncestorAtLevel(k, a))
	}
	return out
}

// IsAncestor reports whether a is a proper ancestor of k.
func (t *Tree) IsAncestor(a, k int) bool {
	la, lk := t.Level(a), t.Level(k)
	if la <= lk {
		return false
	}
	return t.AncestorAtLevel(k, la) == a
}

// Related reports whether i and j lie on a common root path (equal, or
// one is an ancestor of the other) — the opposite of cousins.
func (t *Tree) Related(i, j int) bool {
	if i == j {
		return true
	}
	return t.IsAncestor(i, j) || t.IsAncestor(j, i)
}

// Descendants returns 𝒟(k): all proper descendants, in label order.
func (t *Tree) Descendants(k int) []int {
	l := t.Level(k)
	i := t.IndexInLevel(k)
	out := make([]int, 0, (1<<l)-2)
	for d := 1; d < l; d++ {
		off := t.LevelOffset(d)
		width := 1 << (l - d) // descendants of k at level d
		first := (i-1)*width + 1
		for x := 0; x < width; x++ {
			out = append(out, off+first+x)
		}
	}
	return out
}

// DescendantsAtLevel returns Q_d ∩ 𝒟(k) for d < level(k): a contiguous
// run of labels, which is what makes the reduce groups of R_l^4
// contiguous processor columns.
func (t *Tree) DescendantsAtLevel(k, d int) []int {
	l := t.Level(k)
	if d >= l || d < 1 {
		return nil
	}
	i := t.IndexInLevel(k)
	off := t.LevelOffset(d)
	width := 1 << (l - d)
	first := (i-1)*width + 1
	out := make([]int, width)
	for x := range out {
		out[x] = off + first + x
	}
	return out
}

// Cousins returns 𝒞(k): every supernode that is neither an ancestor
// nor a descendant of k (nor k itself), in label order.
func (t *Tree) Cousins(k int) []int {
	out := make([]int, 0, t.N)
	for j := 1; j <= t.N; j++ {
		if j != k && !t.Related(j, k) {
			out = append(out, j)
		}
	}
	return out
}

// RelatedSet returns k ∪ 𝒜(k) ∪ 𝒟(k) in label order: the row/column
// index set touched when eliminating supernode k.
func (t *Tree) RelatedSet(k int) []int {
	desc := t.Descendants(k)
	anc := t.Ancestors(k)
	out := make([]int, 0, len(desc)+1+len(anc))
	out = append(out, desc...)
	out = append(out, k)
	out = append(out, anc...)
	return out
}
