package etree

import "fmt"

// The one-to-one computing-unit mapping of Section 5.2.2. Updating a
// block A(i,j) ∈ R_l^4 (level(i) = a ≤ c = level(j), j ∈ i ∪ 𝒜(i))
// needs the units A(i,k) ⊗ A(k,j) for every k ∈ Q_l ∩ 𝒟(i). Corollary
// 5.5 places the unit of pivot k on processor P_{f,g} with
//
//	f = Σ_{b=h+a−c}^{h−1} 2^b + (a − l)   (rows are per (a,c) subset, Lemma 5.4)
//	g = k − Σ_{b=h−l+1}^{h−1} 2^b         (columns are per pivot, Lemma 5.3)
//
// Both coordinates are 1-based grid positions on the √p × √p grid with
// √p = 2^h − 1.

// Row returns the processor row f for the subset R_l^4(a, c). Levels
// must satisfy l < a ≤ c ≤ H.
func (t *Tree) Row(l, a, c int) int {
	if !(l < a && a <= c && c <= t.H) {
		panic(fmt.Sprintf("etree: Row(l=%d, a=%d, c=%d) outside l < a ≤ c ≤ %d", l, a, c, t.H))
	}
	// Σ_{b=h+a-c}^{h-1} 2^b = 2^h − 2^{h+a−c}, empty (0) when c == a.
	sum := 0
	if c > a {
		sum = (1 << t.H) - (1 << (t.H + a - c))
	}
	return sum + (a - l)
}

// Col returns the processor column g for pivot k ∈ Q_l.
func (t *Tree) Col(l, k int) int {
	// Σ_{b=h-l+1}^{h-1} 2^b = 2^h − 2^{h−l+1} = LevelOffset(l).
	g := k - t.LevelOffset(l)
	if g < 1 || g > t.LevelSize(l) {
		panic(fmt.Sprintf("etree: Col(l=%d, k=%d): k not in Q_%d", l, k, l))
	}
	return g
}

// Unit is one computing unit of the elimination of level l: processor
// P_{F,G} (1-based grid coordinates) computes A(I,K) ⊗ A(K,J) and the
// result is reduced into block (I, J). level(I) ≤ level(J) always; the
// transposed block is produced by the final symmetric send.
type Unit struct {
	I, K, J int
	F, G    int
}

// UnitsForLevel enumerates every computing unit of R_l^4 in
// deterministic order: for each pivot k ∈ Q_l and each ancestor pair
// (a, c), the unit (i, k, j) with i, j the level-a and level-c
// ancestors of k. By Lemmas 5.2–5.4 the (F, G) coordinates are distinct
// across all returned units and within the √p × √p grid.
func (t *Tree) UnitsForLevel(l int) []Unit {
	if l < 1 || l > t.H {
		panic(fmt.Sprintf("etree: level %d outside [1,%d]", l, t.H))
	}
	var out []Unit
	for _, k := range t.LevelNodes(l) {
		g := t.Col(l, k)
		for a := l + 1; a <= t.H; a++ {
			i := t.AncestorAtLevel(k, a)
			for c := a; c <= t.H; c++ {
				j := t.AncestorAtLevel(k, c)
				out = append(out, Unit{I: i, K: k, J: j, F: t.Row(l, a, c), G: g})
			}
		}
	}
	return out
}

// R4BroadcastTargetsColPanel returns, for the column panel block (i, k)
// with k ∈ Q_l and i ∈ 𝒜(k) at level a, the (F, G) processors that
// need A(i,k): rows f(a,c) for c ∈ {a..H}, column g(k) — Algorithm 1
// line 14.
func (t *Tree) R4BroadcastTargetsColPanel(l, i, k int) []Unit {
	a := t.Level(i)
	g := t.Col(l, k)
	var out []Unit
	for c := a; c <= t.H; c++ {
		out = append(out, Unit{I: i, K: k, J: t.AncestorAtLevel(k, c), F: t.Row(l, a, c), G: g})
	}
	return out
}

// R4BroadcastTargetsRowPanel returns, for the row panel block (k, j)
// with k ∈ Q_l and j ∈ 𝒜(k) at level c, the (F, G) processors that
// need A(k,j): rows f(a,c) for a ∈ {l+1..c}, column g(k) — Algorithm 1
// line 17.
func (t *Tree) R4BroadcastTargetsRowPanel(l, k, j int) []Unit {
	c := t.Level(j)
	g := t.Col(l, k)
	var out []Unit
	for a := l + 1; a <= c; a++ {
		out = append(out, Unit{I: t.AncestorAtLevel(k, a), K: k, J: j, F: t.Row(l, a, c), G: g})
	}
	return out
}
