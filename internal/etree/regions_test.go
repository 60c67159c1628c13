package etree

import (
	"fmt"
	"testing"
)

// Figure 3b: the regions R_2^1..R_2^4 of the 4-level tree. Spot-check
// representative members of each subset against the definitions.
func TestFigure3Regions(t *testing.T) {
	tr := New(4)
	const l = 2

	r1 := tr.R1(l)
	wantR1 := map[Block]bool{{9, 9}: true, {10, 10}: true, {11, 11}: true, {12, 12}: true}
	if len(r1) != 4 {
		t.Fatalf("|R_2^1| = %d, want 4", len(r1))
	}
	for _, b := range r1 {
		if !wantR1[b] {
			t.Errorf("unexpected R_2^1 block %v", b)
		}
	}

	r2set := map[Block]bool{}
	for _, b := range tr.R2(l) {
		r2set[b] = true
	}
	// k=9: related set minus self is {1, 2, 13, 15}.
	for _, b := range []Block{{1, 9}, {9, 1}, {2, 9}, {13, 9}, {9, 15}} {
		if !r2set[b] {
			t.Errorf("R_2^2 missing %v", b)
		}
	}
	if r2set[Block{3, 9}] || r2set[Block{9, 10}] {
		t.Error("R_2^2 contains cousin panels")
	}

	r3set := map[Block]int{}
	for _, pb := range tr.R3(l) {
		if _, dup := r3set[Block{pb.I, pb.J}]; dup {
			t.Errorf("R_2^3 lists block (%d,%d) twice", pb.I, pb.J)
		}
		r3set[Block{pb.I, pb.J}] = pb.K
	}
	// Descendant-descendant through pivot 9: (1,2) with pivot 9.
	if k := r3set[Block{1, 2}]; k != 9 {
		t.Errorf("R_2^3 pivot of (1,2) = %d, want 9", k)
	}
	// Ancestor-descendant: (13,1) and (1,13) via pivot 9.
	if k := r3set[Block{13, 1}]; k != 9 {
		t.Errorf("R_2^3 pivot of (13,1) = %d, want 9", k)
	}
	if k := r3set[Block{1, 13}]; k != 9 {
		t.Errorf("R_2^3 pivot of (1,13) = %d, want 9", k)
	}
	// Cousin leaves with no level-2 pivot relating them must be absent:
	// 1 (under 9) and 3 (under 10) share no level-2 pivot.
	if _, ok := r3set[Block{1, 3}]; ok {
		t.Error("R_2^3 contains (1,3) whose pivots are disjoint at level 2")
	}

	r4set := map[Block]bool{}
	for _, b := range tr.R4(l) {
		r4set[b] = true
	}
	for _, b := range []Block{{13, 13}, {13, 15}, {15, 13}, {15, 15}, {14, 15}, {13, 14}} {
		if b.I == 13 && b.J == 14 {
			// 13 and 14 are cousins: must NOT be in R_2^4.
			if r4set[b] {
				t.Errorf("R_2^4 contains cousin block %v", b)
			}
			continue
		}
		if !r4set[b] {
			t.Errorf("R_2^4 missing %v", b)
		}
	}
}

// The region lists must agree with the RegionOf classifier for every
// block and level on trees up to height 5.
func TestRegionListsMatchClassifier(t *testing.T) {
	for h := 1; h <= 5; h++ {
		tr := New(h)
		for l := 1; l <= h; l++ {
			region := make(map[Block]int)
			for _, b := range tr.R1(l) {
				region[b] = 1
			}
			for _, b := range tr.R2(l) {
				region[b] = 2
			}
			for _, pb := range tr.R3(l) {
				region[Block{pb.I, pb.J}] = 3
			}
			for _, b := range tr.R4(l) {
				region[b] = 4
			}
			for i := 1; i <= tr.N; i++ {
				for j := 1; j <= tr.N; j++ {
					want := region[Block{i, j}]
					if got := tr.RegionOf(l, i, j); got != want {
						t.Fatalf("h=%d l=%d block (%d,%d): RegionOf = %d, lists say %d",
							h, l, i, j, got, want)
					}
				}
			}
		}
	}
}

// Lemma 5.2's intermediate counts: |R_l^4(a)| = (2(h−a)+1)·2^{h−a}
// blocks, each needing 2^{a−l} units.
func TestLemma52BlockCounts(t *testing.T) {
	for h := 2; h <= 6; h++ {
		tr := New(h)
		for l := 1; l < h; l++ {
			byA := map[int]int{}
			for _, b := range tr.R4(l) {
				a := tr.Level(b.I)
				if lj := tr.Level(b.J); lj < a {
					a = lj
				}
				byA[a]++
			}
			for a := l + 1; a <= h; a++ {
				want := (2*(h-a) + 1) * (1 << (h - a))
				if byA[a] != want {
					t.Errorf("h=%d l=%d: |R4(%d)| = %d, want %d", h, l, a, byA[a], want)
				}
			}
			// Units per block: |Q_l ∩ D(i) ∩ D(j)| = 2^{a−l}.
			for _, b := range tr.R4(l) {
				a := tr.Level(b.I)
				if lj := tr.Level(b.J); lj < a {
					a = lj
				}
				units := tr.UnitsFor(l, b.I, b.J)
				if len(units) != 1<<(a-l) {
					t.Errorf("h=%d l=%d block %v: %d units, want %d",
						h, l, b, len(units), 1<<(a-l))
				}
			}
		}
	}
}

// Lemma 5.2: the total number of computing units for R_l^4 never
// exceeds p = (2^h − 1)², so a one-to-one mapping exists.
func TestLemma52TotalUnitsAtMostP(t *testing.T) {
	for h := 1; h <= 7; h++ {
		tr := New(h)
		p := tr.N * tr.N
		for l := 1; l <= h; l++ {
			units := tr.UnitsForLevel(l)
			if len(units) > p {
				t.Errorf("h=%d l=%d: %d units > p=%d", h, l, len(units), p)
			}
		}
	}
}

// Lemma 5.3: each subset R_l^4(a,c) needs exactly 2^{h−l} units (one
// per pivot k ∈ Q_l), which is < √p, and the number of subsets is < √p.
func TestLemma53SubsetCounts(t *testing.T) {
	for h := 2; h <= 7; h++ {
		tr := New(h)
		sqrtP := tr.N
		for l := 1; l < h; l++ {
			bySubset := map[[2]int]int{}
			for _, u := range tr.UnitsForLevel(l) {
				a, c := tr.Level(u.I), tr.Level(u.J)
				bySubset[[2]int{a, c}]++
			}
			if len(bySubset) >= sqrtP {
				t.Errorf("h=%d l=%d: %d subsets ≥ √p=%d", h, l, len(bySubset), sqrtP)
			}
			for ac, cnt := range bySubset {
				if cnt != 1<<(h-l) {
					t.Errorf("h=%d l=%d subset %v: %d units, want %d", h, l, ac, cnt, 1<<(h-l))
				}
				if cnt >= sqrtP && h > 1 {
					t.Errorf("h=%d l=%d subset %v: %d units ≥ √p", h, l, ac, cnt)
				}
			}
		}
	}
}

// Lemma 5.4: the row map f is injective over subsets (a, c) and always
// lands in [1, √p].
func TestLemma54RowMapInjective(t *testing.T) {
	for h := 2; h <= 8; h++ {
		tr := New(h)
		sqrtP := tr.N
		for l := 1; l < h; l++ {
			seen := map[int][2]int{}
			for a := l + 1; a <= h; a++ {
				for c := a; c <= h; c++ {
					f := tr.Row(l, a, c)
					if f < 1 || f > sqrtP {
						t.Errorf("h=%d l=%d f(%d,%d) = %d outside [1,%d]", h, l, a, c, f, sqrtP)
					}
					if prev, dup := seen[f]; dup {
						t.Errorf("h=%d l=%d: f collision between %v and (%d,%d) at %d",
							h, l, prev, a, c, f)
					}
					seen[f] = [2]int{a, c}
				}
			}
		}
	}
}

// Corollary 5.5: the full (F, G) unit map is one-to-one into the grid.
func TestCorollary55OneToOne(t *testing.T) {
	for h := 1; h <= 7; h++ {
		tr := New(h)
		sqrtP := tr.N
		for l := 1; l <= h; l++ {
			seen := map[[2]int]Unit{}
			for _, u := range tr.UnitsForLevel(l) {
				if u.F < 1 || u.F > sqrtP || u.G < 1 || u.G > sqrtP {
					t.Errorf("h=%d l=%d unit %+v outside grid", h, l, u)
				}
				key := [2]int{u.F, u.G}
				if prev, dup := seen[key]; dup {
					t.Errorf("h=%d l=%d: units %+v and %+v share processor", h, l, prev, u)
				}
				seen[key] = u
			}
		}
	}
}

// Corollary 5.5's reduce groups — block (i, j)'s units on row
// Row(l, level(i), level(j)), one column Col(l, k) per pivot k of
// UnitsFor — partition the units of the level: every unit belongs to
// exactly one block's group, and the group's row/column coordinates
// match the unit enumeration.
func TestReduceGroupsConsistentWithUnits(t *testing.T) {
	for h := 2; h <= 6; h++ {
		tr := New(h)
		for l := 1; l < h; l++ {
			unitAt := map[[2]int]Unit{}
			for _, u := range tr.UnitsForLevel(l) {
				unitAt[[2]int{u.F, u.G}] = u
			}
			covered := map[[2]int]bool{}
			for _, b := range tr.R4Lower(l) {
				row := tr.Row(l, tr.Level(b.I), tr.Level(b.J))
				pivots := tr.UnitsFor(l, b.I, b.J)
				var cols []int
				for _, k := range pivots {
					cols = append(cols, tr.Col(l, k))
				}
				for x, g := range cols {
					u, ok := unitAt[[2]int{row, g}]
					if !ok {
						t.Fatalf("h=%d l=%d block %v: no unit at (%d,%d)", h, l, b, row, g)
					}
					if u.I != b.I || u.J != b.J || u.K != pivots[x] {
						t.Fatalf("h=%d l=%d block %v: unit %+v does not match pivot %d", h, l, b, u, pivots[x])
					}
					if covered[[2]int{row, g}] {
						t.Fatalf("h=%d l=%d: processor (%d,%d) claimed twice", h, l, row, g)
					}
					covered[[2]int{row, g}] = true
				}
				// Columns must be contiguous (binomial reduce over a run).
				for x := 1; x < len(cols); x++ {
					if cols[x] != cols[x-1]+1 {
						t.Errorf("h=%d l=%d block %v: non-contiguous columns %v", h, l, b, cols)
					}
				}
			}
			if len(covered) != len(unitAt) {
				t.Errorf("h=%d l=%d: groups cover %d of %d units", h, l, len(covered), len(unitAt))
			}
		}
	}
}

// The R4 broadcast target lists (Algorithm 1 lines 14 and 17) must hit
// exactly the unit processors that consume each panel.
func TestR4BroadcastTargets(t *testing.T) {
	for h := 2; h <= 5; h++ {
		tr := New(h)
		for l := 1; l < h; l++ {
			units := tr.UnitsForLevel(l)
			// For each unit, its column panel A(i,k) and row panel A(k,j)
			// must appear in the respective broadcast target lists.
			for _, u := range units {
				foundCol := false
				for _, v := range tr.R4BroadcastTargetsColPanel(l, u.I, u.K) {
					if v.F == u.F && v.G == u.G {
						foundCol = true
					}
				}
				if !foundCol {
					t.Errorf("h=%d l=%d: col-panel broadcast misses unit %+v", h, l, u)
				}
				foundRow := false
				for _, v := range tr.R4BroadcastTargetsRowPanel(l, u.K, u.J) {
					if v.F == u.F && v.G == u.G {
						foundRow = true
					}
				}
				if !foundRow {
					t.Errorf("h=%d l=%d: row-panel broadcast misses unit %+v", h, l, u)
				}
			}
		}
	}
}

// The paper's motivating count: at the top level (l = h) there is no
// R_h^3 or R_h^4 (the root has no ancestors), and R_h^2 spans every
// other supernode.
func TestTopLevelRegions(t *testing.T) {
	tr := New(4)
	if got := len(tr.R4(4)); got != 0 {
		t.Errorf("|R_4^4| = %d, want 0", got)
	}
	if got := len(tr.R2(4)); got != 2*(tr.N-1) {
		t.Errorf("|R_4^2| = %d, want %d", got, 2*(tr.N-1))
	}
	// R_h^3 = (related set, descendants) pairs: (N-1) descendants times
	// (N-1) non-self related rows, plus descendant×ancestor = 0.
	if got := len(tr.R3(4)); got != (tr.N-1)*(tr.N-1) {
		t.Errorf("|R_4^3| = %d, want %d", got, (tr.N-1)*(tr.N-1))
	}
}

func ExampleTree_UnitsForLevel() {
	tr := New(3)
	for _, u := range tr.UnitsForLevel(2) {
		fmt.Printf("P(%d,%d): A(%d,%d)⊗A(%d,%d)\n", u.F, u.G, u.I, u.K, u.K, u.J)
	}
	// Output:
	// P(1,1): A(7,5)⊗A(5,7)
	// P(1,2): A(7,6)⊗A(6,7)
}
