package etree

import (
	"reflect"
	"sort"
	"testing"
)

// AllPivots unions PivotsAt over every level: the complete pivot set
// the schedule applies to block (i, j).
func (t *Tree) AllPivots(i, j int) []int {
	var out []int
	for l := 1; l <= t.H; l++ {
		out = append(out, t.PivotsAt(l, i, j)...)
	}
	return out
}

// Equation (1) / Lemma 6.3: over the whole elimination, block (i, j)
// must be updated through exactly the pivots
// S_ij = (i ∪ 𝒜(i) ∪ 𝒟(i)) ∩ (j ∪ 𝒜(j) ∪ 𝒟(j)) — never a cousin of
// either index, never a missing related pivot, and each pivot exactly
// once. This is the semantic check that the four-region schedule
// computes the same updates as SuperFW's restricted Floyd–Warshall.
func TestEquation1PivotCoverage(t *testing.T) {
	for h := 1; h <= 6; h++ {
		tr := New(h)
		for i := 1; i <= tr.N; i++ {
			ri := tr.RelatedSet(i)
			for j := 1; j <= tr.N; j++ {
				rj := tr.RelatedSet(j)
				want := intersect(ri, rj)
				got := tr.AllPivots(i, j)
				sort.Ints(got)
				if !tr.Related(i, j) {
					// Cousin blocks are updated only through common
					// ancestors.
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("h=%d cousin block (%d,%d): pivots %v, want %v", h, i, j, got, want)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("h=%d block (%d,%d): pivots %v, want %v", h, i, j, got, want)
				}
			}
		}
	}
}

// Each pivot is applied at exactly one level (no duplicates): a pivot
// applied twice would double-relax, which is harmless for min-plus but
// would break the cost analysis.
func TestPivotsAppliedOnce(t *testing.T) {
	for h := 1; h <= 6; h++ {
		tr := New(h)
		for i := 1; i <= tr.N; i++ {
			for j := 1; j <= tr.N; j++ {
				seen := map[int]int{}
				for l := 1; l <= h; l++ {
					for _, k := range tr.PivotsAt(l, i, j) {
						seen[k]++
						if tr.Level(k) != l {
							t.Fatalf("h=%d block (%d,%d): pivot %d applied at level %d, lives at %d",
								h, i, j, k, l, tr.Level(k))
						}
					}
				}
				for k, c := range seen {
					if c != 1 {
						t.Fatalf("h=%d block (%d,%d): pivot %d applied %d times", h, i, j, k, c)
					}
				}
			}
		}
	}
}

func intersect(a, b []int) []int {
	inB := map[int]bool{}
	for _, x := range b {
		inB[x] = true
	}
	var out []int
	for _, x := range a {
		if inB[x] {
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}
