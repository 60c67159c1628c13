package etree

// PivotsAt lists the pivot supernodes that the elimination of level l
// applies to block (i, j) — the per-level slice of Equation (1):
// pivots k ∈ (i ∪ 𝒜(i) ∪ 𝒟(i)) ∩ (j ∪ 𝒜(j) ∪ 𝒟(j)) ∩ Q_l, realized by
// the four regions as
//
//	R_l^1: the block's own supernode (the ClassicalFW diagonal update);
//	R_l^2: the level-l index of the panel (the A(k,k) panel update);
//	R_l^3: the unique related level-l pivot;
//	R_l^4: Q_l ∩ 𝒟(lower(i,j)), one pivot per computing unit.
//
// Union over all levels equals S_ij of Lemma 6.3 restricted to
// supernodes (see TestEquation1PivotCoverage), which is the semantic
// correctness of the whole schedule.
func (t *Tree) PivotsAt(l, i, j int) []int {
	switch t.RegionOf(l, i, j) {
	case 1:
		return []int{i}
	case 2:
		if t.Level(i) == l {
			return []int{i}
		}
		return []int{j}
	case 3:
		lower := i
		if t.Level(j) < t.Level(lower) {
			lower = j
		}
		return []int{t.AncestorAtLevel(lower, l)}
	case 4:
		return t.UnitsFor(l, i, j)
	default:
		return nil
	}
}
