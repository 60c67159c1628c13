package comm

import "fmt"

// Phase marks let an algorithm attribute costs to its phases (the
// sparse solver marks each eTree level, reproducing the per-level
// L_l / B_l decomposition of Lemmas 5.6, 5.8 and 5.9).
//
// Every rank must record the same sequence of mark ids. The cost of a
// phase is the maximum over ranks of the rank's clock advance during
// the phase. Because clocks max-merge across messages, a phase's cost
// can include waiting inherited from an earlier phase; the sum over
// phases therefore upper-bounds (and in practice closely tracks) the
// end-to-end critical path.

type markEntry struct {
	id    string
	clock Cost
}

// Mark records a phase boundary labelled id on this rank.
func (c *Ctx) Mark(id string) {
	st := c.state()
	st.marks = append(st.marks, markEntry{id: id, clock: st.clock})
}

// PhaseCost is the aggregated cost of one phase across all ranks.
type PhaseCost struct {
	ID string
	// Critical is the phase's contribution to the end-to-end critical
	// path: the component-wise difference between the global maximum
	// clock at the phase's end and at its start. Critical values sum
	// exactly to the run's CriticalPath, so this is the per-level
	// L_l / B_l decomposition of the paper's Lemmas 5.6/5.8/5.9.
	Critical Cost
	// MaxAdvance is the maximum per-rank clock advance during the
	// phase. It can exceed Critical when a rank inherits earlier
	// phases' waiting through a received message.
	MaxAdvance Cost
}

// PhaseCosts aggregates the marks of a finished run (Phases). It
// returns an error if ranks recorded diverging mark sequences.
func (m *Machine) PhaseCosts() ([]PhaseCost, error) {
	ref := m.states[0].marks
	ids := make([]string, len(ref))
	clocks := make([][]Cost, len(ref))
	for i := range ref {
		ids[i], clocks[i] = ref[i].id, make([]Cost, m.p)
	}
	for r := 0; r < m.p; r++ {
		marks := m.states[r].marks
		if len(marks) != len(ref) {
			return nil, fmt.Errorf("comm: rank %d recorded %d marks, rank 0 recorded %d", r, len(marks), len(ref))
		}
		for i := range marks {
			if marks[i].id != ref[i].id {
				return nil, fmt.Errorf("comm: rank %d mark %d is %q, rank 0 has %q", r, i, marks[i].id, ref[i].id)
			}
			clocks[i][r] = marks[i].clock
		}
	}
	return Phases(ids, clocks), nil
}

// Phases aggregates phase marks every rank recorded in the same
// sequence: ids[k] labels the k-th mark and clocks[k][r] is rank r's
// clock at it. The k-th phase spans from the (k−1)-th mark (or the
// start) to the k-th.
func Phases(ids []string, clocks [][]Cost) []PhaseCost {
	out := make([]PhaseCost, len(ids))
	var prevGlobal Cost
	for k, at := range clocks {
		var global Cost
		for r, c := range at {
			var prev Cost
			if k > 0 {
				prev = clocks[k-1][r]
			}
			out[k].MaxAdvance.maxInPlace(c.minus(prev))
			global.maxInPlace(c)
		}
		out[k].ID, out[k].Critical = ids[k], global.minus(prevGlobal)
		prevGlobal = global
	}
	return out
}
