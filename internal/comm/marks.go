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
func (c *Ctx) Mark(id string) { c.machine.led.Mark(c.rank, id) }

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

// PhaseCosts aggregates the marks of a finished run. The k-th phase
// spans from the (k−1)-th mark (or the start) to the k-th mark. It
// returns an error if ranks recorded diverging mark sequences.
func (m *Machine) PhaseCosts() ([]PhaseCost, error) { return m.led.PhaseCosts() }

// PhaseCosts aggregates the recorded marks, as Machine.PhaseCosts.
func (r *Replay) PhaseCosts() ([]PhaseCost, error) {
	p, states := r.p, r.states
	if p == 0 {
		return nil, nil
	}
	ref := states[0].marks
	for r := 1; r < p; r++ {
		marks := states[r].marks
		if len(marks) != len(ref) {
			return nil, fmt.Errorf("comm: rank %d recorded %d marks, rank 0 recorded %d", r, len(marks), len(ref))
		}
		for i := range marks {
			if marks[i].id != ref[i].id {
				return nil, fmt.Errorf("comm: rank %d mark %d is %q, rank 0 has %q", r, i, marks[i].id, ref[i].id)
			}
		}
	}
	out := make([]PhaseCost, len(ref))
	for i := range ref {
		out[i].ID = ref[i].id
	}
	// Per-rank advances.
	for r := 0; r < p; r++ {
		prev := Cost{}
		for i, mk := range states[r].marks {
			delta := Cost{
				Latency:   mk.clock.Latency - prev.Latency,
				Bandwidth: mk.clock.Bandwidth - prev.Bandwidth,
				Flops:     mk.clock.Flops - prev.Flops,
			}
			out[i].MaxAdvance.maxInPlace(delta)
			prev = mk.clock
		}
	}
	// Global-max boundary deltas.
	prevGlobal := Cost{}
	for i := range ref {
		var global Cost
		for r := 0; r < p; r++ {
			global.maxInPlace(states[r].marks[i].clock)
		}
		out[i].Critical = Cost{
			Latency:   global.Latency - prevGlobal.Latency,
			Bandwidth: global.Bandwidth - prevGlobal.Bandwidth,
			Flops:     global.Flops - prevGlobal.Flops,
		}
		prevGlobal = global
	}
	return out, nil
}
