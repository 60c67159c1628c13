package semiring

import (
	"math/rand"
	"testing"
)

// TestPanelUpdateMultiScratch pins the fused panel chain's contract:
// applying a chain of left/right panel updates through
// PanelUpdateMultiScratch is bit-identical to the equivalent
// sequence of single PanelUpdateLeft/RightScratch calls, with the same
// per-step operation counts, and the hooks fire in step order around
// each multiply.
func TestPanelUpdateMultiScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(24) + 1
		chain := rng.Intn(5) + 1
		p1 := randKernelMatrix(n, n, 0.4, rng)
		p2 := p1.Clone()
		steps := make([]PanelStep, chain)
		for i := range steps {
			steps[i] = PanelStep{D: randKernelMatrix(n, n, 0.4, rng), Right: rng.Intn(2) == 0}
		}

		// Reference: the unfused sequence.
		refArena := NewArena(n * n)
		refOps := make([]int64, chain)
		for i, s := range steps {
			if s.Right {
				refOps[i] = PanelUpdateRightScratch(p1, s.D, refArena)
			} else {
				refOps[i] = PanelUpdateLeftScratch(p1, s.D, refArena)
			}
		}

		// Fused: one chain call, hooks recording their firing order.
		var events []int
		arena := NewArena(n * n)
		var total int64
		got := PanelUpdateMultiScratch(p2, steps, arena,
			func(i int) { events = append(events, i) },
			func(i int, ops int64) {
				if ops != refOps[i] {
					t.Fatalf("chain %d step %d: ops %d, unfused %d", chain, i, ops, refOps[i])
				}
				total += ops
			})

		if !bitIdentical(p1, p2) {
			t.Fatalf("chain %d: fused result differs from unfused sequence", chain)
		}
		if got != total {
			t.Fatalf("returned total %d, hook sum %d", got, total)
		}
		if len(events) != chain {
			t.Fatalf("before hook fired %d times, want %d", len(events), chain)
		}
		for i, e := range events {
			if e != i {
				t.Fatalf("before hook order %v", events)
			}
		}
	}
	// Nil hooks must be accepted (the executor passes them when it has
	// nothing to interleave).
	p := randKernelMatrix(8, 8, 0.3, rng)
	d := randKernelMatrix(8, 8, 0.3, rng)
	PanelUpdateMultiScratch(p, []PanelStep{{D: d}}, NewArena(64), nil, nil)
}
