package comm

import (
	"strings"
	"testing"
)

// TestManyRankCollectivesDenseTags stresses the fused collectives on a
// 32-rank machine with the densest caller tag sequence the contract
// allows: consecutive integers, one per collective, exactly how the
// distributed partitioner hands out tags. The hidden second phase of
// Allreduce/Allgather runs on ^tag, so adjacent caller tags
// must never interfere no matter how the ranks' entries stagger.
func TestManyRankCollectivesDenseTags(t *testing.T) {
	const q = 32
	const rounds = 8
	m := NewMachine(q)
	group := make([]int, q)
	for i := range group {
		group[i] = i
	}
	wantSum := float64(q*(q-1)) / 2
	err := m.Run(func(c *Ctx) {
		tag := 0
		next := func() int { tag++; return tag - 1 }
		for r := 0; r < rounds; r++ {
			// Stagger entry: rank pairs ping-pong a varying number of
			// point-to-point messages before each round, so ranks reach
			// the collectives at genuinely different times and p2p
			// traffic on a high tag coexists with the collective tags.
			partner := c.Rank() ^ 1
			for i := 0; i < (c.Rank()/2)%5; i++ {
				if c.Rank()%2 == 0 {
					c.Send(partner, 1<<20, []float64{0})
					c.Recv(partner, 1<<20)
				} else {
					c.Send(partner, 1<<20, c.Recv(partner, 1<<20))
				}
			}
			parts := c.Allgather(group, next(), []float64{float64(c.Rank()*rounds + r)})
			for p := range parts {
				if len(parts[p]) != 1 || parts[p][0] != float64(p*rounds+r) {
					t.Errorf("round %d rank %d: allgather part %d = %v", r, c.Rank(), p, parts[p])
				}
			}
			res := c.Allreduce(group, next(), []float64{float64(c.Rank())}, vecSum)
			if res[0] != wantSum {
				t.Errorf("round %d rank %d: allreduce = %v, want %v", r, c.Rank(), res[0], wantSum)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreducePhaseTagIsReservedNotAdjacent pins the exact failure the
// reserved tag space prevents: a caller legitimately uses tag+1 for its
// own point-to-point message, sent before the collective. If the
// Allreduce broadcast phase ran on tag+1, the slow member's hidden
// receive from the root would match the earlier point-to-point payload
// and the collective would silently return garbage. With the ^tag
// scheme the message waits untouched until the explicit Recv.
func TestAllreducePhaseTagIsReservedNotAdjacent(t *testing.T) {
	const q = 4
	const tag = 10
	m := NewMachine(q)
	group := []int{0, 1, 2, 3}
	err := m.Run(func(c *Ctx) {
		if c.Rank() == 0 {
			// Root of both the reduce and the hidden broadcast tree.
			for _, dst := range []int{1, 2, 3} {
				c.Send(dst, tag+1, []float64{999})
			}
		}
		res := c.Allreduce(group, tag, []float64{1}, vecSum)
		if res[0] != q {
			t.Errorf("rank %d: allreduce = %v, want %d", c.Rank(), res[0], q)
		}
		if c.Rank() != 0 {
			if got := c.Recv(0, tag+1); got[0] != 999 {
				t.Errorf("rank %d: p2p payload = %v, want 999", c.Rank(), got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllgatherResultsAreCallerOwned locks in the copy-out fix: the
// broadcast phase hands every member the same backing array, so before
// the fix one rank writing to its result slices corrupted every other
// rank's view (and raced). Now each returned slice is freshly
// allocated.
func TestAllgatherResultsAreCallerOwned(t *testing.T) {
	const q = 8
	m := NewMachine(q)
	group := make([]int, q)
	for i := range group {
		group[i] = i
	}
	err := m.Run(func(c *Ctx) {
		parts := c.Allgather(group, 0, []float64{float64(100 + c.Rank())})
		// Rank 0 clobbers everything it received...
		if c.Rank() == 0 {
			for p := range parts {
				parts[p][0] = -1
			}
		}
		c.Allreduce(group, 1, nil, func(acc, in []float64) {}) // a barrier
		// ...and every other rank must still see the pristine values.
		if c.Rank() != 0 {
			for p := range parts {
				if parts[p][0] != float64(100+p) {
					t.Errorf("rank %d: part %d = %v after rank 0's writes, want %d",
						c.Rank(), p, parts[p][0], 100+p)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGatherResultsAreCallerOwned: the root's slices must not share a
// backing array with each other (a write through one part must never
// reach a neighboring part, which subslicing one bundle cannot
// guarantee against appends or sloppy callers).
func TestGatherResultsAreCallerOwned(t *testing.T) {
	const q = 6
	m := NewMachine(q)
	group := make([]int, q)
	for i := range group {
		group[i] = i
	}
	err := m.Run(func(c *Ctx) {
		data := []float64{float64(c.Rank()), float64(c.Rank())}
		parts := c.Gather(group, 0, 0, data)
		if c.Rank() != 0 {
			return
		}
		for p := range parts {
			grown := append(parts[p], -7) // must not spill into part p+1
			_ = grown
		}
		for p := range parts {
			if parts[p][0] != float64(p) || parts[p][1] != float64(p) {
				t.Errorf("part %d = %v, want [%d %d]", p, parts[p], p, p)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectivesRejectReservedTags: the negative tag space belongs to
// the implementation, so handing a negative tag to any public
// collective is an immediate, descriptive panic instead of a silent
// collision with some fused collective's hidden phase.
func TestCollectivesRejectReservedTags(t *testing.T) {
	calls := []struct {
		name string
		call func(c *Ctx)
	}{
		{"Bcast", func(c *Ctx) { c.Bcast([]int{0}, 0, -1, []float64{1}) }},
		{"Reduce", func(c *Ctx) { c.Reduce([]int{0}, 0, -1, []float64{1}, vecSum) }},
		{"ReduceTo", func(c *Ctx) { c.ReduceTo([]int{0}, 0, -1, []float64{1}, vecSum) }},
		{"Allreduce", func(c *Ctx) { c.Allreduce([]int{0}, -1, []float64{1}, vecSum) }},
		{"Gather", func(c *Ctx) { c.Gather([]int{0}, 0, -1, []float64{1}) }},
		{"Allgather", func(c *Ctx) { c.Allgather([]int{0}, -1, []float64{1}) }},
	}
	for _, tc := range calls {
		m := NewMachine(1)
		err := m.Run(func(c *Ctx) { tc.call(c) })
		if err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Errorf("%s with tag -1: err = %v, want reserved-tag panic", tc.name, err)
		}
	}
}

// TestAllgatherSubsetGroupsConcurrently runs disjoint-group collectives
// with identical tags at the same time — legal because no rank pair
// appears in both — on top of the reserved-phase scheme.
func TestAllgatherSubsetGroupsConcurrently(t *testing.T) {
	const q = 16
	m := NewMachine(q)
	err := m.Run(func(c *Ctx) {
		half := c.Rank() / (q / 2)
		group := make([]int, q/2)
		for i := range group {
			group[i] = half*(q/2) + i
		}
		for round := 0; round < 4; round++ {
			parts := c.Allgather(group, round, []float64{float64(c.Rank())})
			for i, g := range group {
				if parts[i][0] != float64(g) {
					t.Errorf("rank %d round %d: part %d = %v, want %d", c.Rank(), round, i, parts[i], g)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
