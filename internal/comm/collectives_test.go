package comm

import (
	"math"
	"reflect"
	"testing"
)

func vecMin(acc, in []float64) {
	for i := range acc {
		if in[i] < acc[i] {
			acc[i] = in[i]
		}
	}
}

func vecSum(acc, in []float64) {
	for i := range acc {
		acc[i] += in[i]
	}
}

func TestBcastDeliversToAllGroupSizes(t *testing.T) {
	for q := 1; q <= 17; q++ {
		m := NewMachine(q + 2) // group is a strict subset of ranks
		group := make([]int, q)
		for i := range group {
			group[i] = i + 1
		}
		root := group[q/3]
		err := m.Run(func(c *Ctx) {
			r := c.Rank()
			if r == 0 || r == q+1 {
				return // not in group
			}
			var payload []float64
			if r == root {
				payload = []float64{42, 43, 44}
			}
			got := c.Bcast(group, root, 5, payload)
			if len(got) != 3 || got[0] != 42 || got[2] != 44 {
				t.Errorf("q=%d rank %d: bcast got %v", q, r, got)
			}
		})
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
	}
}

// Binomial broadcast over q ranks costs O(log q) critical-path latency.
func TestBcastLatencyIsLogarithmic(t *testing.T) {
	for _, q := range []int{2, 4, 8, 16, 32, 64} {
		m := NewMachine(q)
		group := make([]int, q)
		for i := range group {
			group[i] = i
		}
		err := m.Run(func(c *Ctx) {
			c.Bcast(group, 0, 0, []float64{1})
		})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(math.Ceil(math.Log2(float64(q))))
		if got := m.CriticalPath().Latency; got != want {
			t.Errorf("q=%d: bcast latency = %d, want log2(q) = %d", q, got, want)
		}
	}
}

func TestReduceCombinesAllContributions(t *testing.T) {
	for q := 1; q <= 13; q++ {
		m := NewMachine(q)
		group := make([]int, q)
		for i := range group {
			group[i] = i
		}
		root := q - 1
		err := m.Run(func(c *Ctx) {
			data := []float64{float64(c.Rank()), 1}
			res := c.Reduce(group, root, 0, data, vecSum)
			if c.Rank() == root {
				wantSum := float64(q*(q-1)) / 2
				if res[0] != wantSum || res[1] != float64(q) {
					t.Errorf("q=%d: reduce got %v, want [%v %v]", q, res, wantSum, q)
				}
			} else if res != nil {
				t.Errorf("q=%d rank %d: non-root got non-nil reduce result", q, c.Rank())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestReduceMinMatchesSemiring(t *testing.T) {
	const q = 7
	m := NewMachine(q)
	group := []int{0, 1, 2, 3, 4, 5, 6}
	err := m.Run(func(c *Ctx) {
		data := []float64{float64(10 - c.Rank()), float64(c.Rank())}
		res := c.Reduce(group, 0, 0, data, vecMin)
		if c.Rank() == 0 {
			if res[0] != 4 || res[1] != 0 {
				t.Errorf("min-reduce got %v, want [4 0]", res)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceToExternalRoot(t *testing.T) {
	m := NewMachine(5)
	group := []int{1, 2, 3}
	const root = 4
	err := m.Run(func(c *Ctx) {
		switch c.Rank() {
		case 0:
			return
		case root:
			res := c.ReduceTo(group, root, 0, nil, vecSum)
			if res[0] != 6 {
				t.Errorf("external root got %v, want [6]", res)
			}
		default:
			c.ReduceTo(group, root, 0, []float64{float64(c.Rank())}, vecSum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceToInternalRootFallsBackToReduce(t *testing.T) {
	m := NewMachine(3)
	group := []int{0, 1, 2}
	err := m.Run(func(c *Ctx) {
		res := c.ReduceTo(group, 1, 0, []float64{1}, vecSum)
		if c.Rank() == 1 && res[0] != 3 {
			t.Errorf("internal-root ReduceTo got %v, want [3]", res)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduce(t *testing.T) {
	const q = 6
	m := NewMachine(q)
	group := []int{0, 1, 2, 3, 4, 5}
	err := m.Run(func(c *Ctx) {
		res := c.Allreduce(group, 0, []float64{float64(c.Rank())}, vecSum)
		if res[0] != 15 {
			t.Errorf("rank %d allreduce got %v, want [15]", c.Rank(), res)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherVariableLengths(t *testing.T) {
	const q = 5
	m := NewMachine(q)
	group := []int{0, 1, 2, 3, 4}
	err := m.Run(func(c *Ctx) {
		data := make([]float64, c.Rank()) // rank r contributes r words
		for i := range data {
			data[i] = float64(c.Rank()*10 + i)
		}
		parts := c.Gather(group, 2, 0, data)
		if c.Rank() == 2 {
			for p := 0; p < q; p++ {
				if len(parts[p]) != p {
					t.Errorf("part %d has len %d, want %d", p, len(parts[p]), p)
					continue
				}
				for i, v := range parts[p] {
					if v != float64(p*10+i) {
						t.Errorf("part %d[%d] = %v", p, i, v)
					}
				}
			}
		} else if parts != nil {
			t.Errorf("non-root rank %d got non-nil gather", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	const q = 4
	m := NewMachine(q)
	group := []int{0, 1, 2, 3}
	err := m.Run(func(c *Ctx) {
		parts := c.Allgather(group, 0, []float64{float64(c.Rank() * 100)})
		for p := 0; p < q; p++ {
			if len(parts[p]) != 1 || parts[p][0] != float64(p*100) {
				t.Errorf("rank %d: part %d = %v", c.Rank(), p, parts[p])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupPosPanicsForNonMember(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-member rank")
		}
	}()
	groupPos([]int{1, 2, 3}, 7)
}

// runTreeBcast runs one broadcast of a w-word payload on a fresh machine of p
// ranks and returns what every rank received (nil outside the group),
// with the machine for its Report.
func runTreeBcast(t *testing.T, p, w int, root int, group []int, bcast func(c *Ctx, payload []float64) []float64) ([][]float64, *Machine) {
	t.Helper()
	m := NewMachine(p)
	got := make([][]float64, p)
	err := m.Run(func(c *Ctx) {
		if !contains(group, c.Rank()) {
			return
		}
		var payload []float64
		if c.Rank() == root {
			payload = make([]float64, w)
			for i := range payload {
				payload[i] = float64(100*root + i)
			}
		}
		got[c.Rank()] = bcast(c, payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, m
}

func contains(list []int, x int) bool {
	for _, v := range list {
		if v == x {
			return true
		}
	}
	return false
}

// BcastTreeEach over BinomialTree's arrangement of a group is Bcast over the
// group: the same payloads and the same charged Report, for every group
// size up to 17 and every root.
func TestBcastTreeBinomialMatchesBcast(t *testing.T) {
	for q := 1; q <= 17; q++ {
		group := make([]int, q) // a scrambled strict subset of the ranks
		for i := range group {
			group[i] = (2*q-1-i+q/3)%q + 1
		}
		order, parent := BinomialTree(q)
		for rootPos, root := range group {
			tree := make([]int, q) // rotated root-first, then in receive order
			for i, rel := range order {
				tree[i] = group[(int(rel)+rootPos)%q]
			}
			w := q + 3
			want, wm := runTreeBcast(t, q+2, w, root, group, func(c *Ctx, payload []float64) []float64 {
				return c.Bcast(group, root, 5, payload)
			})
			got, gm := runTreeBcast(t, q+2, w, root, group, func(c *Ctx, payload []float64) []float64 {
				return c.BcastTreeEach(tree, parent, 5, payload, nil)
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("q=%d root %d: payloads %v, Bcast's %v", q, root, got, want)
			}
			if !reflect.DeepEqual(gm.Report(), wm.Report()) {
				t.Fatalf("q=%d root %d: report %v, Bcast's %v", q, root, gm.Report(), wm.Report())
			}
		}
	}
}

// A chain and a star charge the clocks of docs/MODEL.md's micro-examples:
// a k-hop chain is k messages and k·w words along the critical path, and
// a root sending to k children serializes its sends, so its i-th child
// receives at i messages.
func TestBcastTreeChainAndStar(t *testing.T) {
	const k, w = 6, 4
	group := []int{3, 0, 5, 1, 6, 2, 4}
	chain, star := make([]int32, k+1), make([]int32, k+1)
	for i := range chain {
		chain[i], star[i] = int32(i-1), 0
	}
	star[0] = -1
	for name, parent := range map[string][]int32{"chain": chain, "star": star} {
		m := NewMachine(k + 1)
		clocks := make([]Cost, k+1)
		err := m.Run(func(c *Ctx) {
			var payload []float64
			if c.Rank() == group[0] {
				payload = make([]float64, w)
			}
			if got := c.BcastTreeEach(group, parent, 0, payload, nil); len(got) != w {
				t.Errorf("%s: rank %d received %d words, want %d", name, c.Rank(), len(got), w)
			}
			clocks[c.Rank()] = c.Clock()
		})
		if err != nil {
			t.Fatal(err)
		}
		if cp := m.CriticalPath(); cp.Latency != k || cp.Bandwidth != k*w {
			t.Errorf("%s: critical path %+v, want %d messages and %d words", name, cp, k, k*w)
		}
		if name == "star" {
			for i := 1; i <= k; i++ {
				if got := clocks[group[i]].Latency; got != int64(i) {
					t.Errorf("star: child %d received at %d messages, want %d", i, got, i)
				}
			}
		}
	}
}

// BcastTreeEach sends every child what forward returns for it, from the
// payload the sender holds: down a chain whose k-th hop carries k words
// fewer than the root's payload, member i holds w−i words, the i-th hop
// is charged w−i words, and the critical path is the sum.
func TestBcastTreeEachForwardsPerChild(t *testing.T) {
	const k, w = 4, 9
	group := []int{2, 4, 0, 3, 1}
	chain := []int32{-1, 0, 1, 2, 3}
	m := NewMachine(k + 1)
	held := make([]int, k+1)
	err := m.Run(func(c *Ctx) {
		var payload []float64
		if c.Rank() == group[0] {
			payload = make([]float64, w)
		}
		got := c.BcastTreeEach(group, chain, 0, payload, func(child int, held []float64) []float64 {
			if len(held) != w-child+1 {
				t.Errorf("forward to position %d from a member holding %d words", child, len(held))
			}
			return held[:w-child]
		})
		held[groupPos(group, c.Rank())] = len(got)
	})
	if err != nil {
		t.Fatal(err)
	}
	words := 0
	for i := range held {
		if held[i] != w-i {
			t.Errorf("position %d holds %d words, want %d", i, held[i], w-i)
		}
		words += w - i
	}
	if cp := m.CriticalPath(); cp.Latency != k || cp.Bandwidth != int64(words-w) {
		t.Errorf("critical path %+v, want %d messages and %d words", cp, k, words-w)
	}
}

// A parent that is not an earlier position panics (and fails the run)
// instead of deadlocking.
func TestBcastTreeRejectsLaterParent(t *testing.T) {
	m := NewMachine(3)
	err := m.Run(func(c *Ctx) {
		c.BcastTreeEach([]int{0, 1, 2}, []int32{-1, 2, 0}, 0, []float64{1}, nil)
	})
	if err == nil {
		t.Fatal("a parent at a later position ran without error")
	}
}
