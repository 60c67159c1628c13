package apsp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sparseapsp/internal/semiring"
)

// TestSymmetricPayloadsAtSend checks, at the moment of each send, the
// premise the pruned wire ships symmetric entries once on: every block is
// its mirror's transpose bit for bit. TestR3SinkComputedOnce checks it on
// the final blocks alone. Here the machine reference runs every pruned
// plan of the structural grid — the placement families on integer and
// real weights, p ∈ {9, 49, 225}, both R4 strategies — and the test
// requires that
//
//   - every R2 pivot D(k,k) its root sends, and every unit a member sends
//     into a diagonal block's reduce, is bit-symmetric — so the triangle
//     encodings (semiring.TriangleLen, PackUpper) lose nothing;
//   - every payload a mirror holder sends decodes, on the receiver's
//     demand rectangle, to what the broadcast's root would have packed
//     for that edge from its own block, bit for bit.
func TestSymmetricPayloadsAtSend(t *testing.T) {
	if testing.Short() {
		t.Skip("the machine reference over the sweep shapes; run without -short")
	}
	served := 0
	for _, f := range placeFamilies {
		for _, wt := range placeWeights {
			g := f.make(wt.w(rand.New(rand.NewSource(5))), rand.New(rand.NewSource(3)))
			for _, p := range []int{9, 49, 225} {
				ly := testLayout(t, g, p)
				for _, r4 := range []R4Strategy{R4Mapped, R4Sequential} {
					name := fmt.Sprintf("%s/%s/p=%d/r4=%d", f.name, wt.name, p, r4)
					served += checkSends(t, name, buildTestPlanAt(t, ly, p, WirePruned, r4), ly)
				}
			}
		}
	}
	if served == 0 {
		t.Error("no plan has a mirror holder send: the test checks nothing")
	}
}

// checkSends runs pl on the machine reference over ly's weights, checks
// what it sends as TestSymmetricPayloadsAtSend says, and returns the
// number of holder sends it compared.
func checkSends(t *testing.T, name string, pl *Plan, ly *Layout) int {
	t.Helper()
	var mu sync.Mutex
	roots := make(map[*Op]*semiring.Matrix)
	var held []sentFrom
	machineProbe = func(s sentFrom) {
		mu.Lock()
		defer mu.Unlock()
		op := s.op
		switch {
		case s.child >= 0:
			held = append(held, s)
		case op.Kind == opReduce:
			if pl.upperReduce(op) && !bitSymmetric(s.block) {
				t.Errorf("%s: rank %d sends an asymmetric unit into the reduce of (%d,%d)", name, s.rank, op.BI, op.BJ)
			}
		default:
			roots[op] = s.block
			if (op.Kind == opR2Left || op.Kind == opR2Right) && !bitSymmetric(s.block) {
				t.Errorf("%s: the R2 pivot D(%d,%d) is not bit-symmetric when sent", name, op.BI, op.BI)
			}
		}
	}
	defer func() { machineProbe = nil }()
	if _, err := pl.runMachine(ly.Blocks()); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sizes := pl.ND.Sizes
	for _, s := range held {
		op := s.op
		rows, cols := sizes[op.BI], sizes[op.BJ]
		want := pl.unpack(pl.pack(roots[op], op.prune(s.child)), rows, cols)
		spec := op.prune(s.child)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if spec != nil && (spec.Rows != nil && !inList32(spec.Rows, r) || spec.Cols != nil && !inList32(spec.Cols, c)) {
					continue
				}
				if math.Float64bits(s.block.At(r, c)) != math.Float64bits(want.At(r, c)) {
					t.Fatalf("%s: mirror holder %d sends position %d of the %s broadcast of (%d,%d) %v at (%d,%d), its root %v",
						name, s.rank, s.child, dfKindNames[op.Kind], op.BI, op.BJ, s.block.At(r, c), r, c, want.At(r, c))
				}
			}
		}
	}
	return len(held)
}

// bitSymmetric reports whether the square block m equals its transpose
// bit for bit.
func bitSymmetric(m *semiring.Matrix) bool {
	for r := 0; r < m.Rows; r++ {
		for c := r + 1; c < m.Cols; c++ {
			if math.Float64bits(m.At(r, c)) != math.Float64bits(m.At(c, r)) {
				return false
			}
		}
	}
	return true
}

// inList32 reports whether the ascending list holds x.
func inList32(list []int32, x int) bool {
	for _, v := range list {
		if int(v) == x {
			return true
		}
	}
	return false
}
