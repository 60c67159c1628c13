package semiring

import (
	"math"
	"math/rand"
	"testing"
)

// demandLists builds ascending keep-lists by dropping each index with
// the given probability; nil (the `full` descriptor) when drop == 0.
func demandLists(n int, drop float64, rng *rand.Rand) []int32 {
	if drop == 0 {
		return nil
	}
	var keep []int32
	for i := 0; i < n; i++ {
		if rng.Float64() >= drop {
			keep = append(keep, int32(i))
		}
	}
	if keep == nil {
		keep = []int32{} // empty demand is distinct from nil (full)
	}
	return keep
}

// inList reports whether i is demanded under a keep-list (nil = all).
func inList(list []int32, i int) bool {
	if list == nil {
		return true
	}
	for _, v := range list {
		if int(v) == i {
			return true
		}
	}
	return false
}

// TestPackPrunedRoundtrip is the pruned encoding's value contract:
// inside the demanded rectangle every entry round-trips bit for bit;
// outside it everything decodes to Inf; with full demand the round
// trip is total; and the payload never exceeds the classic Pack
// length for the same block.
func TestPackPrunedRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		m := randKernelMatrix(rng.Intn(16), rng.Intn(16), rng.Float64(), rng)
		drop := []float64{0, 0.3, 0.7, 1}[rng.Intn(4)]
		rows := demandLists(m.Rows, drop, rng)
		cols := demandLists(m.Cols, drop, rng)
		payload := PackPruned(m, rows, cols, false)
		if classic := PackedLen(m.V); len(payload) > classic {
			t.Fatalf("trial %d: pruned payload %d words exceeds classic %d", trial, len(payload), classic)
		}
		got := UnpackMatrix(payload, m.Rows, m.Cols)
		for r := 0; r < m.Rows; r++ {
			for c := 0; c < m.Cols; c++ {
				if inList(rows, r) && inList(cols, c) {
					if math.Float64bits(got.At(r, c)) != math.Float64bits(m.At(r, c)) {
						t.Fatalf("trial %d: demanded (%d,%d) = %g, want %g", trial, r, c, got.At(r, c), m.At(r, c))
					}
				} else if !math.IsInf(got.At(r, c), 1) && !math.IsInf(m.At(r, c), 1) {
					// A pruned entry may still ride inside the kept
					// rectangle (then it round-trips) — but if it decodes
					// finite it must be the true value.
					if math.Float64bits(got.At(r, c)) != math.Float64bits(m.At(r, c)) {
						t.Fatalf("trial %d: pruned (%d,%d) decoded to %g, not Inf or %g", trial, r, c, got.At(r, c), m.At(r, c))
					}
				}
			}
		}
	}
}

// TestPackPrunedChoosesPrunedEncoding pins the case the format exists
// for: a block whose demanded rectangle is much smaller than its
// numeric support must ship as packPruned and beat the classic
// encodings.
func TestPackPrunedChoosesPrunedEncoding(t *testing.T) {
	m := NewMatrix(20, 20)
	m.Fill(1) // dense body: classic = 1 + 400, sparse never chosen
	rows := []int32{3, 7}
	payload := PackPruned(m, rows, nil, false)
	want := 3 + 2 + 20 + 2*20 // tag+dims, row list, col list, body
	if payload[0] != packPruned || len(payload) != want {
		t.Fatalf("payload tag %g, %d words, want tag %d, %d words", payload[0], len(payload), packPruned, want)
	}
	got := UnpackMatrix(payload, 20, 20)
	for r := 0; r < 20; r++ {
		for c := 0; c < 20; c++ {
			want := Inf
			if r == 3 || r == 7 {
				want = 1
			}
			if got.At(r, c) != want {
				t.Fatalf("(%d,%d) = %g, want %g", r, c, got.At(r, c), want)
			}
		}
	}
	// Empty demand on either axis collapses to the 1-word empty marker.
	if p := PackPruned(m, []int32{}, nil, false); len(p) != 1 || p[0] != packEmpty {
		t.Fatalf("empty row demand: %v, want [%d]", p, packEmpty)
	}
	// When the classic encoding is at least as small, it wins: a sparse
	// block under full demand ships exactly as Pack would.
	s := NewMatrix(20, 20)
	s.Set(4, 9, 2.5)
	if p := PackPruned(s, nil, nil, false); len(p) != len(Pack(s.V)) || p[0] != packSparse {
		t.Fatalf("sparse block: %d words tag %g, want the classic sparse encoding", len(p), p[0])
	}
}

// TestPackPrunedZeroDiag pins the pivot-payload rule: with
// dropZeroDiag, exact-zero diagonal entries stop counting toward the
// keep decision — an identity block (zero diagonal, Inf elsewhere)
// ships as the 1-word empty marker — while nonzero or off-diagonal
// entries always survive.
func TestPackPrunedZeroDiag(t *testing.T) {
	id := NewMatrix(12, 12)
	for i := 0; i < 12; i++ {
		id.Set(i, i, 0)
	}
	if p := PackPruned(id, nil, nil, true); len(p) != 1 || p[0] != packEmpty {
		t.Fatalf("identity pivot: %d words tag %g, want the empty marker", len(p), p[0])
	}
	// Same block without the flag keeps every row.
	if p := PackPruned(id, nil, nil, false); len(p) != len(Pack(id.V)) {
		t.Fatalf("identity without flag: %d words, want classic %d", len(p), len(Pack(id.V)))
	}
	// A nonzero diagonal entry is a real path weight and must ship.
	nz := NewMatrix(12, 12)
	for i := 0; i < 12; i++ {
		nz.Set(i, i, 0)
	}
	nz.Set(5, 5, -2)
	got := UnpackMatrix(PackPruned(nz, nil, nil, true), 12, 12)
	if got.At(5, 5) != -2 {
		t.Fatalf("nonzero diagonal decoded to %g, want -2", got.At(5, 5))
	}
	// An off-diagonal zero is likewise untouchable.
	off := NewMatrix(12, 12)
	off.Set(2, 9, 0)
	got = UnpackMatrix(PackPruned(off, nil, nil, true), 12, 12)
	if got.At(2, 9) != 0 {
		t.Fatalf("off-diagonal zero decoded to %g, want 0", got.At(2, 9))
	}
}

// TestUnpackNeverAliasesPayload is the regression test for the dense
// decode aliasing hazard: the simulated collectives hand every
// receiver the same payload backing array, so a decode that aliased it
// would let one receiver's block mutation corrupt its siblings.
// Mutating the decoded body must leave the payload untouched, for
// every encoding.
func TestUnpackNeverAliasesPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		m := randKernelMatrix(4, 5, []float64{0, 0.5, 1}[rng.Intn(3)], rng)
		for _, payload := range [][]float64{
			PackMatrix(m),
			PackPruned(m, []int32{0, 2}, nil, false),
		} {
			orig := append([]float64(nil), payload...)
			got := UnpackMatrix(payload, 4, 5)
			got.Fill(-99)
			for i := range payload {
				if math.Float64bits(payload[i]) != math.Float64bits(orig[i]) {
					t.Fatalf("trial %d: payload word %d corrupted by decoded-block mutation", trial, i)
				}
			}
		}
	}
	// The packDense arm is the historical hazard: hit it explicitly.
	dense := NewMatrix(3, 3)
	dense.Fill(7)
	payload := PackMatrix(dense)
	if payload[0] != packDense {
		t.Fatalf("expected a dense payload, got tag %g", payload[0])
	}
	body := Unpack(payload, 9)
	body[0] = -1
	if payload[1] != 7 {
		t.Fatal("Unpack aliased the dense payload body")
	}
	m := UnpackMatrix(payload, 3, 3)
	m.Set(0, 0, -1)
	if payload[1] != 7 {
		t.Fatal("UnpackMatrix aliased the dense payload body")
	}
}

// TestUnpackPrunedRejectsMalformed extends Unpack's panic policy to
// the pruned layout: truncated headers, wrong body lengths and
// out-of-range indices all panic instead of decoding garbage.
func TestUnpackPrunedRejectsMalformed(t *testing.T) {
	for _, bad := range [][]float64{
		{packPruned},                         // no dims
		{packPruned, 1},                      // truncated header
		{packPruned, 1, 1, 0},                // missing body
		{packPruned, 1, 1, 0, 0, 1, 9},       // trailing words
		{packPruned, 1, 1, 7, 0, 1},          // row index out of range for 4x4
		{packPruned, 1, 1, 0, 7, 1},          // col index out of range
		{packPruned, -1, 2, 0},               // negative dims
		{packPruned, 2, 1, 0, 1, 0, 1, 2, 3}, // body longer than nr*nc
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("UnpackMatrix(%v, 4, 4): expected panic", bad)
				}
			}()
			UnpackMatrix(bad, 4, 4)
		}()
	}
	// Unpack (body-only API) cannot decode a pruned payload at all.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Unpack of a pruned payload: expected panic")
			}
		}()
		Unpack([]float64{packPruned, 1, 1, 0, 0, 5}, 16)
	}()
}
