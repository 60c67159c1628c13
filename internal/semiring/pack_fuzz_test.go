package semiring

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// fuzzMatrix reinterprets the fuzzer's bytes as a rows×cols block of
// float64 bit patterns. NaNs are mapped to +Inf — min-plus weights are
// NaN-free by construction (min(x, NaN) has no useful semantics) — but
// ±Inf, negative zero, denormals and every finite pattern stay.
func fuzzMatrix(data []byte, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.V {
		if len(data) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
			data = data[8:]
			if !math.IsNaN(v) {
				m.V[i] = v
			}
		}
	}
	return m
}

// fuzzKeep derives an ascending keep-list over n indices from a
// bitmask byte stream; a zero mask byte means nil (full demand).
func fuzzKeep(mask []byte, n int) []int32 {
	if len(mask) == 0 || (len(mask) > 0 && mask[0] == 0) {
		return nil
	}
	keep := []int32{}
	for i := 0; i < n; i++ {
		b := mask[i%len(mask)]
		if b&(1<<(i%8)) != 0 {
			keep = append(keep, int32(i))
		}
	}
	return keep
}

// FuzzPackRoundTrip drives every encoder/decoder pair — Pack/Unpack,
// PackMatrix/UnpackMatrix and PackPruned/UnpackMatrix with fuzzed
// demand lists and the zero-diag flag — and checks the wire contracts:
// demanded entries round-trip bit for bit, undemanded entries decode
// to Inf or their true value, pruned payloads never beat-miss the
// classic length, and no decode aliases its payload.
func FuzzPackRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), []byte{}, true)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1), uint8(1), []byte{0}, false)
	inf := make([]byte, 8)
	binary.LittleEndian.PutUint64(inf, math.Float64bits(math.Inf(1)))
	ninf := make([]byte, 8)
	binary.LittleEndian.PutUint64(ninf, math.Float64bits(math.Inf(-1)))
	zero := make([]byte, 8)
	f.Add(append(append([]byte{}, inf...), ninf...), uint8(2), uint8(1), []byte{0xff}, true)
	// A 3x3 identity-ish block: zero diagonal, Inf elsewhere.
	var id []byte
	for i := 0; i < 9; i++ {
		if i%4 == 0 {
			id = append(id, zero...)
		} else {
			id = append(id, inf...)
		}
	}
	f.Add(id, uint8(3), uint8(3), []byte{0x0f, 0xf0}, true)
	// Pivot blocks for the triangle encoding: S = every index, S empty
	// (rows and columns kept on disjoint indices), and the cores that
	// must fall back to the rectangle (triangleSeeds).
	for _, block := range triangleSeeds() {
		f.Add(block, uint8(4), uint8(4), []byte{0xff, 0xff}, true)
		f.Add(block, uint8(4), uint8(4), []byte{0x03, 0x0c}, true)
		f.Add(block, uint8(4), uint8(4), []byte{0x07, 0x0e}, true)
	}

	f.Fuzz(func(t *testing.T, data []byte, rows, cols uint8, mask []byte, zeroDiag bool) {
		r, c := int(rows%24), int(cols%24)
		m := fuzzMatrix(data, r, c)

		// Classic encodings.
		payload := Pack(m.V)
		orig := append([]float64(nil), payload...)
		body := Unpack(payload, r*c)
		for i := range m.V {
			if math.Float64bits(body[i]) != math.Float64bits(m.V[i]) {
				t.Fatalf("Pack/Unpack differs at %d: %x vs %x", i, math.Float64bits(body[i]), math.Float64bits(m.V[i]))
			}
		}
		got := UnpackMatrix(payload, r, c)
		if !bitIdentical(m, got) {
			t.Fatal("PackMatrix/UnpackMatrix roundtrip differs")
		}
		got.Fill(-1)
		if len(body) > 0 {
			body[0] = -1
		}
		for i := range payload {
			if math.Float64bits(payload[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("decode aliased the payload (word %d)", i)
			}
		}

		// Pruned encoding under fuzzed demand.
		keepR := fuzzKeep(mask, r)
		var keepC []int32
		if len(mask) > 1 {
			keepC = fuzzKeep(mask[1:], c)
		}
		pp := PackPruned(m, keepR, keepC, zeroDiag)
		if classic := PackedLen(m.V); len(pp) > classic {
			t.Fatalf("pruned payload %d words exceeds classic %d", len(pp), classic)
		}
		pm := UnpackMatrix(pp, r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				want, dec := m.At(i, j), pm.At(i, j)
				demanded := inList(keepR, i) && inList(keepC, j)
				droppable := zeroDiag && i == j && want == 0
				switch {
				case demanded && !droppable:
					if math.Float64bits(dec) != math.Float64bits(want) {
						t.Fatalf("demanded (%d,%d): %x vs %x", i, j, math.Float64bits(dec), math.Float64bits(want))
					}
				case !math.IsInf(dec, 1):
					// Undemanded (or droppable) entries may ride along
					// inside the kept rectangle, but then only with their
					// true value.
					if math.Float64bits(dec) != math.Float64bits(want) {
						t.Fatalf("pruned (%d,%d) decoded to %x, want Inf or %x", i, j, math.Float64bits(dec), math.Float64bits(want))
					}
				}
			}
		}
	})
}

// nested returns a keep-list inside outer: outer itself when inner is
// nil (full), else the indices in both.
func nested(outer, inner []int32) []int32 {
	if inner == nil {
		return outer
	}
	if outer == nil {
		return inner
	}
	out := []int32{}
	for _, x := range inner {
		if inList(outer, int(x)) {
			out = append(out, x)
		}
	}
	return out
}

// checkRepack holds the contract a broadcast relay depends on: a block
// decoded from its pack at an outer demand and re-packed at an inner one
// (inner ⊆ outer on each axis) decodes, on the inner rectangle, to the
// entries packing the original block at the inner demand gives — bar a
// droppable zero diagonal entry, which either may carry — and is no
// longer.
func checkRepack(t *testing.T, m *Matrix, outerR, outerC, innerR, innerC []int32, zeroDiag bool) {
	t.Helper()
	direct := PackPruned(m, innerR, innerC, zeroDiag)
	held := UnpackMatrix(PackPruned(m, outerR, outerC, zeroDiag), m.Rows, m.Cols)
	relay := PackPruned(held, innerR, innerC, zeroDiag)
	if len(relay) > len(direct) {
		t.Fatalf("re-pack is %d words, packing the block itself %d", len(relay), len(direct))
	}
	want, got := UnpackMatrix(direct, m.Rows, m.Cols), UnpackMatrix(relay, m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if !inList(innerR, i) || !inList(innerC, j) || zeroDiag && i == j && m.At(i, j) == 0 {
				continue
			}
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("(%d,%d): re-pack decodes %x, direct pack %x", i, j, math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)))
			}
		}
	}
}

// TestRepackNestedDemand runs checkRepack over random blocks with Inf
// rows and columns, zero (and −0) diagonals and nested demands.
func TestRepackNestedDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	keep := func(n int) []int32 {
		if rng.Intn(4) == 0 {
			return nil
		}
		out := []int32{}
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		r, c := rng.Intn(10), rng.Intn(10)
		m := NewMatrix(r, c)
		infRow, infCol := rng.Intn(r+1), rng.Intn(c+1)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				switch {
				case i == infRow || j == infCol || rng.Intn(3) == 0:
				case i == j && rng.Intn(2) == 0:
					m.Set(i, j, math.Copysign(0, float64(rng.Intn(2)-1)))
				default:
					m.Set(i, j, float64(rng.Intn(9)))
				}
			}
		}
		outerR, outerC := keep(r), keep(c)
		checkRepack(t, m, outerR, outerC, nested(outerR, keep(r)), nested(outerC, keep(c)), rng.Intn(2) == 0)
	}
}

// FuzzRepackPruned is checkRepack over fuzzed blocks, outer demands and
// inner demands nested inside them.
func FuzzRepackPruned(f *testing.F) {
	inf := make([]byte, 8)
	binary.LittleEndian.PutUint64(inf, math.Float64bits(math.Inf(1)))
	one := make([]byte, 8)
	binary.LittleEndian.PutUint64(one, math.Float64bits(1))
	var block []byte
	for i := 0; i < 16; i++ {
		switch {
		case i%5 == 0:
			block = append(block, make([]byte, 8)...) // zero diagonal
		case i < 4 || i%4 == 3:
			block = append(block, inf...) // an Inf row and an Inf column
		default:
			block = append(block, one...)
		}
	}
	f.Add(block, uint8(4), uint8(4), []byte{0x0e, 0x0f}, []byte{0x06, 0x0b}, true)
	f.Add(block, uint8(4), uint8(4), []byte{0}, []byte{0x03, 0x05}, false)
	f.Add([]byte{}, uint8(0), uint8(3), []byte{}, []byte{0xff}, true)

	f.Fuzz(func(t *testing.T, data []byte, rows, cols uint8, outerMask, innerMask []byte, zeroDiag bool) {
		r, c := int(rows%24), int(cols%24)
		m := fuzzMatrix(data, r, c)
		var outerC, innerC []int32
		if len(outerMask) > 1 {
			outerC = fuzzKeep(outerMask[1:], c)
		}
		if len(innerMask) > 1 {
			innerC = fuzzKeep(innerMask[1:], c)
		}
		outerR := fuzzKeep(outerMask, r)
		checkRepack(t, m, outerR, outerC, nested(outerR, fuzzKeep(innerMask, r)), nested(outerC, innerC), zeroDiag)
	})
}

// FuzzUnpackMalformed throws arbitrary payloads at the decoders. The
// contract: decode cleanly or panic — a malformed payload must never
// be silently decoded into a block of the wrong shape. The recover
// turns the expected panics into passes so the fuzzer only reports
// genuinely unexpected failures (e.g. out-of-range slice arithmetic
// reaching the runtime in an uncontrolled way is still a panic, which
// is the documented policy).
func FuzzUnpackMalformed(f *testing.F) {
	f.Add([]byte{}, uint8(4), uint8(4))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0x10, 0x40}, uint8(4), uint8(4)) // [4.0] = unknown tag
	pruned := PackPruned(func() *Matrix { m := NewMatrix(4, 4); m.Fill(1); return m }(), []int32{1}, nil, false)
	var prunedBytes []byte
	for _, v := range pruned {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		prunedBytes = append(prunedBytes, b[:]...)
	}
	f.Add(prunedBytes, uint8(4), uint8(4))
	f.Add(prunedBytes[:16], uint8(4), uint8(4)) // truncated pruned header
	pivot := NewMatrix(4, 4)
	pivot.Fill(2)
	for r := 0; r < 4; r++ {
		pivot.Set(r, r, 0)
	}
	tri := triangleBytes(PackPruned(pivot, []int32{0, 1, 2}, []int32{1, 2, 3}, true))
	if tri[7] != 0x40 || tri[6] != 0x10 { // the tag, 4.0
		f.Fatal("the triangle seed is not a triangle payload")
	}
	f.Add(tri, uint8(4), uint8(4))
	f.Add(tri, uint8(4), uint8(5))              // a triangle for a block that is not square
	f.Add(tri[:len(tri)-8], uint8(4), uint8(4)) // one body word short
	swapped := append([]byte(nil), tri...)
	copy(swapped[24:32], tri[32:40]) // rows listed out of order
	copy(swapped[32:40], tri[24:32])
	f.Add(swapped, uint8(4), uint8(4))

	f.Fuzz(func(t *testing.T, data []byte, rows, cols uint8) {
		r, c := int(rows%24), int(cols%24)
		payload := make([]float64, 0, len(data)/8)
		for len(data) >= 8 {
			payload = append(payload, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
			data = data[8:]
		}
		decode := func(fn func()) {
			defer func() { _ = recover() }()
			fn()
		}
		decode(func() {
			m := UnpackMatrix(payload, r, c)
			if m.Rows != r || m.Cols != c {
				t.Fatalf("decode produced %dx%d for a %dx%d request", m.Rows, m.Cols, r, c)
			}
		})
		decode(func() {
			if v := Unpack(payload, r*c); len(v) != r*c {
				t.Fatalf("Unpack produced %d words for n=%d", len(v), r*c)
			}
		})
	})
}
