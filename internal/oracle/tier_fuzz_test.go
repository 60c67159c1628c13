package oracle

import (
	"encoding/binary"
	"math"
	"testing"

	"sparseapsp/internal/semiring"
)

// FuzzDecompressMalformed mutates valid compressed-tier blobs (one per
// representation kind and layout) and arbitrary junk, requiring the decoder to
// return an error or a well-formed square matrix — never panic. Like
// the plan codec (and unlike the semiring pack codec's
// decode-or-panic), tier blobs outlive the solve that produced them, so
// the decoder must fail closed. No recover() here — a panic fails.
func FuzzDecompressMalformed(f *testing.F) {
	inf := semiring.Inf
	seed := func(vals []float64, n int) {
		f.Add(CompressDist(semiring.FromSlice(n, n, vals)))
	}
	seed([]float64{0, 3, 7, inf}, 2)                          // u4, square (d01 != d10)
	seed([]float64{0, 3, 255, inf}, 2)                        // u9, square
	seed([]float64{0, 70000, 1e9, inf}, 2)                    // u30: entries straddle words
	seed([]float64{0, 1.5, 2.5, inf}, 2)                      // f32
	seed([]float64{0, 0.1, 0.3, inf}, 2)                      // f64
	seed([]float64{0, 0.25, 1.5, inf, 0.5, 0, 2, 0, 0}, 3)    // u4, scale 0.25
	seed([]float64{0, 3, inf, 3, 0, 7, inf, 7, 0}, 3)         // u4, triangle
	seed([]float64{0, 3, inf, 3, 0, 700, inf, 700, 0}, 3)     // u10, triangle
	seed([]float64{0, 70000, 70000, 0}, 2)                    // u17, triangle
	seed([]float64{0, 1.5, 2.5, 1.5, 0, inf, 2.5, inf, 0}, 3) // f32, triangle
	seed([]float64{0, 0.1, 0.3, 0.1, 0, 0.7, 0.3, 0.7, 0}, 3) // f64, triangle
	f.Add([]byte{})
	f.Add([]byte(tierMagic))
	f.Add(append([]byte("SAPSPT03"), CompressDist(semiring.FromSlice(1, 1, []float64{0}))[8:]...)) // the retired format
	f.Add([]byte("definitely not a compressed distance blob, but long enough"))
	seed([]float64{0, 1<<32 - 2, 1<<32 - 2, 0}, 2) // u32, the widest

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecompressDist(data)
		if err != nil {
			return
		}
		if m == nil || m.Rows != m.Cols || len(m.V) != m.Rows*m.Cols {
			t.Fatalf("accepted blob decoded to malformed matrix %+v", m)
		}
		if s, err := decodeStore(data); err != nil || s.n != m.Rows {
			t.Fatalf("decodeStore disagrees with DecompressDist: err=%v vs rows=%d", err, m.Rows)
		}
	})
}

// fuzzValue turns 9 input bytes into one matrix entry: the first picks
// a family the proofs have an edge in, the other eight pick within it.
func fuzzValue(b []byte) float64 {
	x := binary.LittleEndian.Uint64(b[1:])
	switch b[0] % 10 {
	case 0:
		return float64(uint64(1)<<(1+x%32)) - 3 + float64(x>>5%3) // 2^N−3, 2^N−2, 2^N−1: straddles the last code of every width
	case 1:
		return float64(x >> 8 & (1<<(x%33) - 1)) // an integer of any width up to 32 bits
	case 2:
		return float64(1<<32 - 6 + x%10) // straddles the last code of the widest, 2^32−2
	case 3:
		return 0.5 * float64(x%40) // half-integers: a scale other than 1
	case 4:
		return float64(math.Float32frombits(uint32(x))) // float32-exact, incl. float32 NaNs and subnormals
	case 5:
		return math.MaxFloat32 * (0.5 + float64(x%4)) // straddles float32 range
	case 6:
		return math.Copysign(0, -1)
	case 7:
		return math.Float64frombits(x>>12 | 1) // float64 subnormals
	case 8:
		return semiring.Inf
	default:
		return math.Float64frombits(x) // anything, NaNs with payloads included
	}
}

// FuzzNarrowRoundTrip builds small matrices out of the values the
// narrowing proofs are most likely to get wrong — every 2^N−2 and its
// neighbours, integers of every width, fractions of a scale, NaN, −0,
// subnormals — mirrored across the diagonal when the input's length is
// odd, so both layouts are reached — and requires the store to read
// back (at, row, widen), serialise and
// deserialise every entry bit for bit, whichever kind and layout it
// chose; to choose f64 whenever the matrix holds a NaN or a −0; and to
// keep the triangle exactly when the matrix is bit-symmetric.
func FuzzNarrowRoundTrip(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 4, 0, 0, 0, 0, 0, 0, 0, 1, 5, 0, 0, 0, 0, 0, 0, 0, 2, 4, 0, 0, 0, 0, 0, 0, 0, 2, 5, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0, 0, 3, 7, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 0, 0, 0xc0, 0x7f, 0, 0, 0, 0, 5, 3, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 9, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	// Odd lengths: the same four, mirrored.
	f.Add([]byte{0, 3, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 4, 0, 0, 0, 0, 0, 0, 0, 1, 5, 0, 0, 0, 0, 0, 0, 0, 2, 4, 0, 0, 0, 0, 0, 0, 0, 2, 5, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0, 0, 3, 7, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 0, 0, 0xc0, 0x7f, 0, 0, 0, 0, 5, 3, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 9, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 1
		for (n+1)*(n+1)*9 <= len(data) && n < 6 {
			n++
		}
		if len(data) < 9 {
			n = 0
		}
		orig := semiring.NewMatrix(n, n)
		special := false
		for i := range orig.V {
			x := fuzzValue(data[9*i:])
			if u, v := i/n, i%n; len(data)%2 == 1 && v > u {
				x = fuzzValue(data[9*(v*n+u):])
			}
			orig.V[i] = x
			special = special || x != x || (x == 0 && math.Signbit(x))
		}
		s := narrow(orig.Clone())
		if special && s.kind != tierF64 {
			t.Fatalf("a matrix holding NaN or −0 was stored as %s: %v", s.kindName(), orig.V)
		}
		if s.tri != bitSymmetric(orig) {
			t.Fatalf("stored as %s, but bit-symmetric is %v: %v", s.layoutName(), !s.tri, orig.V)
		}
		checkStoreReads(t, s, orig)
	})
}
