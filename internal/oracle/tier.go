package oracle

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"sparseapsp/internal/semiring"
)

// Typed distance storage.
//
// An oracle stores its n² distances once, in the narrowest element type
// that is provably lossless for the values at hand, and answers every
// query from that slice. The kinds, tried in this order by narrow:
//
//	u16  quantized: v = k·scale with k ∈ [0, 0xFFFE], Inf → 0xFFFF
//	u32  quantized: v = k·scale with k ∈ [0, 0xFFFFFFFE], Inf → 0xFFFFFFFF
//	f32  each value survives a float32 round trip bit-exactly
//	f64  raw values — always applicable
//
// A quantized kind is accepted only after verifying, per value, that
// float64(k)·scale reproduces the original bit pattern exactly, so the
// store is ALWAYS bit-lossless: integer-weight graphs (whose distances
// are small integers) land in u16 at 2 bytes/pair — about 2.5 with the
// successor table of a bounded-degree graph beside it (apsp.Successors:
// neighbour slots at the width the maximum degree needs) — and anything
// that cannot be represented exactly (a fractional edit, NaN, −0) falls
// through to f32 or raw f64.
// There is no wider copy kept beside the store and no mode that keeps
// one; a demoted registry entry is the same store without successors.
//
// CompressDist / DecompressDist are the byte serialisation of the store
// (format SAPSPT01). Like the plan codec (and unlike the semiring pack
// codec's decode-or-panic), DecompressDist must fail closed on malformed
// bytes: return an error, never panic.

// tierMagic identifies a serialised store; the trailing digits are the
// format version.
const tierMagic = "SAPSPT01"

// tierHeaderLen is magic(8) + kind(1) + reserved(3) + n(4) + scale(8).
const tierHeaderLen = 24

const (
	tierU16 = uint8(iota)
	tierU32
	tierF32
	tierF64
)

var (
	tierKindNames = [...]string{tierU16: "u16", tierU32: "u32", tierF32: "f32", tierF64: "f64"}
	tierElemBytes = [...]uint64{tierU16: 2, tierU32: 4, tierF32: 4, tierF64: 8}
)

// distStore is an n×n distance matrix at its proven width: exactly one
// of the four slices is in use, named by kind. Immutable once built, so
// a hot oracle and its demoted sibling share one.
type distStore struct {
	kind  uint8
	n     int
	scale float64 // quantized kinds: value = k·scale; 1 for the float kinds
	u16   []uint16
	u32   []uint32
	f32   []float32
	f64   []float64
}

func (s *distStore) kindName() string { return tierKindNames[s.kind] }

// bytes is the retained size of the store: the one slice it holds.
func (s *distStore) bytes() int64 {
	return int64(len(s.u16))*2 + int64(len(s.u32))*4 + int64(len(s.f32))*4 + int64(len(s.f64))*8
}

// at widens entry i (row-major) back to the float64 it was narrowed
// from, bit for bit.
func (s *distStore) at(i int) float64 {
	switch s.kind {
	case tierU16:
		if k := s.u16[i]; k != math.MaxUint16 {
			return float64(k) * s.scale
		}
		return semiring.Inf
	case tierU32:
		if k := s.u32[i]; k != math.MaxUint32 {
			return float64(k) * s.scale
		}
		return semiring.Inf
	case tierF32:
		return float64(s.f32[i])
	default:
		return s.f64[i]
	}
}

// row widens row v into buf and returns it (an apsp.RowFunc). The f64
// kind returns its own storage instead; callers only read.
func (s *distStore) row(v int, buf []float64) []float64 {
	lo, hi := v*s.n, (v+1)*s.n
	switch s.kind {
	case tierU16:
		dequantize(buf, s.u16[lo:hi], s.scale)
	case tierU32:
		dequantize(buf, s.u32[lo:hi], s.scale)
	case tierF32:
		for i, x := range s.f32[lo:hi] {
			buf[i] = float64(x)
		}
	default:
		return s.f64[lo:hi]
	}
	return buf
}

func dequantize[T uint16 | uint32](dst []float64, src []T, scale float64) {
	dst = dst[:len(src)]
	for i, k := range src {
		if k == ^T(0) {
			dst[i] = semiring.Inf
		} else {
			dst[i] = float64(k) * scale
		}
	}
}

// widen rebuilds the float64 matrix the store was narrowed from. The
// f64 kind shares its storage with the result instead of copying it;
// callers treat the matrix as read-only.
func (s *distStore) widen() *semiring.Matrix {
	if s.kind == tierF64 {
		return semiring.FromSlice(s.n, s.n, s.f64)
	}
	n := s.n
	v := make([]float64, n*n)
	semiring.DefaultPool.ForRanges(n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			s.row(r, v[r*n:(r+1)*n])
		}
	})
	return semiring.FromSlice(n, n, v)
}

// narrow stores d at the narrowest lossless width. Each candidate kind
// is proved and encoded in ONE pass, parallel over rows, that stops at
// the first value it cannot represent, so an integer-weight matrix is
// done after the first pass and a real-valued one rejects every narrow
// kind within its first row, before anything n²-sized is allocated.
// Only the f64 kind keeps (shares) d's storage: the caller must not
// mutate d afterwards.
func narrow(d *semiring.Matrix) *distStore {
	if d == nil || d.Rows != d.Cols {
		panic("oracle: distance matrix must be square")
	}
	n, v := d.Rows, d.V
	// Scale 1 first (integer-weight graphs), then the smallest positive
	// finite value (uniform fractional grids like 0.5-weighted meshes),
	// which is only scanned for once scale 1 has failed.
	if s := quantized(v, n, 1); s != nil {
		return s
	}
	if scale := minPositive(v); scale != 1 && !math.IsInf(scale, 1) {
		if s := quantized(v, n, scale); s != nil {
			return s
		}
	}
	if f := narrowRows(v, n, f32Row); f != nil {
		return &distStore{kind: tierF32, n: n, scale: 1, f32: f}
	}
	return &distStore{kind: tierF64, n: n, scale: 1, f64: v}
}

func minPositive(v []float64) float64 {
	minPos := math.Inf(1)
	for _, x := range v {
		if x > 0 && x < minPos {
			minPos = x
		}
	}
	return minPos
}

// quantized tries the two integer kinds at one scale.
func quantized(v []float64, n int, scale float64) *distStore {
	if k := narrowRows(v, n, func(dst []uint16, src []float64) bool { return quantizeRow(dst, src, scale) }); k != nil {
		return &distStore{kind: tierU16, n: n, scale: scale, u16: k}
	}
	if k := narrowRows(v, n, func(dst []uint32, src []float64) bool { return quantizeRow(dst, src, scale) }); k != nil {
		return &distStore{kind: tierU32, n: n, scale: scale, u32: k}
	}
	return nil
}

// narrowRows encodes the n rows of v into a fresh []T with row, which
// reports whether every value of its row is exactly representable; nil
// if any row is not. Rows run in ranges on the pool and every range
// stops at the first failure anywhere. The first row is tried alone
// before the n² output exists: a real-valued matrix fails every narrow
// kind there, and would otherwise allocate and zero each one in turn.
func narrowRows[T any](v []float64, n int, row func(dst []T, src []float64) bool) []T {
	if n > 0 && !row(make([]T, n), v[:n]) {
		return nil
	}
	out := make([]T, len(v))
	var failed atomic.Bool
	semiring.DefaultPool.ForRanges(n, func(lo, hi int) {
		for r := lo; r < hi && !failed.Load(); r++ {
			if !row(out[r*n:(r+1)*n], v[r*n:(r+1)*n]) {
				failed.Store(true)
			}
		}
	})
	if failed.Load() {
		return nil
	}
	return out
}

// quantizeRow writes src as multiples of scale and reports whether that
// is lossless: every finite value must be k·scale for an integer k in
// [0, max−1], proved by widening k back — the computation at and row
// make — and comparing bit patterns, so a true answer guarantees a
// bit-identical read. +Inf takes the all-ones sentinel; NaN, −0 and
// negative values fail.
func quantizeRow[T uint16 | uint32](dst []T, src []float64, scale float64) bool {
	dst = dst[:len(src)]
	inf := ^T(0)
	maxK := float64(inf - 1)
	if scale == 1 {
		// Integer fast path: in range, T(x) truncates to the only k the
		// proof could accept, with no divide and no Round.
		for i, x := range src {
			if x >= 0 && x <= maxK {
				k := T(x)
				if math.Float64bits(float64(k)) != math.Float64bits(x) {
					return false
				}
				dst[i] = k
			} else if math.IsInf(x, 1) {
				dst[i] = inf
			} else {
				return false
			}
		}
		return true
	}
	for i, x := range src {
		if math.IsInf(x, 1) {
			dst[i] = inf
			continue
		}
		k := math.Round(x / scale)
		if !(k >= 0 && k <= maxK) || math.Float64bits(float64(T(k))*scale) != math.Float64bits(x) {
			return false
		}
		dst[i] = T(k)
	}
	return true
}

// f32Row is the float32 proof: the round trip must reproduce the bits.
// NaN and −0 are sent on to f64 even where the round trip happens to
// hold — what a conversion does to a NaN payload is the hardware's
// choice, and neither value can arise from non-negative weights.
func f32Row(dst []float32, src []float64) bool {
	dst = dst[:len(src)]
	for i, x := range src {
		f := float32(x)
		if math.Float64bits(float64(f)) != math.Float64bits(x) || x != x || (x == 0 && math.Signbit(x)) {
			return false
		}
		dst[i] = f
	}
	return true
}

// encode serialises the store: header, then the slice little-endian.
func (s *distStore) encode() []byte {
	b := make([]byte, 0, tierHeaderLen+int(s.bytes()))
	b = append(b, tierMagic...)
	b = append(b, s.kind, 0, 0, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.n))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.scale))
	switch s.kind {
	case tierU16:
		for _, k := range s.u16 {
			b = binary.LittleEndian.AppendUint16(b, k)
		}
	case tierU32:
		for _, k := range s.u32 {
			b = binary.LittleEndian.AppendUint32(b, k)
		}
	case tierF32:
		for _, x := range s.f32 {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
	default:
		for _, x := range s.f64 {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b
}

// decodeStore is the inverse of encode. Malformed input yields an
// error, never a panic.
func decodeStore(blob []byte) (*distStore, error) {
	kind, n, scale, payload, err := tierSplit(blob)
	if err != nil {
		return nil, err
	}
	s := &distStore{kind: kind, n: n, scale: scale}
	switch kind {
	case tierU16:
		s.u16 = make([]uint16, n*n)
		for i := range s.u16 {
			s.u16[i] = binary.LittleEndian.Uint16(payload[2*i:])
		}
	case tierU32:
		s.u32 = make([]uint32, n*n)
		for i := range s.u32 {
			s.u32[i] = binary.LittleEndian.Uint32(payload[4*i:])
		}
	case tierF32:
		s.f32 = make([]float32, n*n)
		for i := range s.f32 {
			s.f32[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
		}
	default: // tierF64, validated by tierSplit
		s.f64 = make([]float64, n*n)
		for i := range s.f64 {
			s.f64[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	}
	return s, nil
}

// CompressDist serialises a square distance matrix at the narrowest
// lossless width. It never fails: the fallback chain ends at raw
// float64 bits.
func CompressDist(d *semiring.Matrix) []byte {
	return narrow(d).encode()
}

// DecompressDist decodes a CompressDist blob back into the original
// distance matrix, bit-identical to what was compressed. Malformed
// input yields an error, never a panic.
func DecompressDist(blob []byte) (*semiring.Matrix, error) {
	s, err := decodeStore(blob)
	if err != nil {
		return nil, err
	}
	return s.widen(), nil
}

// CompressedInfo reports a blob's representation kind ("u16", "u32",
// "f32", "f64") and matrix dimension without decoding the payload — the
// cheap probe the E23 harness uses.
func CompressedInfo(blob []byte) (kind string, n int, err error) {
	k, n, _, _, err := tierSplit(blob)
	if err != nil {
		return "", 0, err
	}
	return tierKindNames[k], n, nil
}

// tierSplit validates the envelope and returns kind, n, scale and the
// payload slice. Every length is checked before any payload access.
func tierSplit(blob []byte) (kind uint8, n int, scale float64, payload []byte, err error) {
	if len(blob) < tierHeaderLen {
		return 0, 0, 0, nil, fmt.Errorf("oracle: compressed blob too short (%d bytes)", len(blob))
	}
	if string(blob[:len(tierMagic)]) != tierMagic {
		return 0, 0, 0, nil, fmt.Errorf("oracle: bad compressed-tier magic")
	}
	kind = blob[8]
	if kind > tierF64 {
		return 0, 0, 0, nil, fmt.Errorf("oracle: unknown tier kind %d", kind)
	}
	if blob[9] != 0 || blob[10] != 0 || blob[11] != 0 {
		return 0, 0, 0, nil, fmt.Errorf("oracle: nonzero reserved bytes in tier header")
	}
	un := binary.LittleEndian.Uint32(blob[12:])
	if un > 1<<20 {
		return 0, 0, 0, nil, fmt.Errorf("oracle: implausible tier dimension %d", un)
	}
	n = int(un)
	scale = math.Float64frombits(binary.LittleEndian.Uint64(blob[16:]))
	switch kind {
	case tierU16, tierU32:
		if !(scale > 0) || math.IsInf(scale, 1) {
			return 0, 0, 0, nil, fmt.Errorf("oracle: invalid quantization scale %v", scale)
		}
	default:
		if math.Float64bits(scale) != math.Float64bits(1) {
			return 0, 0, 0, nil, fmt.Errorf("oracle: float tier blob carries scale %v, want 1", scale)
		}
	}
	want := uint64(n) * uint64(n) * tierElemBytes[kind]
	payload = blob[tierHeaderLen:]
	if uint64(len(payload)) != want {
		return 0, 0, 0, nil, fmt.Errorf("oracle: tier payload is %d bytes, want %d for n=%d kind %s",
			len(payload), want, n, tierKindNames[kind])
	}
	return kind, n, scale, payload, nil
}
