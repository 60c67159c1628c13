package oracle

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"sparseapsp/internal/semiring"
)

// Typed distance storage.
//
// An oracle stores its distances once, in the narrowest element type
// that is provably lossless for the values at hand, and answers every
// query from that slice. The kinds, tried in this order by narrow:
//
//	u8   quantized: v = k·scale with k ∈ [0, 0xFE], Inf → 0xFF
//	u16  quantized: v = k·scale with k ∈ [0, 0xFFFE], Inf → 0xFFFF
//	u32  quantized: v = k·scale with k ∈ [0, 0xFFFFFFFE], Inf → 0xFFFFFFFF
//	f32  each value survives a float32 round trip bit-exactly
//	f64  raw values — always applicable
//
// A quantized kind is accepted only after verifying, per value, that
// float64(k)·scale reproduces the original bit pattern exactly, so the
// store is ALWAYS bit-lossless: integer-weight graphs (whose distances
// are small integers) land in u8 when the largest finite one is at most
// 254·scale — unweighted graphs and small weights on short diameters, a
// 32×32 grid under weights 1..9 included — and in u16 otherwise (the same
// weights around an 800-cycle), and anything that cannot be represented
// exactly (a fractional edit, NaN, −0) falls through to f32 or raw f64.
// The width is a threshold on the values, so it can change with the
// weights alone; narrow runs again on every reweight.
//
// How many entries are kept is proved the same way. An undirected
// graph's distance matrix is symmetric, and every matrix-based solver
// returns it BIT-symmetric (apsp.TestSolveDistSymmetric), so narrow
// compares bits(d(i,j)) with bits(d(j,i)) for every pair and, when all
// agree, keeps only the lower triangle: n(n+1)/2 entries, about half a
// byte per pair at u8 — 0.8 with the successor table of a grid beside it
// (apsp.Successors: neighbour slots, each column at the width its
// vertex's degree needs). A matrix that fails the proof anywhere —
// Johnson's, whose Dijkstras sum a path from opposite ends; one entry an
// ulp off its mirror; +0 across the diagonal from −0 — keeps all n²
// entries, so every read is still the solver's own bits. The layout is
// a property of the store, not an option.
// There is no wider copy kept beside the store and no mode that keeps
// one.
//
// CompressDist / DecompressDist are the byte serialisation of the store
// (format SAPSPT03; nothing ever persisted an older blob, so the old
// magics are simply rejected). No serving path calls them: the bench
// census and the E23 harness round-trip a blob in memory, and that is
// what keeps them (E33). Like the plan codec (and unlike the semiring pack
// codec's decode-or-panic), DecompressDist must fail closed on malformed
// bytes: return an error, never panic.

// tierMagic identifies a serialised store; the trailing digits are the
// format version.
const tierMagic = "SAPSPT03"

// tierHeaderLen is magic(8) + kind(1) + layout(1) + reserved(2) + n(4) +
// scale(8).
const tierHeaderLen = 24

const (
	tierU8 = uint8(iota)
	tierU16
	tierU32
	tierF32
	tierF64
)

// The layout byte of a serialised store.
const (
	tierSquare = uint8(iota)
	tierTri
)

var (
	tierKindNames = [...]string{tierU8: "u8", tierU16: "u16", tierU32: "u32", tierF32: "f32", tierF64: "f64"}
	tierElemBytes = [...]uint64{tierU8: 1, tierU16: 2, tierU32: 4, tierF32: 4, tierF64: 8}
)

// distStore is the distance matrix of an n-vertex graph at its proven
// width and layout: exactly one of the five slices is in use, named by
// kind, and it holds either all n² entries row-major or, when tri is
// set, the lower triangle packed row-major — entry (i,j), j ≤ i, at
// i(i+1)/2 + j, standing for (j,i) too. Immutable once built.
type distStore struct {
	kind  uint8
	tri   bool
	n     int
	scale float64 // quantized kinds: value = k·scale; 1 for the float kinds
	u8    []uint8
	u16   []uint16
	u32   []uint32
	f32   []float32
	f64   []float64
}

func (s *distStore) kindName() string { return tierKindNames[s.kind] }

func (s *distStore) layoutName() string {
	if s.tri {
		return "tri"
	}
	return "square"
}

// bytes is the retained size of the store: the one slice it holds.
func (s *distStore) bytes() int64 {
	return int64(len(s.u8)) + int64(len(s.u16))*2 + int64(len(s.u32))*4 + int64(len(s.f32))*4 + int64(len(s.f64))*8
}

// rowSpan is where row r keeps its entries and how many it keeps: all n
// of a square row, the r+1 up to the diagonal of a triangular one.
func rowSpan(n, r int, tri bool) (lo, width int) {
	if tri {
		return r * (r + 1) / 2, r + 1
	}
	return r * n, n
}

// storeLen is the number of entries a layout keeps.
func storeLen(n int, tri bool) int {
	lo, _ := rowSpan(n, n, tri)
	return lo
}

// at widens entry (u,v) back to the float64 it was narrowed from, bit
// for bit. Above the diagonal of a triangle it reads the mirror entry,
// which the symmetry proof showed to hold the same bits.
func (s *distStore) at(u, v int) float64 {
	i := u*s.n + v
	if s.tri {
		if u < v {
			u, v = v, u
		}
		i = u*(u+1)/2 + v
	}
	switch s.kind {
	case tierU8:
		if k := s.u8[i]; k != math.MaxUint8 {
			return float64(k) * s.scale
		}
		return semiring.Inf
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

// row widens row v into buf and returns it (an apsp.RowFunc). A square
// row is one run of the slice — the f64 kind returns its own storage
// instead, callers only read; a triangular one is the run up to the
// diagonal followed by column v below it, gathered at a stride that
// grows by one entry per row.
func (s *distStore) row(v int, buf []float64) []float64 {
	lo, w := rowSpan(s.n, v, s.tri)
	if !s.tri && s.kind == tierF64 {
		return s.f64[lo : lo+w]
	}
	buf = buf[:s.n]
	s.widenInto(buf[:w], lo, 1, 0)
	s.widenInto(buf[w:], lo+w+v, v+2, 1) // entry (v+1, v), then v+2 further on, then v+3, …
	return buf
}

// widenInto fills dst with the stored entries at i, i+step,
// i+step+(step+grow), …: the one loop per kind that rows, columns and
// widen all read through.
func (s *distStore) widenInto(dst []float64, i, step, grow int) {
	switch s.kind {
	case tierU8:
		dequantize(dst, s.u8, i, step, grow, s.scale)
	case tierU16:
		dequantize(dst, s.u16, i, step, grow, s.scale)
	case tierU32:
		dequantize(dst, s.u32, i, step, grow, s.scale)
	case tierF32:
		for k := range dst {
			dst[k] = float64(s.f32[i])
			i, step = i+step, step+grow
		}
	default:
		for k := range dst {
			dst[k] = s.f64[i]
			i, step = i+step, step+grow
		}
	}
}

func dequantize[T uint8 | uint16 | uint32](dst []float64, src []T, i, step, grow int, scale float64) {
	for k := range dst {
		if q := src[i]; q == ^T(0) {
			dst[k] = semiring.Inf
		} else {
			dst[k] = float64(q) * scale
		}
		i, step = i+step, step+grow
	}
}

// widen rebuilds the float64 matrix the store was narrowed from,
// mirroring a triangle back to both halves. The square f64 kind shares
// its storage with the result instead of copying it; callers treat the
// matrix as read-only.
func (s *distStore) widen() *semiring.Matrix {
	if !s.tri && s.kind == tierF64 {
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

// narrow stores d at the narrowest lossless width, and only its lower
// triangle when symmetric proves the upper one redundant. Each
// candidate kind is proved and encoded in ONE pass, parallel over rows,
// that stops at the first value it cannot represent, so an
// integer-weight matrix is done after the first pass and a real-valued
// one rejects every narrow kind within its first row, before anything
// n²-sized is allocated. Only the square f64 store keeps (shares) d's
// storage — the caller must not mutate d afterwards; the triangular one
// copies its half and lets d go.
func narrow(d *semiring.Matrix) *distStore {
	if d == nil || d.Rows != d.Cols {
		panic("oracle: distance matrix must be square")
	}
	n, v := d.Rows, d.V
	tri := symmetric(v, n)
	// Scale 1 first (integer-weight graphs), then the smallest positive
	// finite value (uniform fractional grids like 0.5-weighted meshes),
	// which is only scanned for once scale 1 has failed.
	if s := quantized(v, n, tri, 1); s != nil {
		return s
	}
	if scale := minPositive(v); scale != 1 && !math.IsInf(scale, 1) {
		if s := quantized(v, n, tri, scale); s != nil {
			return s
		}
	}
	if f := narrowRows(v, n, tri, f32Row); f != nil {
		return &distStore{kind: tierF32, tri: tri, n: n, scale: 1, f32: f}
	}
	if tri {
		v = narrowRows(v, n, tri, func(dst, src []float64) bool { copy(dst, src); return true })
	}
	return &distStore{kind: tierF64, tri: tri, n: n, scale: 1, f64: v}
}

// symTile is the edge of the blocks symmetric compares: a 32×32 float64
// block and its mirror image are 16 KB together and stay in L1 while
// one is read by rows and the other by columns.
const symTile = 32

// symmetric reports whether the n×n row-major matrix v equals its
// transpose bit for bit — NaN payloads and the sign of zero included,
// which == would get wrong in both directions. Block rows run in ranges
// on the pool and every range stops at the first mismatch anywhere; a
// matrix that is not symmetric usually says so within its first blocks.
func symmetric(v []float64, n int) bool {
	var failed atomic.Bool
	semiring.DefaultPool.ForRanges((n+symTile-1)/symTile, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			for bj := 0; bj <= bi; bj++ {
				if failed.Load() {
					return
				}
				if !symmetricBlock(v, n, bi*symTile, bj*symTile) {
					failed.Store(true)
				}
			}
		}
	})
	return !failed.Load()
}

// symmetricBlock compares the entries (i,j) of the block at (i0,j0)
// that lie below the diagonal with their mirror images.
func symmetricBlock(v []float64, n, i0, j0 int) bool {
	for i := i0; i < min(i0+symTile, n); i++ {
		row := v[i*n+j0 : i*n+min(j0+symTile, i)]
		mirror := j0*n + i // entry (j0, i); the next is one row down
		for _, x := range row {
			if math.Float64bits(x) != math.Float64bits(v[mirror]) {
				return false
			}
			mirror += n
		}
	}
	return true
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

// quantized tries the three integer kinds at one scale, narrowest first.
func quantized(v []float64, n int, tri bool, scale float64) *distStore {
	if k := narrowRows(v, n, tri, func(dst []uint8, src []float64) bool { return quantizeRow(dst, src, scale) }); k != nil {
		return &distStore{kind: tierU8, tri: tri, n: n, scale: scale, u8: k}
	}
	if k := narrowRows(v, n, tri, func(dst []uint16, src []float64) bool { return quantizeRow(dst, src, scale) }); k != nil {
		return &distStore{kind: tierU16, tri: tri, n: n, scale: scale, u16: k}
	}
	if k := narrowRows(v, n, tri, func(dst []uint32, src []float64) bool { return quantizeRow(dst, src, scale) }); k != nil {
		return &distStore{kind: tierU32, tri: tri, n: n, scale: scale, u32: k}
	}
	return nil
}

// narrowRows encodes the rows of v — each up to its diagonal entry when
// tri — into a fresh []T with row, which reports whether every value it
// was handed is exactly representable; nil if any row is not. Rows run
// in ranges on the pool and every range stops at the first failure
// anywhere. The whole first row is tried alone before the output
// exists: a real-valued matrix fails every narrow kind there, and would
// otherwise allocate and zero each one in turn.
func narrowRows[T any](v []float64, n int, tri bool, row func(dst []T, src []float64) bool) []T {
	if n > 0 && !row(make([]T, n), v[:n]) {
		return nil
	}
	out := make([]T, storeLen(n, tri))
	var failed atomic.Bool
	semiring.DefaultPool.ForRanges(n, func(lo, hi int) {
		for r := lo; r < hi && !failed.Load(); r++ {
			at, w := rowSpan(n, r, tri)
			if !row(out[at:at+w], v[r*n:r*n+w]) {
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
func quantizeRow[T uint8 | uint16 | uint32](dst []T, src []float64, scale float64) bool {
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
	layout := tierSquare
	if s.tri {
		layout = tierTri
	}
	b := make([]byte, 0, tierHeaderLen+int(s.bytes()))
	b = append(b, tierMagic...)
	b = append(b, s.kind, layout, 0, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.n))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.scale))
	switch s.kind {
	case tierU8:
		b = append(b, s.u8...)
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
	s, payload, err := tierSplit(blob)
	if err != nil {
		return nil, err
	}
	entries := storeLen(s.n, s.tri)
	switch s.kind {
	case tierU8:
		s.u8 = slices.Clone(payload)
	case tierU16:
		s.u16 = make([]uint16, entries)
		for i := range s.u16 {
			s.u16[i] = binary.LittleEndian.Uint16(payload[2*i:])
		}
	case tierU32:
		s.u32 = make([]uint32, entries)
		for i := range s.u32 {
			s.u32[i] = binary.LittleEndian.Uint32(payload[4*i:])
		}
	case tierF32:
		s.f32 = make([]float32, entries)
		for i := range s.f32 {
			s.f32[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
		}
	default: // tierF64, validated by tierSplit
		s.f64 = make([]float64, entries)
		for i := range s.f64 {
			s.f64[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	}
	return s, nil
}

// CompressDist serialises a square distance matrix at the narrowest
// lossless width, its lower triangle alone when it is bit-symmetric. It
// never fails: the fallback chain ends at raw float64 bits.
func CompressDist(d *semiring.Matrix) []byte {
	return narrow(d).encode()
}

// DecompressDist decodes a CompressDist blob back into the original
// distance matrix — both halves of it, whichever layout the blob holds —
// bit-identical to what was compressed. Malformed input yields an
// error, never a panic.
func DecompressDist(blob []byte) (*semiring.Matrix, error) {
	s, err := decodeStore(blob)
	if err != nil {
		return nil, err
	}
	return s.widen(), nil
}

// CompressedInfo reports a blob's representation kind ("u8", "u16",
// "u32", "f32", "f64") and matrix dimension without decoding the payload — the
// cheap probe the E23 harness uses.
func CompressedInfo(blob []byte) (kind string, n int, err error) {
	s, _, err := tierSplit(blob)
	if err != nil {
		return "", 0, err
	}
	return s.kindName(), s.n, nil
}

// tierSplit validates the envelope and returns the store it describes,
// still without entries, and the payload slice. Every length is checked
// before any payload access.
func tierSplit(blob []byte) (s *distStore, payload []byte, err error) {
	if len(blob) < tierHeaderLen {
		return nil, nil, fmt.Errorf("oracle: compressed blob too short (%d bytes)", len(blob))
	}
	if string(blob[:len(tierMagic)]) != tierMagic {
		return nil, nil, fmt.Errorf("oracle: bad compressed-tier magic")
	}
	kind, layout := blob[8], blob[9]
	if kind > tierF64 {
		return nil, nil, fmt.Errorf("oracle: unknown tier kind %d", kind)
	}
	if layout > tierTri {
		return nil, nil, fmt.Errorf("oracle: unknown tier layout %d", layout)
	}
	if blob[10] != 0 || blob[11] != 0 {
		return nil, nil, fmt.Errorf("oracle: nonzero reserved bytes in tier header")
	}
	un := binary.LittleEndian.Uint32(blob[12:])
	if un > 1<<20 {
		return nil, nil, fmt.Errorf("oracle: implausible tier dimension %d", un)
	}
	scale := math.Float64frombits(binary.LittleEndian.Uint64(blob[16:]))
	switch kind {
	case tierU8, tierU16, tierU32:
		if !(scale > 0) || math.IsInf(scale, 1) {
			return nil, nil, fmt.Errorf("oracle: invalid quantization scale %v", scale)
		}
	default:
		if math.Float64bits(scale) != math.Float64bits(1) {
			return nil, nil, fmt.Errorf("oracle: float tier blob carries scale %v, want 1", scale)
		}
	}
	s = &distStore{kind: kind, tri: layout == tierTri, n: int(un), scale: scale}
	// In uint64: n² entries of 8 bytes overflow a 32-bit int long before
	// n reaches the 2^20 cap.
	entries := uint64(un) * uint64(un)
	if s.tri {
		entries = uint64(un) * (uint64(un) + 1) / 2
	}
	payload = blob[tierHeaderLen:]
	if want := entries * tierElemBytes[kind]; uint64(len(payload)) != want {
		return nil, nil, fmt.Errorf("oracle: tier payload is %d bytes, want %d for n=%d kind %s layout %s",
			len(payload), want, s.n, s.kindName(), s.layoutName())
	}
	return s, payload, nil
}
