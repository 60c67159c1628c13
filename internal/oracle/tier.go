package oracle

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"

	"sparseapsp/internal/semiring"
)

// Typed distance storage.
//
// An oracle stores its distances once, in the narrowest form that is
// provably lossless for the values at hand, and answers every query
// from it. The kinds, tried in this order by narrow:
//
//	uN   quantized: v = k·scale with k ∈ [0, 2^N−2] packed in N bits,
//	     N = bits.Len(maxK+1) for the largest finite k (1 ≤ N ≤ 32);
//	     Inf → the all-ones code of N bits
//	f32  each value survives a float32 round trip bit-exactly
//	f64  raw values — always applicable
//
// A quantized store is accepted only after verifying, per value, that
// float64(k)·scale reproduces the original bit pattern exactly, so the
// store is ALWAYS bit-lossless: integer-weight graphs (whose distances
// are integers) take as many bits as their largest finite distance
// needs beside an Inf code — 8 for a 32×32 grid under weights 1..9
// (largest ≈ 190), 11 for an 800-cycle under the same weights (≈ 2,000),
// 6 for G(768, 4/n) — and anything that cannot be represented exactly
// (a fractional edit, NaN, −0) falls through to f32 or raw f64. The
// width is a function of the values, so it can change with the weights
// alone; narrow runs again on every reweight.
//
// Entries sit back to back in one []uint64 with no per-row padding:
// entry i is bits [i·N, (i+1)·N), which may straddle two words, and a
// read is one field read — the shape of apsp.Successors' slot read.
// narrow builds it in two passes, both parallel: the proof, which also
// finds maxK and so N, then the packing, in blocks of 64 entries — N
// whole words each — so no two writers ever share a word.
//
// How many entries are kept is proved the same way. An undirected
// graph's distance matrix is symmetric, and every matrix-based solver
// returns it BIT-symmetric (apsp.TestSolveDistSymmetric), so narrow
// compares bits(d(i,j)) with bits(d(j,i)) for every pair and, when all
// agree, keeps only the lower triangle: n(n+1)/2 entries, half a byte
// a pair at 8 bits — 0.8 with the successor table of a grid beside it
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
// (format SAPSPT04; nothing ever persisted an older blob, so the old
// magics are simply rejected). No serving path calls them: the bench
// census and the E23 harness round-trip a blob in memory, and that is
// what keeps them (E33). Like the plan codec (and unlike the semiring pack
// codec's decode-or-panic), DecompressDist must fail closed on malformed
// bytes: return an error, never panic.

// tierMagic identifies a serialised store; the trailing digits are the
// format version.
const tierMagic = "SAPSPT04"

// tierHeaderLen is magic(8) + kind(1) + layout(1) + width(1) +
// reserved(1) + n(4) + scale(8).
const tierHeaderLen = 24

const (
	tierUN = uint8(iota)
	tierF32
	tierF64
)

// The layout byte of a serialised store.
const (
	tierSquare = uint8(iota)
	tierTri
)

// maxCode is the largest finite code of the widest uN, N = 32: a
// distance that needs more falls through to f32 or f64. Every code is
// below 2^63, so codes convert to and from float64 through int64 — one
// instruction each way on amd64, where the unsigned conversions branch.
const maxCode = 1<<32 - 2

// distStore is the distance matrix of an n-vertex graph at its proven
// width and layout: exactly one of the three slices is in use, named by
// kind, and it holds either all n² entries row-major or, when tri is
// set, the lower triangle packed row-major — entry (i,j), j ≤ i, at
// i(i+1)/2 + j, standing for (j,i) too. Immutable once built.
type distStore struct {
	kind  uint8
	width uint8 // uN: the N bits of every entry; 0 for the float kinds
	tri   bool
	n     int
	scale float64  // uN: value = k·scale; 1 for the float kinds
	codes []uint64 // uN: entry i at bits [i·N, (i+1)·N), bit b in word b/64
	f32   []float32
	f64   []float64
}

func (s *distStore) kindName() string {
	switch s.kind {
	case tierUN:
		return "u" + strconv.Itoa(int(s.width))
	case tierF32:
		return "f32"
	}
	return "f64"
}

func (s *distStore) layoutName() string {
	if s.tri {
		return "tri"
	}
	return "square"
}

// bytes is the retained size of the store: the one slice it holds.
func (s *distStore) bytes() int64 {
	return int64(len(s.codes))*8 + int64(len(s.f32))*4 + int64(len(s.f64))*8
}

// codeWords is the number of 64-bit words entries codes of width bits
// fill.
func codeWords(entries int, width uint8) int {
	return int((uint64(entries)*uint64(width) + 63) / 64)
}

// inf is the all-ones code of N bits, which stands for +Inf; every code
// below it is finite.
func (s *distStore) inf() uint64 { return 1<<s.width - 1 }

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

// rowOf is the row entry i belongs to.
func rowOf(n, i int, tri bool) int {
	if !tri {
		return i / n
	}
	r := int((math.Sqrt(8*float64(i)+1) - 1) / 2)
	for r*(r+1)/2 > i {
		r--
	}
	for (r+1)*(r+2)/2 <= i {
		r++
	}
	return r
}

// code reads the N bits of entry i.
func (s *distStore) code(i int) uint64 { return field(s.codes, uint(i)*uint(s.width), s.inf()) }

// field reads the bits of mask at bit b of codes: the high part of word
// b/64 and the low part of the next, without a branch. The next word is
// shifted in by 1 and then by 63−(b%64), so at b%64 = 0 it contributes
// nothing, and a field that fits in its word gets the next word's bits
// only above the mask — as does one in the last word, which reads that
// word twice.
func field(codes []uint64, b uint, mask uint64) uint64 {
	i, shift := b>>6, b&63
	next := min(i+1, uint(len(codes))-1)
	return (codes[i]>>shift | codes[next]<<1<<(63-shift)) & mask
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
	case tierUN:
		if k := s.code(i); k != s.inf() {
			return float64(int64(k)) * s.scale
		}
		return semiring.Inf
	case tierF32:
		return float64(s.f32[i])
	default:
		return s.f64[i]
	}
}

// shares reports whether the store keeps v's storage as its own: the
// square f64 kind narrow leaves in place.
func (s *distStore) shares(v []float64) bool {
	return len(s.f64) > 0 && len(v) > 0 && &s.f64[0] == &v[0]
}

// row widens row v into buf and returns it (an apsp.RowFunc). A square
// row is one run of the store — the f64 kind returns its own storage
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
	case tierUN:
		codes, width, inf, scale := s.codes, uint(s.width), s.inf(), s.scale
		b, bstep, bgrow := uint(i)*width, uint(step)*width, uint(grow)*width
		for k := range dst {
			if q := field(codes, b, inf); q == inf {
				dst[k] = semiring.Inf
			} else {
				dst[k] = float64(int64(q)) * scale
			}
			b, bstep = b+bstep, bstep+bgrow
		}
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
// triangle when symmetric proves the upper one redundant. A quantized
// candidate is proved in one pass, parallel over rows, that stops at the
// first value it cannot represent, so a real-valued matrix rejects it
// within its first row, before anything n²-sized is allocated. Only the
// square f64 store keeps (shares) d's storage — the caller must not
// mutate d afterwards; the triangular one copies its half and lets d go.
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

// proveRun returns the largest code of the finite values of src at
// scale, and false if some value has none: every finite x must be
// k·scale for an integer k in [0, maxCode], proved by widening k back —
// the computation at and row make — and comparing bit patterns, so a
// true answer guarantees a bit-identical read. +Inf takes the all-ones
// code; NaN, −0 and negative values fail.
func proveRun(src []float64, scale float64) (top uint64, ok bool) {
	if scale == 1 {
		// Integer fast path: in range, the conversion truncates to the
		// only k the proof could accept, with no divide and no Round.
		for _, x := range src {
			if x >= 0 && x <= maxCode {
				k := int64(x)
				if math.Float64bits(float64(k)) != math.Float64bits(x) {
					return 0, false
				}
				top = max(top, uint64(k))
			} else if !math.IsInf(x, 1) {
				return 0, false
			}
		}
		return top, true
	}
	for _, x := range src {
		if math.IsInf(x, 1) {
			continue
		}
		// Widened from the integer, as a read will: the rounded float is
		// −0 for x = −0.
		k := math.Round(x / scale)
		if !(k >= 0 && k <= maxCode) || math.Float64bits(float64(int64(k))*scale) != math.Float64bits(x) {
			return 0, false
		}
		top = max(top, uint64(k))
	}
	return top, true
}

// codesOf writes the code of every value of src, which proveRun has
// accepted, into dst; +Inf's is all ones, whose low N bits are every
// width's Inf code.
func codesOf(dst []uint64, src []float64, scale float64) {
	dst = dst[:len(src)]
	if scale == 1 {
		for i, x := range src {
			k := uint64(int64(x))
			if x > maxCode {
				k = math.MaxUint64
			}
			dst[i] = k
		}
		return
	}
	for i, x := range src {
		k := uint64(int64(math.Round(x / scale)))
		if math.IsInf(x, 1) {
			k = math.MaxUint64
		}
		dst[i] = k
	}
}

// quantized stores v as multiples of scale in the narrowest uN that
// holds them, or returns nil when some value has no code. The proof
// runs first, parallel over rows, stopping everywhere at the first
// failure and otherwise finding maxK; the codes are packed only once N
// is known.
func quantized(v []float64, n int, tri bool, scale float64) *distStore {
	var failed atomic.Bool
	var maxK atomic.Uint64
	semiring.DefaultPool.ForRanges(n, func(lo, hi int) {
		var top uint64
		for r := lo; r < hi && !failed.Load(); r++ {
			_, w := rowSpan(n, r, tri)
			k, ok := proveRun(v[r*n:r*n+w], scale)
			if !ok {
				failed.Store(true)
				return
			}
			top = max(top, k)
		}
		for {
			if cur := maxK.Load(); top <= cur || maxK.CompareAndSwap(cur, top) {
				return
			}
		}
	})
	if failed.Load() {
		return nil
	}
	s := &distStore{kind: tierUN, width: uint8(bits.Len64(maxK.Load() + 1)), tri: tri, n: n, scale: scale}
	entries := storeLen(n, tri)
	s.codes = make([]uint64, codeWords(entries, s.width))
	// 64 entries of N bits are N whole words, so a range of blocks of
	// 64 starts and ends on word boundaries and owns every word it writes.
	semiring.DefaultPool.ForRanges((entries+63)/64, func(lo, hi int) {
		s.pack(v, lo*64, min(hi*64, entries))
	})
	return s
}

// pack writes the codes of entries [a, b) from the rows of v, a word at
// a time; a must be a multiple of 64. Every value has been proved.
func (s *distStore) pack(v []float64, a, b int) {
	n, width, inf := s.n, uint(s.width), s.inf()
	// The codes of one stretch of a row: converting a stretch and then
	// packing it keeps two simple loops where one fused loop measured
	// ≈ 40 % slower on a 32×32 grid's matrix.
	var ks [256]uint64
	wi := a * int(width) / 64
	var word uint64
	fill := uint(0) // bits of word already taken
	for r, i := rowOf(n, a, s.tri), a; i < b; r++ {
		lo, w := rowSpan(n, r, s.tri)
		for run := v[r*n+i-lo : r*n+min(w, b-lo)]; len(run) > 0; {
			chunk := ks[:min(len(run), len(ks))]
			codesOf(chunk, run[:len(chunk)], s.scale)
			for _, k := range chunk {
				k &= inf
				word |= k << fill
				if fill += width; fill >= 64 {
					s.codes[wi] = word
					wi, fill = wi+1, fill-64
					word = k >> (width - fill) // the part that did not fit
				}
			}
			run, i = run[len(chunk):], i+len(chunk)
		}
	}
	if fill > 0 {
		s.codes[wi] = word
	}
}

// narrowRows encodes the rows of v — each up to its diagonal entry when
// tri — into a fresh []T with row, which reports whether every value it
// was handed is exactly representable; nil if any row is not. Rows run
// in ranges on the pool and every range stops at the first failure
// anywhere. The whole first row is tried alone before the output
// exists: a real-valued matrix fails f32 there, and would otherwise
// allocate and zero the whole store first.
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
	b = append(b, s.kind, layout, s.width, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.n))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.scale))
	switch s.kind {
	case tierUN:
		for _, w := range s.codes {
			b = binary.LittleEndian.AppendUint64(b, w)
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
	case tierUN:
		// The bits past the last entry are zero in every encoding, so a
		// blob decodes only from the one encoding its store has.
		if used := uint64(entries) * uint64(s.width) % 64; used != 0 && binary.LittleEndian.Uint64(payload[len(payload)-8:])>>used != 0 {
			return nil, fmt.Errorf("oracle: nonzero padding after the last tier entry")
		}
		s.codes = make([]uint64, len(payload)/8)
		for i := range s.codes {
			s.codes[i] = binary.LittleEndian.Uint64(payload[8*i:])
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
	kind, layout, width := blob[8], blob[9], blob[10]
	if kind > tierF64 {
		return nil, nil, fmt.Errorf("oracle: unknown tier kind %d", kind)
	}
	if layout > tierTri {
		return nil, nil, fmt.Errorf("oracle: unknown tier layout %d", layout)
	}
	if blob[11] != 0 {
		return nil, nil, fmt.Errorf("oracle: nonzero reserved byte in tier header")
	}
	un := binary.LittleEndian.Uint32(blob[12:])
	if un > 1<<20 {
		return nil, nil, fmt.Errorf("oracle: implausible tier dimension %d", un)
	}
	scale := math.Float64frombits(binary.LittleEndian.Uint64(blob[16:]))
	if kind == tierUN {
		if width < 1 || width > 32 {
			return nil, nil, fmt.Errorf("oracle: tier code width %d outside [1, 32]", width)
		}
		if !(scale > 0) || math.IsInf(scale, 1) {
			return nil, nil, fmt.Errorf("oracle: invalid quantization scale %v", scale)
		}
	} else {
		if width != 0 {
			return nil, nil, fmt.Errorf("oracle: float tier blob carries code width %d", width)
		}
		if math.Float64bits(scale) != math.Float64bits(1) {
			return nil, nil, fmt.Errorf("oracle: float tier blob carries scale %v, want 1", scale)
		}
	}
	s = &distStore{kind: kind, width: width, tri: layout == tierTri, n: int(un), scale: scale}
	// In uint64: n² entries of 8 bytes overflow a 32-bit int long before
	// n reaches the 2^20 cap.
	entries := uint64(un) * uint64(un)
	if s.tri {
		entries = uint64(un) * (uint64(un) + 1) / 2
	}
	want := entries * 8
	switch kind {
	case tierUN:
		want = (entries*uint64(width) + 63) / 64 * 8
	case tierF32:
		want = entries * 4
	}
	payload = blob[tierHeaderLen:]
	if uint64(len(payload)) != want {
		return nil, nil, fmt.Errorf("oracle: tier payload is %d bytes, want %d for n=%d kind %s layout %s",
			len(payload), want, s.n, s.kindName(), s.layoutName())
	}
	return s, payload, nil
}
