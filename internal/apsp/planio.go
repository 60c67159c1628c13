package apsp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"sparseapsp/internal/etree"
	"sparseapsp/internal/partition"
)

// Binary Plan serialization. A Plan is a pure function of the graph
// structure and the plan-shaping options, so persisting its bytes under
// the StructureFingerprint (planstore.go) lets a restarted process skip
// the entire symbolic phase — nested dissection, eTree, fill mask,
// schedule enumeration — for every structure it has ever solved.
//
// Format (all integers signed varints):
//
//	magic "SAPLAN12"                    (8 bytes; version is part of the magic)
//	body:
//	  P, H, NSup, Wire, R4Seq
//	  ND.Perm, ND.Sizes                 (length-prefixed)
//	  FillMask states                   (count, then one bitset per state)
//	  Levels                            (count, then per level the op count and one record per op:
//	                                     Kind, BI, BJ, K, Root, Group, Parent, Consumers,
//	                                     Prune (length-prefixed, one descriptor per part))
//	content hash                        (32 raw bytes: sha256 of the body, = Plan.Hash)
//
// DecodePlan checks the trailer against the body before parsing it, so
// a corrupted or truncated file can never produce a silently wrong
// schedule, and then runs every op through one validator, so a
// hash-consistent file whose schedule cannot run is rejected too. Only
// the canonical fields travel; everything derivable (Starts / InvPerm /
// Super, the eTree, the per-rank programs) is rebuilt on decode, and
// the decoder accepts only canonical bytes (minimal varints, zero
// padding bits), so encoding a decoded plan reproduces them bit for
// bit.
//
// DecodePlan returns an error — never panics — on malformed input
// (fuzzed by FuzzDecodePlanMalformed). Note this is the opposite policy
// from the semiring pack codec, whose Unpack panics on malformed
// payloads: wire payloads are produced by our own executor in the same
// process, while plan files cross process lifetimes and disks.

// planMagic identifies the format and its version; bump the trailing
// digits on any incompatible change so old files decode-or-error
// instead of misparsing. 02: wire value 0 became the demand-pruned
// wire — an 01 file stored under the same structure fingerprint holds
// a wire=0 plan with no prune descriptors and must not be served.
// 03: BuildPlan stopped planning broadcasts nobody folds — an 02 file
// under the same fingerprint still holds them and would replay with
// other message and word counts than a fresh build. 04: BuildPlan
// chooses every broadcast group's order (place.go) — an 03 file holds
// the label-order groups and would replay with other critical counts.
// 05: one op record per op, in execution order, and a plan file ends
// with the fingerprint it is filed under (planstore.go) — an 04 file
// cannot prove which structure it belongs to.
// 06: every broadcast stores its tree (Op.Parent) and BuildPlan chooses
// it — an 05 file holds binomial trees and would replay with other
// critical counts.
// 07: a broadcast stores one descriptor per position, what the message
// into it carries — an 06 file holds one per broadcast and would replay
// with other critical and total words.
// 08: a rank that folds a diagonal block receives the column panel alone
// and mirrors it (dropMirrors) — an 07 file hands it both panels and
// would replay with more messages and words.
// 09: every broadcast's trees are re-placed at exact prices after that
// drop (place.go's descent) — an 08 file would replay with other
// critical counts.
// 10: on the pruned wire R3 computes each sink block in one orientation
// (sinkMirror) — an 09 file hands the mirror its panels too and would
// replay with more messages and words.
// 11: on the pruned wire R2 pivots and diagonal-block reduces ship as
// triangles, the trees are re-placed at those prices, and a broadcast may
// list mirror holders (Parent -1 past position 0) — a 10 file holds trees
// placed at the rectangle prices with no holder and would replay with
// other critical counts.
// 12: on the pruned wire the work whose result is already known leaves the
// schedule (dropDead) — an 11 file still plans it and would replay with
// more messages and words.
const planMagic = "SAPLAN12"

// Encode serializes the plan to its deterministic binary form.
func (p *Plan) Encode() []byte {
	b := p.appendBody(append(make([]byte, 0, 1024), planMagic...))
	sum := p.digest()
	return append(b, sum[:]...)
}

// appendBody appends the plan's canonical fields: the bytes Hash digests.
func (p *Plan) appendBody(b []byte) []byte {
	b = appendPlanInt(b, p.P, p.H, p.NSup, int(p.Wire), boolInt(p.R4Seq))
	b = appendPlanIntSlice(b, p.ND.Perm)
	b = appendPlanIntSlice(b, p.ND.Sizes)
	b = appendPlanInt(b, len(p.Fill.states))
	for _, st := range p.Fill.states {
		b = appendPlanBools(b, st)
	}
	b = appendPlanInt(b, len(p.Levels))
	for _, ops := range p.Levels {
		b = appendPlanInt(b, len(ops))
		for i := range ops {
			op := &ops[i]
			b = appendPlanInt(b, int(op.Kind), op.BI, op.BJ, op.K, op.Root)
			b = appendPlanIntSlice(b, op.Group)
			b = appendPlanInt(b, len(op.Parent))
			for _, v := range op.Parent {
				b = appendPlanInt(b, int(v))
			}
			b = appendPlanIntSlice(b, op.Consumers)
			b = appendPlanInt(b, len(op.Prune))
			for _, spec := range op.Prune {
				b = appendPlanPrune(b, spec)
			}
		}
	}
	return b
}

func appendPlanInt(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func appendPlanIntSlice(b []byte, vs []int) []byte {
	b = appendPlanInt(b, len(vs))
	return appendPlanInt(b, vs...)
}

// appendPlanBools encodes a []bool as a length-prefixed bitset.
func appendPlanBools(b []byte, vs []bool) []byte {
	b = appendPlanInt(b, len(vs))
	var cur byte
	for i, v := range vs {
		if v {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			b = append(b, cur)
			cur = 0
		}
	}
	if len(vs)%8 != 0 {
		b = append(b, cur)
	}
	return b
}

// appendPlanPrune writes a descriptor: nil specs and nil-vs-empty axes
// are all distinct on the wire, because they are distinct to the
// executor (nil axis = ship all, empty axis = ship nothing).
func appendPlanPrune(b []byte, p *PruneSpec) []byte {
	if p == nil {
		return appendPlanInt(b, -1)
	}
	b = appendPlanInt(b, boolInt(p.ZeroDiag))
	b = appendPlanInt32Axis(b, p.Rows)
	return appendPlanInt32Axis(b, p.Cols)
}

func appendPlanInt32Axis(b []byte, vs []int32) []byte {
	if vs == nil {
		return appendPlanInt(b, -2)
	}
	b = appendPlanInt(b, len(vs))
	for _, v := range vs {
		b = appendPlanInt(b, int(v))
	}
	return b
}

// planReader is a bounds-checked varint reader over the body bytes.
// Every accessor reports malformed input through an error; nothing in
// the decode path indexes past the buffer.
type planReader struct {
	b   []byte
	off int
}

func (r *planReader) remaining() int { return len(r.b) - r.off }

func (r *planReader) int() (int, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("apsp: DecodePlan: truncated varint at offset %d", r.off)
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		// No legitimate plan field exceeds int32 range; rejecting here
		// also caps every later allocation.
		return 0, fmt.Errorf("apsp: DecodePlan: field value %d out of range at offset %d", v, r.off)
	}
	var buf [binary.MaxVarintLen64]byte
	if n != binary.PutVarint(buf[:], v) {
		return 0, fmt.Errorf("apsp: DecodePlan: non-canonical varint at offset %d", r.off)
	}
	r.off += n
	return int(v), nil
}

// length reads a non-negative length and caps it against the remaining
// bytes (every element costs at least one byte), so a malformed length
// can never drive a huge allocation.
func (r *planReader) length(what string) (int, error) {
	n, err := r.int()
	if err != nil {
		return 0, err
	}
	if n < 0 || n > r.remaining() {
		return 0, fmt.Errorf("apsp: DecodePlan: %s length %d invalid with %d bytes left", what, n, r.remaining())
	}
	return n, nil
}

// intSlice reads a length-prefixed list; an empty one decodes as nil,
// as the builder leaves it.
func (r *planReader) intSlice(what string) ([]int, error) {
	n, err := r.length(what)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		if out[i], err = r.int(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *planReader) bools(what string) ([]bool, error) {
	n, err := r.int()
	if err != nil {
		return nil, err
	}
	if n < 0 || (n+7)/8 > r.remaining() {
		return nil, fmt.Errorf("apsp: DecodePlan: %s bitset length %d invalid with %d bytes left", what, n, r.remaining())
	}
	if n%8 != 0 && r.b[r.off+n/8]>>(n%8) != 0 {
		return nil, fmt.Errorf("apsp: DecodePlan: %s bitset has padding bits set", what)
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.b[r.off+i/8]&(1<<(i%8)) != 0
	}
	r.off += (n + 7) / 8
	return out, nil
}

func (r *planReader) prune() (*PruneSpec, error) {
	marker, err := r.int()
	if err != nil {
		return nil, err
	}
	switch marker {
	case -1:
		return nil, nil
	case 0, 1:
		spec := &PruneSpec{ZeroDiag: marker == 1}
		if spec.Rows, err = r.int32Axis(); err != nil {
			return nil, err
		}
		if spec.Cols, err = r.int32Axis(); err != nil {
			return nil, err
		}
		return spec, nil
	default:
		return nil, fmt.Errorf("apsp: DecodePlan: bad prune marker %d", marker)
	}
}

func (r *planReader) int32Axis() ([]int32, error) {
	n, err := r.int()
	if err != nil {
		return nil, err
	}
	if n == -2 {
		return nil, nil
	}
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("apsp: DecodePlan: prune axis length %d invalid with %d bytes left", n, r.remaining())
	}
	out := make([]int32, n)
	for i := range out {
		v, err := r.int()
		if err != nil {
			return nil, err
		}
		out[i] = int32(v)
	}
	return out, nil
}

// op reads one op record.
func (r *planReader) op(op *Op) error {
	var f [5]int
	for i := range f {
		v, err := r.int()
		if err != nil {
			return err
		}
		f[i] = v
	}
	if f[0] < 0 || f[0] >= int(numOpKinds) {
		return fmt.Errorf("apsp: DecodePlan: bad op kind %d", f[0])
	}
	op.Kind, op.BI, op.BJ, op.K, op.Root = uint8(f[0]), f[1], f[2], f[3], f[4]
	var err error
	if op.Group, err = r.intSlice("group"); err != nil {
		return err
	}
	parent, err := r.intSlice("parent")
	if err != nil {
		return err
	}
	for _, v := range parent {
		op.Parent = append(op.Parent, int32(v))
	}
	if op.Consumers, err = r.intSlice("consumers"); err != nil {
		return err
	}
	n, err := r.length("prune")
	if err != nil || n == 0 {
		return err
	}
	op.Prune = make([]*PruneSpec, n)
	for i := range op.Prune {
		if op.Prune[i], err = r.prune(); err != nil {
			return err
		}
	}
	return nil
}

// DecodePlan parses bytes produced by Plan.Encode: it verifies the
// content hash against the body, validates every op, and rebuilds
// every derived structure (ordering inverse, supernode table, eTree,
// per-rank programs). Malformed, truncated or corrupted input returns
// an error; DecodePlan never panics.
func DecodePlan(b []byte) (*Plan, error) {
	if len(b) < len(planMagic)+sha256.Size {
		return nil, fmt.Errorf("apsp: DecodePlan: %d bytes is shorter than the minimal envelope", len(b))
	}
	if string(b[:len(planMagic)]) != planMagic {
		return nil, fmt.Errorf("apsp: DecodePlan: bad magic %q (want %q)", b[:len(planMagic)], planMagic)
	}
	body := b[len(planMagic) : len(b)-sha256.Size]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], b[len(b)-sha256.Size:]) {
		return nil, fmt.Errorf("apsp: DecodePlan: content hash mismatch")
	}
	r := &planReader{b: body}

	var hdr [5]int
	for i := range hdr {
		v, err := r.int()
		if err != nil {
			return nil, err
		}
		hdr[i] = v
	}
	p, h, nsup, wire, r4seq := hdr[0], hdr[1], hdr[2], hdr[3], hdr[4]
	if h < 1 || h > 30 || nsup != (1<<h)-1 || p != nsup*nsup {
		return nil, fmt.Errorf("apsp: DecodePlan: inconsistent header p=%d h=%d nsup=%d", p, h, nsup)
	}
	if !WireFormat(wire).valid() {
		return nil, fmt.Errorf("apsp: DecodePlan: unknown wire format %d", wire)
	}
	if r4seq != 0 && r4seq != 1 {
		return nil, fmt.Errorf("apsp: DecodePlan: bad R4Seq flag %d", r4seq)
	}

	perm, err := r.intSlice("perm")
	if err != nil {
		return nil, err
	}
	sizes, err := r.intSlice("sizes")
	if err != nil {
		return nil, err
	}
	nd, err := rebuildND(h, nsup, perm, sizes)
	if err != nil {
		return nil, err
	}

	numStates, err := r.int()
	if err != nil {
		return nil, err
	}
	if numStates != h+1 {
		return nil, fmt.Errorf("apsp: DecodePlan: %d fill states for height %d (want %d)", numStates, h, h+1)
	}
	states := make([][]bool, numStates)
	for i := range states {
		if states[i], err = r.bools("fill state"); err != nil {
			return nil, err
		}
		if len(states[i]) != (nsup+1)*(nsup+1) {
			return nil, fmt.Errorf("apsp: DecodePlan: fill state %d has %d cells (want %d)", i, len(states[i]), (nsup+1)*(nsup+1))
		}
	}

	numLevels, err := r.int()
	if err != nil {
		return nil, err
	}
	if numLevels != h {
		return nil, fmt.Errorf("apsp: DecodePlan: %d levels for height %d", numLevels, h)
	}
	tr := etree.New(h)
	v := newPlanValidator("DecodePlan", p, nsup, sizes, tr, WireFormat(wire) == WirePruned)
	levels := make([][]Op, numLevels)
	for li := range levels {
		n, err := r.length("level")
		if err != nil {
			return nil, err
		}
		levels[li] = make([]Op, n)
		for x := range levels[li] {
			if err := r.op(&levels[li][x]); err != nil {
				return nil, err
			}
		}
		if err := v.level(li+1, levels[li]); err != nil {
			return nil, err
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("apsp: DecodePlan: %d trailing bytes after the schedule", r.remaining())
	}

	pl := &Plan{
		P: p, H: h, NSup: nsup,
		Wire:   WireFormat(wire),
		R4Seq:  r4seq == 1,
		ND:     nd,
		Tree:   tr,
		Fill:   &FillMask{H: h, N: nsup, states: states},
		Levels: levels,
	}
	pl.ranks = indexRanks(pl)
	return pl, nil
}

// rebuildND reconstructs the full nested-dissection result from its
// canonical fields. Perm and Sizes determine everything else: Starts is
// the prefix sum of Sizes, InvPerm inverts Perm, and each supernode's
// vertex list is the InvPerm range of its label (already ascending,
// because NestedDissection assigns new ids in sorted original order).
func rebuildND(h, nsup int, perm, sizes []int) (*partition.Result, error) {
	n := len(perm)
	if len(sizes) != nsup+1 {
		return nil, fmt.Errorf("apsp: DecodePlan: %d supernode sizes for %d supernodes", len(sizes), nsup)
	}
	if sizes[0] != 0 {
		return nil, fmt.Errorf("apsp: DecodePlan: sizes[0] = %d (labels are 1-based)", sizes[0])
	}
	total := 0
	for t := 1; t <= nsup; t++ {
		if sizes[t] < 0 {
			return nil, fmt.Errorf("apsp: DecodePlan: negative supernode size %d", sizes[t])
		}
		total += sizes[t]
	}
	if total != n {
		return nil, fmt.Errorf("apsp: DecodePlan: supernode sizes sum to %d, permutation covers %d vertices", total, n)
	}
	nd := &partition.Result{
		H: h, N: nsup,
		Perm:    perm,
		Sizes:   sizes,
		Starts:  make([]int, nsup+1),
		InvPerm: make([]int, n),
		Super:   make([][]int, nsup+1),
	}
	seen := make([]bool, n)
	for old, nw := range perm {
		if nw < 0 || nw >= n || seen[nw] {
			return nil, fmt.Errorf("apsp: DecodePlan: perm is not a permutation (entry %d -> %d)", old, nw)
		}
		seen[nw] = true
		nd.InvPerm[nw] = old
	}
	next := 0
	for t := 1; t <= nsup; t++ {
		nd.Starts[t] = next
		next += sizes[t]
		if sizes[t] > 0 {
			nd.Super[t] = append([]int(nil), nd.InvPerm[nd.Starts[t]:next]...)
		}
	}
	return nd, nil
}
