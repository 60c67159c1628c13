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
//	magic "SAPLAN09"                    (8 bytes; version is part of the magic)
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
const planMagic = "SAPLAN09"

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

// planValidator checks every decoded op against the header before
// anything indexes by it — indexRanks, the lowering and the executors
// take the op table as given. It checks what they assume: every group
// is a set of ranks holding its root (a broadcast's at position 0) and
// consumers, and every broadcast's Parent is a tree over it; every op
// but a unit is rooted at the owner of the block it ships or updates,
// and a seq or transpose source at the owner of the block it sends; an
// R2 pivot or an R3 panel reaches only ranks in its column or row; a
// rank's R4 and R3 captures pair up into operands of matching
// dimensions; and every prune descriptor is canonical and, down a
// broadcast's tree, never wider than its parent's (prunes). It does not
// prove the schedule complete — a dropped op still decodes, which the
// content hash guards against.
type planValidator struct {
	p, nsup int
	sizes   []int
	// member[r] == epoch marks rank r as a member of the group under
	// validation; bumping epoch clears the set.
	member []int
	epoch  int
	// Per rank, the level's unit and, per capturing kind, the panel it
	// captures (op indices, -1 none).
	unit []int
	held [numOpKinds][]int
}

// capturing lists the broadcast kinds whose consumers keep the payload
// for a later step.
var capturing = [...]uint8{opR4Aik, opR4Akj, opR3Row, opR3Col}

func (v *planValidator) errorf(format string, args ...any) error {
	return fmt.Errorf("apsp: DecodePlan: "+format, args...)
}

func (v *planValidator) rank(r int) bool  { return r >= 0 && r < v.p }
func (v *planValidator) block(b int) bool { return b >= 1 && b <= v.nsup }

// owner is the rank of block (i, j).
func (v *planValidator) owner(i, j int) int { return (i-1)*v.nsup + j - 1 }

// reaches reports whether broadcast op may hand its payload to rank c:
// an R2 pivot updates, and an R3 panel combines into, the consumer's own
// block, so it travels down its column or along its row.
func (v *planValidator) reaches(op *Op, c int) bool {
	switch op.Kind {
	case opR2Left, opR3Col:
		return c%v.nsup+1 == op.BJ
	case opR2Right, opR3Row:
		return c/v.nsup+1 == op.BI
	}
	return true
}

// group validates a member list as a set — in range, non-empty,
// pairwise distinct — and leaves it marked for inGroup. A broadcast's
// tree is the plan's choice (place.go), and tree checks only that it is
// one; a repeated or missing member, though, panics in comm's groupPos
// or deadlocks the replay.
func (v *planValidator) group(group []int) error {
	v.epoch++
	for _, g := range group {
		if !v.rank(g) || v.member[g] == v.epoch {
			return v.errorf("group %v lists rank %d twice or outside [0,%d)", group, g, v.p)
		}
		v.member[g] = v.epoch
	}
	return nil
}

func (v *planValidator) inGroup(r int) bool { return v.rank(r) && v.member[r] == v.epoch }

// tree validates a broadcast's Parent list — one entry per member, -1
// for the root, an earlier position for every other member — which is
// what appendMessages and comm.Ctx.BcastTree take as given; every other
// kind carries none.
func (v *planValidator) tree(op *Op) error {
	name := dfKindNames[op.Kind]
	if !isBcast(op.Kind) {
		if op.Parent != nil {
			return v.errorf("%s op carries a broadcast tree", name)
		}
		return nil
	}
	if len(op.Parent) != len(op.Group) || op.Parent[0] != -1 {
		return v.errorf("%s tree %v does not root %d members at position 0", name, op.Parent, len(op.Group))
	}
	for i, up := range op.Parent[1:] {
		switch {
		case up < 0 || int(up) >= len(op.Group):
			return v.errorf("%s member at position %d has parent %d out of range", name, i+1, up)
		case int(up) > i:
			return v.errorf("%s member at position %d has parent %d, not an earlier position", name, i+1, up)
		}
	}
	return nil
}

// pruneAxis validates one axis of a PruneSpec against the block
// dimension it indexes: ascending, in range, no duplicates — what the
// executor's pack path assumes — and canonical: a list keeping every
// index is written nil.
func (v *planValidator) pruneAxis(axis []int32, dim int) error {
	if axis != nil && len(axis) == dim {
		return v.errorf("prune axis keeps all %d indices but is not nil", dim)
	}
	prev := int32(-1)
	for _, x := range axis {
		if x <= prev || int(x) >= dim {
			return v.errorf("prune index %d invalid for dimension %d", x, dim)
		}
		prev = x
	}
	return nil
}

// prunes validates an op's descriptors: one per payload part or none, in
// canonical form over the block each part ships, and on a broadcast the
// invariant a relay depends on — it can forward only what it received —
// so no position's descriptor keeps an entry its parent's drops, and the
// op carries one ZeroDiag value.
func (v *planValidator) prunes(op *Op) error {
	name := dfKindNames[op.Kind]
	parts := 0
	switch {
	case isBcast(op.Kind):
		parts = len(op.Group)
	case op.Kind == opSeq:
		parts = 2
	}
	if len(op.Prune) != 0 && len(op.Prune) != parts {
		return v.errorf("%s op carries %d prune descriptors", name, len(op.Prune))
	}
	for part, spec := range op.Prune {
		if spec != nil && spec.Rows == nil && spec.Cols == nil && !spec.ZeroDiag {
			return v.errorf("%s op's prune descriptor %d is full but not nil", name, part)
		}
		if spec != nil {
			bi, bj := op.payload(part)
			if err := firstErr(v.pruneAxis(spec.Rows, v.sizes[bi]), v.pruneAxis(spec.Cols, v.sizes[bj])); err != nil {
				return err
			}
		}
		switch {
		case !isBcast(op.Kind):
		case zeroDiag(spec) != zeroDiag(op.Prune[0]):
			return v.errorf("%s op mixes ZeroDiag values", name)
		case part > 0 && !covers(op.Prune[op.Parent[part]], spec):
			return v.errorf("%s position %d keeps entries its parent's payload drops", name, part)
		}
	}
	return nil
}

func zeroDiag(spec *PruneSpec) bool { return spec != nil && spec.ZeroDiag }

// covers reports whether descriptor outer keeps every entry inner keeps.
// A nil descriptor or axis is full: it covers anything and is covered
// only by full.
func covers(outer, inner *PruneSpec) bool {
	if outer == nil {
		return true
	}
	if inner == nil {
		return outer.Rows == nil && outer.Cols == nil
	}
	return axisCovers(outer.Rows, inner.Rows) && axisCovers(outer.Cols, inner.Cols)
}

// axisCovers is covers on one ascending keep-list.
func axisCovers(outer, inner []int32) bool {
	if outer == nil {
		return true
	}
	if inner == nil {
		return false
	}
	j := 0
	for _, x := range inner {
		for j < len(outer) && outer[j] < x {
			j++
		}
		if j == len(outer) || outer[j] != x {
			return false
		}
	}
	return true
}

// op validates one op record; the kind list in plan.go says which
// fields each kind uses, and an unused field must be zero or empty.
func (v *planValidator) op(op *Op) error {
	name := dfKindNames[op.Kind]
	if !v.block(op.BI) || !v.block(op.BJ) || !v.rank(op.Root) {
		return v.errorf("%s op on block (%d,%d) at rank %d out of range", name, op.BI, op.BJ, op.Root)
	}
	if pivot := op.Kind == opUnit || op.Kind == opSeq; pivot && !v.block(op.K) || !pivot && op.K != 0 {
		return v.errorf("%s op with pivot %d", name, op.K)
	}
	switch members := len(op.Group); {
	case (isBcast(op.Kind) || op.Kind == opReduce) && members > 0:
	case op.Kind == opSeq && members == 2, op.Kind == opTrans && members == 1:
	case members == 0 && (op.Kind == opDiag || op.Kind == opUnit):
	default:
		return v.errorf("%s op with %d group members", name, members)
	}
	if op.Group != nil {
		if err := v.group(op.Group); err != nil {
			return err
		}
	}
	owner := v.owner(op.BI, op.BJ)
	switch {
	case (op.Kind == opDiag || op.Kind == opR2Left || op.Kind == opR2Right) && op.BI != op.BJ:
		return v.errorf("%s op on off-diagonal block (%d,%d)", name, op.BI, op.BJ)
	case op.Kind == opTrans && (op.BI == op.BJ || op.Group[0] != owner || op.Root != v.owner(op.BJ, op.BI)):
		return v.errorf("transpose of (%d,%d) from rank %d to rank %d", op.BI, op.BJ, op.Group[0], op.Root)
	case op.Kind == opSeq && (op.Group[0] != v.owner(op.BI, op.K) || op.Group[1] != v.owner(op.K, op.BJ)):
		return v.errorf("seq op over (%d,%d) via %d from ranks %v", op.BI, op.BJ, op.K, op.Group)
	case op.Kind != opUnit && op.Kind != opTrans && op.Root != owner:
		return v.errorf("%s op on block (%d,%d) rooted at rank %d, not its owner", name, op.BI, op.BJ, op.Root)
	case isBcast(op.Kind) && op.Group[0] != op.Root:
		return v.errorf("%s root %d is not at position 0 of its group", name, op.Root)
	case !isBcast(op.Kind) && op.Consumers != nil:
		return v.errorf("%s op lists consumers", name)
	}
	if err := v.tree(op); err != nil {
		return err
	}
	for _, c := range op.Consumers {
		if !v.inGroup(c) || !v.reaches(op, c) {
			return v.errorf("%s consumer %d is outside its group or its block's row or column", name, c)
		}
	}
	return v.prunes(op)
}

// level validates one level's op table: every op, the phase order, the
// captures — at most one panel of each capturing kind per rank, the R3
// row and column panels a rank combines meet at one pivot, and a
// diagonal block's rank that captures an R3 panel captures the row
// panel, which its combine mirrors if it has no column panel — and the
// R4 products: at most one unit per rank, handed the column panel that
// is its left operand and, unless it computes a diagonal block (whose
// right operand is that panel's mirror), the row panel too, and every
// reduce member hosts a unit over the reduced block.
func (v *planValidator) level(ops []Op) error {
	for r := range v.unit {
		v.unit[r] = -1
		for _, k := range capturing {
			v.held[k][r] = -1
		}
	}
	for x := range ops {
		op := &ops[x]
		if err := v.op(op); err != nil {
			return err
		}
		if x > 0 && opPhase[op.Kind] < opPhase[ops[x-1].Kind] {
			return v.errorf("%s op after a %s op", dfKindNames[op.Kind], dfKindNames[ops[x-1].Kind])
		}
		switch held := v.held[op.Kind]; {
		case op.Kind == opUnit:
			if v.unit[op.Root] >= 0 {
				return v.errorf("unit processor %d assigned twice", op.Root)
			}
			v.unit[op.Root] = x
		case held != nil:
			for _, c := range op.Consumers {
				if held[c] >= 0 {
					return v.errorf("rank %d captures two %s panels of one kind", c, dfKindNames[op.Kind])
				}
				held[c] = x
			}
		}
	}
	for r := range v.unit {
		row, col := v.held[opR3Row][r], v.held[opR3Col][r]
		if row >= 0 && col >= 0 && ops[row].BJ != ops[col].BI {
			return v.errorf("rank %d combines R3 panels of pivots %d and %d", r, ops[row].BJ, ops[col].BI)
		}
		if i, j := blockOf(r, v.nsup); i == j && col >= 0 && row < 0 {
			return v.errorf("diagonal rank %d combines an R3 column panel without its row panel", r)
		}
	}
	for x := range ops {
		switch op := &ops[x]; op.Kind {
		case opUnit:
			a, b := v.held[opR4Aik][op.Root], v.held[opR4Akj][op.Root]
			mirrored := b < 0 && op.BI == op.BJ
			if a < 0 || ops[a].BI != op.BI || ops[a].BJ != op.K || !mirrored && (b < 0 || ops[b].BI != op.K || ops[b].BJ != op.BJ) {
				return v.errorf("unit on rank %d is not handed its operand panels", op.Root)
			}
		case opReduce:
			for _, r := range op.Group {
				if u := v.unit[r]; u < 0 || ops[u].BI != op.BI || ops[u].BJ != op.BJ {
					return v.errorf("reduce member %d hosts no unit over (%d,%d)", r, op.BI, op.BJ)
				}
			}
		}
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
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
	v := &planValidator{p: p, nsup: nsup, sizes: sizes, member: make([]int, p), unit: make([]int, p)}
	for _, k := range capturing {
		v.held[k] = make([]int, p)
	}
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
		if err := v.level(levels[li]); err != nil {
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
		Tree:   etree.New(h),
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
