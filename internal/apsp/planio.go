package apsp

import (
	"encoding/binary"
	"encoding/hex"
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
// Format (all integers signed varints, little-endian elsewhere):
//
//	magic "SAPLAN04"                          (8 bytes; version is part of the magic)
//	P, H, NSup, Wire, R4Seq, Tags
//	ND.Perm, ND.Sizes                         (length-prefixed)
//	FillMask states                           (count, then one bitset per state)
//	Levels                                    (count, then per level every op list)
//	content hash                              (32 raw bytes of Plan.Hash)
//
// The trailer is the same sha256 Plan.Hash computes over the live
// schedule: DecodePlan recomputes it from the decoded fields and
// rejects any mismatch, so a corrupted or truncated file can never
// produce a silently wrong schedule. Only the canonical fields travel;
// everything derivable (Starts/InvPerm/Super, the eTree, the per-rank
// index) is rebuilt on decode, which keeps the bytes deterministic:
// encoding a decoded plan reproduces them bit for bit.
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
const planMagic = "SAPLAN04"

// planHashLen is the raw length of the sha256 content-hash trailer.
const planHashLen = 32

// Encode serializes the plan to its deterministic binary form.
func (p *Plan) Encode() []byte {
	b := make([]byte, 0, 1024)
	b = append(b, planMagic...)
	b = appendPlanInt(b, p.P, p.H, p.NSup, int(p.Wire), boolInt(p.R4Seq), p.Tags)
	b = appendPlanIntSlice(b, p.ND.Perm)
	b = appendPlanIntSlice(b, p.ND.Sizes)
	b = appendPlanInt(b, len(p.Fill.states))
	for _, st := range p.Fill.states {
		b = appendPlanBools(b, st)
	}
	b = appendPlanInt(b, len(p.Levels))
	for _, lv := range p.Levels {
		b = appendPlanIntSlice(b, lv.R1)
		b = appendPlanBcasts(b, lv.R2)
		b = appendPlanBcasts(b, lv.R3)
		b = appendPlanBcasts(b, lv.R4Col)
		b = appendPlanBcasts(b, lv.R4Row)
		b = appendPlanInt(b, len(lv.R4Units))
		for _, u := range lv.R4Units {
			b = appendPlanInt(b, u.Rank, u.I, u.K, u.J)
		}
		b = appendPlanInt(b, len(lv.R4Reduce))
		for _, r := range lv.R4Reduce {
			b = appendPlanIntSlice(b, r.Group)
			b = appendPlanInt(b, r.Root, r.Tag, r.BI, r.BJ)
		}
		b = appendPlanInt(b, len(lv.R4Seq))
		for _, s := range lv.R4Seq {
			b = appendPlanInt(b, s.K, s.BI, s.BJ, s.AikOwner, s.AkjOwner, s.Owner, s.TagA, s.TagB)
			b = appendPlanPrune(b, s.PruneA)
			b = appendPlanPrune(b, s.PruneB)
		}
		b = appendPlanInt(b, len(lv.Trans))
		for _, t := range lv.Trans {
			b = appendPlanInt(b, t.Src, t.Dst, t.Tag, t.BI, t.BJ)
		}
	}
	sum, err := hex.DecodeString(p.Hash())
	if err != nil || len(sum) != planHashLen {
		// Hash() always yields 64 hex chars; reaching here means memory
		// corruption, not input — fail loudly.
		panic(fmt.Sprintf("apsp: Plan.Hash produced invalid hex %q", p.Hash()))
	}
	return append(b, sum...)
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

func appendPlanBcasts(b []byte, ops []BcastOp) []byte {
	b = appendPlanInt(b, len(ops))
	for _, op := range ops {
		b = appendPlanIntSlice(b, op.Group)
		b = appendPlanInt(b, op.Root, op.Tag, op.BI, op.BJ, int(op.Kind))
		b = appendPlanIntSlice(b, op.Consumers)
		b = appendPlanPrune(b, op.Prune)
	}
	return b
}

// appendPlanPrune mirrors hashWriter.prune: nil specs and nil-vs-empty
// axes are all distinct on the wire, because they are distinct to the
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

// planReader is a bounds-checked varint reader over the payload bytes.
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

func (r *planReader) intSlice(what string) ([]int, error) {
	n, err := r.length(what)
	if err != nil {
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
	out := make([]bool, n)
	for i := range out {
		out[i] = r.b[r.off+i/8]&(1<<(i%8)) != 0
	}
	r.off += (n + 7) / 8
	return out, nil
}

// planValidator carries the decoded header fields every op reference is
// checked against before the per-rank index is built — indexRanks and
// the executors index by these values without further checks.
type planValidator struct {
	p, nsup, tags int
	sizes         []int
	// member[r] == epoch marks rank r as a member of the group under
	// validation; bumping epoch clears the set.
	member []int
	epoch  int
}

// group validates a collective's member list as a set — in range,
// non-empty, pairwise distinct — and leaves it marked for inGroup. The
// order is the plan's choice (place.go) and is not constrained; a
// repeated or missing member, though, panics in comm's groupPos or
// deadlocks the replay.
func (v *planValidator) group(name string, group []int) error {
	if len(group) == 0 {
		return fmt.Errorf("apsp: DecodePlan: %s group is empty", name)
	}
	if v.member == nil {
		v.member = make([]int, v.p)
	}
	v.epoch++
	for _, g := range group {
		if err := v.rank(name+" group member", g); err != nil {
			return err
		}
		if v.member[g] == v.epoch {
			return fmt.Errorf("apsp: DecodePlan: %s group lists rank %d twice", name, g)
		}
		v.member[g] = v.epoch
	}
	return nil
}

// inGroup reports whether r belongs to the group last validated.
func (v *planValidator) inGroup(r int) bool {
	return r >= 0 && r < v.p && v.member[r] == v.epoch
}

func (v *planValidator) rank(name string, r int) error {
	if r < 0 || r >= v.p {
		return fmt.Errorf("apsp: DecodePlan: %s rank %d outside [0,%d)", name, r, v.p)
	}
	return nil
}

func (v *planValidator) block(name string, b int) error {
	if b < 1 || b > v.nsup {
		return fmt.Errorf("apsp: DecodePlan: %s block %d outside [1,%d]", name, b, v.nsup)
	}
	return nil
}

func (v *planValidator) tag(name string, t int) error {
	if t < 0 || t >= v.tags {
		return fmt.Errorf("apsp: DecodePlan: %s tag %d outside [0,%d)", name, t, v.tags)
	}
	return nil
}

// prune validates one axis of a PruneSpec against the block dimension
// it indexes: ascending, in range, no duplicates — what the executor's
// pack path assumes.
func (v *planValidator) pruneAxis(name string, axis []int32, dim int) error {
	prev := int32(-1)
	for _, x := range axis {
		if x <= prev || int(x) >= dim {
			return fmt.Errorf("apsp: DecodePlan: %s prune index %d invalid for dimension %d", name, x, dim)
		}
		prev = x
	}
	return nil
}

func (v *planValidator) prune(name string, p *PruneSpec, bi, bj int) error {
	if p == nil {
		return nil
	}
	if err := v.pruneAxis(name+" rows", p.Rows, v.sizes[bi]); err != nil {
		return err
	}
	return v.pruneAxis(name+" cols", p.Cols, v.sizes[bj])
}

func (r *planReader) prune(what string) (*PruneSpec, error) {
	marker, err := r.int()
	if err != nil {
		return nil, err
	}
	switch marker {
	case -1:
		return nil, nil
	case 0, 1:
		spec := &PruneSpec{ZeroDiag: marker == 1}
		if spec.Rows, err = r.int32Axis(what + " rows"); err != nil {
			return nil, err
		}
		if spec.Cols, err = r.int32Axis(what + " cols"); err != nil {
			return nil, err
		}
		return spec, nil
	default:
		return nil, fmt.Errorf("apsp: DecodePlan: bad prune marker %d in %s", marker, what)
	}
}

func (r *planReader) int32Axis(what string) ([]int32, error) {
	n, err := r.int()
	if err != nil {
		return nil, err
	}
	if n == -2 {
		return nil, nil
	}
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("apsp: DecodePlan: %s axis length %d invalid with %d bytes left", what, n, r.remaining())
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

func (r *planReader) bcasts(what string, v *planValidator) ([]BcastOp, error) {
	n, err := r.length(what)
	if err != nil {
		return nil, err
	}
	ops := make([]BcastOp, 0, n)
	for i := 0; i < n; i++ {
		var op BcastOp
		if op.Group, err = r.intSlice(what + " group"); err != nil {
			return nil, err
		}
		if op.Root, err = r.int(); err != nil {
			return nil, err
		}
		if op.Tag, err = r.int(); err != nil {
			return nil, err
		}
		if op.BI, err = r.int(); err != nil {
			return nil, err
		}
		if op.BJ, err = r.int(); err != nil {
			return nil, err
		}
		kind, err := r.int()
		if err != nil {
			return nil, err
		}
		if kind < 0 || kind > int(opR4Akj) {
			return nil, fmt.Errorf("apsp: DecodePlan: bad %s kind %d", what, kind)
		}
		op.Kind = uint8(kind)
		if op.Consumers, err = r.intSlice(what + " consumers"); err != nil {
			return nil, err
		}
		if op.Prune, err = r.prune(what); err != nil {
			return nil, err
		}
		if err := v.group(what, op.Group); err != nil {
			return nil, err
		}
		if !v.inGroup(op.Root) {
			return nil, fmt.Errorf("apsp: DecodePlan: %s root %d is not a member of its group", what, op.Root)
		}
		for _, c := range op.Consumers {
			if !v.inGroup(c) {
				return nil, fmt.Errorf("apsp: DecodePlan: %s consumer %d is not a member of its group", what, c)
			}
		}
		if err := firstErr(
			v.tag(what, op.Tag),
			v.block(what+" BI", op.BI),
			v.block(what+" BJ", op.BJ),
		); err != nil {
			return nil, err
		}
		// Only after BI/BJ are known-valid may the prune axes be checked
		// against the block dimensions.
		if err := v.prune(what, op.Prune, op.BI, op.BJ); err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DecodePlan parses bytes produced by Plan.Encode, rebuilds every
// derived structure (ordering inverse, supernode table, eTree, per-rank
// index), and verifies the embedded content hash against a recompute
// over the decoded schedule. Malformed, truncated or corrupted input
// returns an error; DecodePlan never panics.
func DecodePlan(b []byte) (*Plan, error) {
	if len(b) < len(planMagic)+planHashLen {
		return nil, fmt.Errorf("apsp: DecodePlan: %d bytes is shorter than the minimal envelope", len(b))
	}
	if string(b[:len(planMagic)]) != planMagic {
		return nil, fmt.Errorf("apsp: DecodePlan: bad magic %q (want %q)", b[:len(planMagic)], planMagic)
	}
	stored := b[len(b)-planHashLen:]
	r := &planReader{b: b[len(planMagic) : len(b)-planHashLen]}

	var hdr [6]int
	for i := range hdr {
		v, err := r.int()
		if err != nil {
			return nil, err
		}
		hdr[i] = v
	}
	p, h, nsup, wire, r4seq, tags := hdr[0], hdr[1], hdr[2], hdr[3], hdr[4], hdr[5]
	if h < 1 || h > 30 || nsup != (1<<h)-1 || p != nsup*nsup {
		return nil, fmt.Errorf("apsp: DecodePlan: inconsistent header p=%d h=%d nsup=%d", p, h, nsup)
	}
	if !WireFormat(wire).valid() {
		return nil, fmt.Errorf("apsp: DecodePlan: unknown wire format %d", wire)
	}
	if r4seq != 0 && r4seq != 1 {
		return nil, fmt.Errorf("apsp: DecodePlan: bad R4Seq flag %d", r4seq)
	}
	if tags < 0 {
		return nil, fmt.Errorf("apsp: DecodePlan: negative tag count %d", tags)
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

	v := &planValidator{p: p, nsup: nsup, tags: tags, sizes: sizes}
	numLevels, err := r.int()
	if err != nil {
		return nil, err
	}
	if numLevels != h {
		return nil, fmt.Errorf("apsp: DecodePlan: %d levels for height %d", numLevels, h)
	}
	levels := make([]planLevel, numLevels)
	for li := range levels {
		lv := &levels[li]
		if lv.R1, err = r.intSlice("R1"); err != nil {
			return nil, err
		}
		for _, k := range lv.R1 {
			if err := v.block("R1 pivot", k); err != nil {
				return nil, err
			}
		}
		if lv.R2, err = r.bcasts("R2", v); err != nil {
			return nil, err
		}
		if lv.R3, err = r.bcasts("R3", v); err != nil {
			return nil, err
		}
		if lv.R4Col, err = r.bcasts("R4Col", v); err != nil {
			return nil, err
		}
		if lv.R4Row, err = r.bcasts("R4Row", v); err != nil {
			return nil, err
		}
		if err := r.readUnits(lv, v); err != nil {
			return nil, err
		}
		if err := r.readReduces(lv, v); err != nil {
			return nil, err
		}
		if err := r.readSeqs(lv, v); err != nil {
			return nil, err
		}
		if err := r.readTrans(lv, v); err != nil {
			return nil, err
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("apsp: DecodePlan: %d trailing bytes after the schedule", r.remaining())
	}

	pl := &Plan{
		P: p, H: h, NSup: nsup,
		Wire:  WireFormat(wire),
		R4Seq: r4seq == 1,
		ND:    nd,
		Tree:  etree.New(h),
		Fill:  &FillMask{H: h, N: nsup, states: states},
		Tags:  tags,
	}
	pl.Levels = levels
	if got, want := pl.Hash(), hex.EncodeToString(stored); got != want {
		return nil, fmt.Errorf("apsp: DecodePlan: content hash mismatch (stored %s, recomputed %s)", want[:12], got[:12])
	}
	pl.ranks = indexRanks(pl)
	return pl, nil
}

func (r *planReader) readUnits(lv *planLevel, v *planValidator) error {
	n, err := r.length("R4Units")
	if err != nil {
		return err
	}
	lv.R4Units = make([]UnitOp, n)
	for i := range lv.R4Units {
		u := &lv.R4Units[i]
		for _, dst := range []*int{&u.Rank, &u.I, &u.K, &u.J} {
			if *dst, err = r.int(); err != nil {
				return err
			}
		}
		if err := firstErr(
			v.rank("unit", u.Rank),
			v.block("unit I", u.I),
			v.block("unit K", u.K),
			v.block("unit J", u.J),
		); err != nil {
			return err
		}
	}
	return nil
}

func (r *planReader) readReduces(lv *planLevel, v *planValidator) error {
	n, err := r.length("R4Reduce")
	if err != nil {
		return err
	}
	lv.R4Reduce = make([]ReduceOp, n)
	for i := range lv.R4Reduce {
		op := &lv.R4Reduce[i]
		if op.Group, err = r.intSlice("reduce group"); err != nil {
			return err
		}
		if err := v.group("reduce", op.Group); err != nil {
			return err
		}
		for _, dst := range []*int{&op.Root, &op.Tag, &op.BI, &op.BJ} {
			if *dst, err = r.int(); err != nil {
				return err
			}
		}
		if err := firstErr(
			v.rank("reduce root", op.Root),
			v.tag("reduce", op.Tag),
			v.block("reduce BI", op.BI),
			v.block("reduce BJ", op.BJ),
		); err != nil {
			return err
		}
	}
	return nil
}

func (r *planReader) readSeqs(lv *planLevel, v *planValidator) error {
	n, err := r.length("R4Seq")
	if err != nil {
		return err
	}
	lv.R4Seq = make([]SeqOp, n)
	for i := range lv.R4Seq {
		op := &lv.R4Seq[i]
		for _, dst := range []*int{&op.K, &op.BI, &op.BJ, &op.AikOwner, &op.AkjOwner, &op.Owner, &op.TagA, &op.TagB} {
			if *dst, err = r.int(); err != nil {
				return err
			}
		}
		if op.PruneA, err = r.prune("seq pruneA"); err != nil {
			return err
		}
		if op.PruneB, err = r.prune("seq pruneB"); err != nil {
			return err
		}
		if err := firstErr(
			v.block("seq K", op.K),
			v.block("seq BI", op.BI),
			v.block("seq BJ", op.BJ),
			v.rank("seq aik owner", op.AikOwner),
			v.rank("seq akj owner", op.AkjOwner),
			v.rank("seq owner", op.Owner),
			v.tag("seq A", op.TagA),
			v.tag("seq B", op.TagB),
		); err != nil {
			return err
		}
		if err := firstErr(
			v.prune("seq pruneA", op.PruneA, op.BI, op.K),
			v.prune("seq pruneB", op.PruneB, op.K, op.BJ),
		); err != nil {
			return err
		}
	}
	return nil
}

func (r *planReader) readTrans(lv *planLevel, v *planValidator) error {
	n, err := r.length("Trans")
	if err != nil {
		return err
	}
	lv.Trans = make([]TransOp, n)
	for i := range lv.Trans {
		op := &lv.Trans[i]
		for _, dst := range []*int{&op.Src, &op.Dst, &op.Tag, &op.BI, &op.BJ} {
			if *dst, err = r.int(); err != nil {
				return err
			}
		}
		if err := firstErr(
			v.rank("trans src", op.Src),
			v.rank("trans dst", op.Dst),
			v.tag("trans", op.Tag),
			v.block("trans BI", op.BI),
			v.block("trans BJ", op.BJ),
		); err != nil {
			return err
		}
	}
	return nil
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
