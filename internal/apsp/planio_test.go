package apsp

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sparseapsp/internal/comm"
	"sparseapsp/internal/graph"
)

// planioWorkloads builds the standard graph families used across the
// codec tests, with integer weights so distances are FP-exact.
func planioWorkloads(n int) map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(7))
	w := func(u, v int) float64 { return float64(rng.Intn(9) + 1) }
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	return map[string]*graph.Graph{
		"star": graph.Star(n, w),
		"tree": graph.RandomTree(n, w, rng),
		"grid": graph.Grid2D(side, side, w),
		"path": graph.Path(n, w),
		"gnp":  graph.RandomGNP(n, 4.0/float64(n), w, rng),
	}
}

func testLayout(t testing.TB, g *graph.Graph, p int) *Layout {
	t.Helper()
	h, err := HeightForP(p)
	if err != nil {
		t.Fatal(err)
	}
	ly, err := NewLayout(g, h, 42)
	if err != nil {
		t.Fatal(err)
	}
	return ly
}

func buildTestPlan(t testing.TB, g *graph.Graph, p int, wire WireFormat, r4 R4Strategy) *Plan {
	t.Helper()
	pl, err := BuildPlan(testLayout(t, g, p), p, wire, r4)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// labelOrderPlan is BuildPlan without the tree placement: what every
// writer up to SAPLAN03 produced, and the arrangement place.go starts
// from.
func labelOrderPlan(t testing.TB, ly *Layout, p int, wire WireFormat, r4 R4Strategy) *Plan {
	t.Helper()
	pl, _, err := buildLabelOrder(ly, p, wire, r4)
	if err != nil {
		t.Fatal(err)
	}
	pl.ranks = indexRanks(pl)
	return pl
}

// chosenTreesPlan is BuildPlan up to the tree choice (chooseTrees): the
// chosen trees over every member the schedule plans.
func chosenTreesPlan(t testing.TB, ly *Layout, p int, wire WireFormat, r4 R4Strategy) *Plan {
	t.Helper()
	return placedPlan(t, ly, p, wire, r4, func(pc *placer) { pc.chooseTrees() })
}

// droppedMirrorsPlan is chosenTreesPlan followed by dropMirrors: BuildPlan
// without the exact descent (descend), the plan it starts from.
func droppedMirrorsPlan(t testing.TB, ly *Layout, p int, wire WireFormat, r4 R4Strategy) *Plan {
	t.Helper()
	return placedPlan(t, ly, p, wire, r4, func(pc *placer) {
		pc.chooseTrees()
		pc.dropMirrors()
	})
}

// descendedPlan is droppedMirrorsPlan followed, on the pruned wire, by
// the exact descent (descend): BuildPlan without the dead-work drop
// (dropDead), the plan it starts from.
func descendedPlan(t testing.TB, ly *Layout, p int, wire WireFormat, r4 R4Strategy) *Plan {
	t.Helper()
	return placedPlan(t, ly, p, wire, r4, func(pc *placer) {
		pc.chooseTrees()
		if pc.dropMirrors(); len(pc.sends) > 0 {
			pc.descend()
		}
	})
}

// placedPlan is BuildPlan with place run on the placer in placeTrees'
// stead.
func placedPlan(t testing.TB, ly *Layout, p int, wire WireFormat, r4 R4Strategy, place func(pc *placer)) *Plan {
	t.Helper()
	pl, sends, err := buildLabelOrder(ly, p, wire, r4)
	if err != nil {
		t.Fatal(err)
	}
	place(newPlacer(pl, sends))
	pl.ranks = indexRanks(pl)
	return pl
}

// TestPlanEncodeDecodeRoundTrip proves the codec is faithful across
// graph families × wire formats × R4 strategies: the decoded plan has
// the same content hash, re-encodes to identical bytes, and executes
// to bit-identical distances and cost reports.
func TestPlanEncodeDecodeRoundTrip(t *testing.T) {
	const p = 49
	for name, g := range planioWorkloads(120) {
		for _, wire := range []WireFormat{WirePruned, WireDense} {
			for _, r4 := range []R4Strategy{R4Mapped, R4Sequential} {
				pl := buildTestPlan(t, g, p, wire, r4)
				enc := pl.Encode()
				dec, err := DecodePlan(enc)
				if err != nil {
					t.Fatalf("%s/%s/r4=%v: decode: %v", name, wire, r4, err)
				}
				if dec.Hash() != pl.Hash() {
					t.Fatalf("%s/%s/r4=%v: hash changed across round trip", name, wire, r4)
				}
				if !bytes.Equal(dec.Encode(), enc) {
					t.Fatalf("%s/%s/r4=%v: re-encoding a decoded plan changed the bytes", name, wire, r4)
				}
				want, err := pl.ExecuteOpts(pl.LayoutFor(g), ExecOpts{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := dec.ExecuteOpts(dec.LayoutFor(g), ExecOpts{})
				if err != nil {
					t.Fatalf("%s/%s/r4=%v: decoded plan failed to execute: %v", name, wire, r4, err)
				}
				if !want.Dist.Equal(got.Dist) {
					t.Fatalf("%s/%s/r4=%v: decoded plan computed different distances", name, wire, r4)
				}
				if !reflect.DeepEqual(want.Report, got.Report) {
					t.Fatalf("%s/%s/r4=%v: decoded plan charged different costs:\n  want %+v\n  got  %+v",
						name, wire, r4, want.Report, got.Report)
				}
			}
		}
	}
}

// TestDecodePlanMalformed drives the decoder over truncations and
// deterministic byte corruptions of a valid encoding: every outcome
// must be an error or a plan with the original hash — never a panic,
// never a silently different schedule.
func TestDecodePlanMalformed(t *testing.T) {
	g := graph.Grid2D(8, 8, graph.UnitWeights)
	pl := buildTestPlan(t, g, 9, WirePruned, R4Mapped)
	enc := pl.Encode()

	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := DecodePlan(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte(nil), enc...)
		for flips := 1 + rng.Intn(4); flips > 0; flips-- {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		dec, err := DecodePlan(mut)
		if err == nil && dec.Hash() != pl.Hash() {
			t.Fatalf("trial %d: corrupted plan decoded to a different schedule", trial)
		}
	}
	if _, err := DecodePlan(nil); err == nil {
		t.Fatal("nil input decoded without error")
	}
	if _, err := DecodePlan([]byte("XXPLAN99" + string(make([]byte, 64)))); err == nil {
		t.Fatal("foreign magic decoded without error")
	}
	// Trailing junk between the schedule and the hash must be rejected,
	// even under a trailer that matches it.
	padded := append(append([]byte(nil), enc[:len(enc)-sha256.Size]...), 0x00)
	sum := sha256.Sum256(padded[len(planMagic):])
	if _, err := DecodePlan(append(padded, sum[:]...)); err == nil {
		t.Fatal("trailing bytes decoded without error")
	}
}

// TestPlanStoreWarmRestart is the restart contract: a second cache on
// the same directory (a new process, as far as the cache can tell)
// serves the plan from disk with zero symbolic builds, and the plan it
// serves solves bit-identically.
func TestPlanStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	g := graph.Grid2D(12, 12, graph.UnitWeights)
	const p = 49

	cold, err := NewPlanCacheAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := SparseOptions{Seed: 42, Plans: cold}
	want, err := SparseAPSPWith(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Builds != 1 || st.DiskWrites != 1 || st.DiskHits != 0 {
		t.Fatalf("cold cache stats = %+v, want 1 build / 1 disk write", st)
	}

	warm, err := NewPlanCacheAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Plans = warm
	got, err := SparseAPSPWith(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Builds != 0 {
		t.Fatalf("warm restart ran %d symbolic builds, want 0 (stats %+v)", st.Builds, st)
	}
	if st.DiskHits != 1 || st.DiskErrors != 0 {
		t.Fatalf("warm cache stats = %+v, want exactly 1 disk hit", st)
	}
	if !want.Dist.Equal(got.Dist) {
		t.Fatal("persisted plan solved to different distances")
	}
	if !reflect.DeepEqual(want.Report, got.Report) {
		t.Fatal("persisted plan charged different costs")
	}

	// Third solve on the warm cache: a pure memory hit, no disk I/O.
	if _, err := SparseAPSPWith(g, p, opts); err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Hits != 1 || st.DiskHits != 1 {
		t.Fatalf("second warm solve stats = %+v, want 1 memory hit on top of the disk hit", st)
	}
}

// TestPlanStoreCorruptFileDegrades: a corrupted plan file must behave
// like a miss (rebuild + DiskErrors count), not fail the solve.
func TestPlanStoreCorruptFileDegrades(t *testing.T) {
	dir := t.TempDir()
	g := graph.Grid2D(10, 10, graph.UnitWeights)
	const p = 9

	c1, err := NewPlanCacheAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SparseAPSPWith(g, p, SparseOptions{Seed: 42, Plans: c1}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.plan"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly one plan file, got %v (%v)", files, err)
	}
	if err := os.WriteFile(files[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewPlanCacheAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SparseAPSPWith(g, p, SparseOptions{Seed: 42, Plans: c2}); err != nil {
		t.Fatalf("solve with corrupted plan file failed: %v", err)
	}
	if st := c2.Stats(); st.Builds != 1 || st.DiskErrors != 1 {
		t.Fatalf("stats after corrupted load = %+v, want 1 build and 1 disk error", st)
	}
}

// stripPrunes turns pl into what an SAPLAN01 writer left behind: the
// mask-skipped schedule with every prune descriptor absent.
func stripPrunes(pl *Plan) {
	for _, ops := range pl.Levels {
		for x := range ops {
			ops[x].Prune = nil
		}
	}
}

// addLevel1R3 turns pl into what an SAPLAN02 writer left behind at
// level 1: one R3 broadcast per R2-updated panel, over the pivot's whole
// related set, with no consumer (leaves have no descendants) and hence
// the empty demand descriptor.
func addLevel1R3(pl *Plan) {
	for _, r2 := range pl.Levels[0] {
		if r2.Kind != opR2Left && r2.Kind != opR2Right {
			continue
		}
		rel := pl.Tree.RelatedSet(r2.BI)
		for _, root := range r2.Consumers {
			i, j := blockOf(root, pl.NSup)
			op := Op{Kind: opR3Row, BI: i, BJ: j, Root: root}
			empty := &PruneSpec{Cols: []int32{}}
			if r2.Kind == opR2Right {
				op.Kind, empty = opR3Col, &PruneSpec{Rows: []int32{}}
			}
			for _, x := range rel {
				if op.Kind == opR3Row { // column panel A(i,k) along row i
					op.Group = append(op.Group, (i-1)*pl.NSup+x-1)
				} else { // row panel A(k,j) down column j
					op.Group = append(op.Group, (x-1)*pl.NSup+j-1)
				}
				op.Prune = append(op.Prune, empty)
			}
			labelTree(&op)
			pl.Levels[0] = append(pl.Levels[0], op) // R3 is a level's last phase
		}
	}
}

// TestPlanStoreRejectsStaleFormat: a plan directory written by an older
// binary holds files filed under the very fingerprint today's default
// hashes to — SAPLAN01 from before the demand-pruned wire took value 0
// (wire=0 plans with no prune descriptors), SAPLAN02 from before
// BuildPlan stopped planning broadcasts nobody folds, SAPLAN03 from
// before it chose the group orders (label-order trees), SAPLAN04 from
// before the op table (a file that cannot name its structure), SAPLAN05
// from before it chose each broadcast's tree (binomial trees, with more
// critical words and messages), SAPLAN06 from before a broadcast's
// descriptors were per edge (one per broadcast, with more words),
// SAPLAN07 from before a rank that folds a panel against its mirror left
// the mirror's broadcast, SAPLAN08 from before the trees were re-placed
// at exact prices after that drop, SAPLAN09 from before R3 computed
// each sink block in one orientation, SAPLAN10 from before pivots and
// diagonal reduces shipped as triangles and mirror holders served panel
// broadcasts (trees placed at the old prices), and SAPLAN11 from before
// the work whose result is already known left the schedule. The SAPLAN04
// to 11 testdata files are the ones those writers saved for this grid.
// Serving any of them would silently replay the old schedule's costs or
// someone else's schedule, so it must count as a disk error, be rebuilt
// and be overwritten in the current format.
func TestPlanStoreRejectsStaleFormat(t *testing.T) {
	g := graph.Grid2D(12, 12, graph.UnitWeights)
	const p = 49
	fp := StructureFingerprintOf(g, p, 42, WirePruned, R4Mapped)
	fresh, err := SparseAPSPWith(g, p, SparseOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	totalWords := func(r comm.Report) int64 { return r.TotalWords }
	criticalWords := func(r comm.Report) int64 { return r.Critical.Bandwidth }
	for _, tc := range []struct {
		magic string
		// stale builds the plan the old writer left behind. It must not
		// have been hashed yet, so the content-hash trailer is the stale
		// plan's own and, filed under the right fingerprint, only the
		// magic can reject it. Nil for a case whose file is committed
		// under testdata.
		stale func() *Plan
		// cost is what serving the stale file would have raised: the bug
		// the magic bump closes.
		cost func(comm.Report) int64
	}{
		{"SAPLAN01", func() *Plan {
			pl := buildTestPlan(t, g, p, WirePruned, R4Mapped)
			stripPrunes(pl)
			return pl
		}, totalWords},
		{"SAPLAN02", func() *Plan {
			pl := buildTestPlan(t, g, p, WirePruned, R4Mapped)
			addLevel1R3(pl)
			return pl
		}, totalWords},
		{"SAPLAN03", func() *Plan { return labelOrderPlan(t, testLayout(t, g, p), p, WirePruned, R4Mapped) }, criticalWords},
		{"SAPLAN04", nil, nil},
		{"SAPLAN05", nil, nil},
		{"SAPLAN06", nil, nil},
		{"SAPLAN07", nil, nil},
		{"SAPLAN08", nil, nil},
		{"SAPLAN09", nil, nil},
		{"SAPLAN10", nil, nil},
		{"SAPLAN11", nil, nil},
	} {
		dir := t.TempDir()
		var old, file []byte
		var servable *Plan
		if tc.stale == nil {
			if file, err = os.ReadFile(filepath.Join("testdata", "grid12x12-p49-seed42."+tc.magic+".plan")); err != nil {
				t.Fatal(err)
			}
			old = file
		} else {
			old = tc.stale().Encode()
			if servable, err = DecodePlan(old); err != nil {
				t.Fatalf("%s: stale plan under the current magic must be a valid encoding: %v", tc.magic, err)
			}
			copy(old, tc.magic)
			file = append(old, fp[:]...)
		}
		if _, err := DecodePlan(old); err == nil {
			t.Fatalf("%s file decoded without error", tc.magic)
		}
		path := filepath.Join(dir, fp.String()+".plan")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}

		c, err := NewPlanCacheAt(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SparseAPSPWith(g, p, SparseOptions{Seed: 42, Plans: c})
		if err != nil {
			t.Fatalf("%s: solve over a stale plan file failed: %v", tc.magic, err)
		}
		if st := c.Stats(); st.DiskErrors != 1 || st.Builds != 1 || st.DiskWrites != 1 || st.DiskHits != 0 {
			t.Fatalf("%s: stats over a stale plan file = %+v, want 1 disk error / 1 build / 1 disk write", tc.magic, st)
		}
		if !reflect.DeepEqual(got.Report, fresh.Report) {
			t.Fatalf("%s: rebuilt plan charged %d critical words, fresh build %d",
				tc.magic, got.Report.Critical.Bandwidth, fresh.Report.Critical.Bandwidth)
		}
		rewritten, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(rewritten, []byte(planMagic)) {
			t.Fatalf("%s: stale file not overwritten: magic %q", tc.magic, rewritten[:len(planMagic)])
		}
		if servable == nil {
			continue
		}
		served, err := servable.ExecuteOpts(servable.LayoutFor(g), ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if tc.cost(served.Report) <= tc.cost(fresh.Report) {
			t.Fatalf("%s: stale plan costs %d words, fresh %d: the fixture no longer models an old file",
				tc.magic, tc.cost(served.Report), tc.cost(fresh.Report))
		}
		if !identicalMatrices(served.Dist, fresh.Dist) {
			t.Fatalf("%s: stale plan's distances differ — the fixture is not a valid schedule", tc.magic)
		}
	}
}

type unrunnablePlan struct {
	name string
	pl   *Plan // the edited plan
	enc  []byte
}

// narrowBcast returns a broadcast of pl of two or more members whose
// whole-group descriptor keeps a strict subset of one axis (*axis, over
// dim indices) — so position 1's descriptor does too.
func narrowBcast(t testing.TB, pl *Plan) (op *Op, axis *[]int32, dim int) {
	for _, ops := range pl.Levels {
		for x := range ops {
			op := &ops[x]
			if !isBcast(op.Kind) || len(op.Group) < 2 || op.prune(0) == nil {
				continue
			}
			switch spec := op.Prune[0]; {
			case spec.Rows != nil:
				return op, &spec.Rows, pl.ND.Sizes[op.BI]
			case spec.Cols != nil:
				return op, &spec.Cols, pl.ND.Sizes[op.BJ]
			}
		}
	}
	t.Fatal("fixture plan has no narrowed broadcast")
	return nil, nil, 0
}

// unrunnableGroupPlans returns hash-consistent encodings of plans whose
// ops cannot run: each fixture is edited before its first Hash, so the
// trailer matches and only the validator can reject it. Executing any
// of them panics in comm's groupPos or BcastTree, deadlocks, indexes a
// group out of range, multiplies operands of the wrong shape, or
// computes from a block other than the one the op names — or carries a
// field its kind does not use, which no plan BuildPlan writes.
func unrunnableGroupPlans(t testing.TB) []unrunnablePlan {
	g := graph.Grid2D(8, 8, graph.UnitWeights)
	first := func(pl *Plan, kind uint8, minGroup int) *Op {
		for _, ops := range pl.Levels {
			for x := range ops {
				if op := &ops[x]; op.Kind == kind && len(op.Group) >= minGroup {
					return op
				}
			}
		}
		t.Fatalf("fixture plan has no %s op over %d members", dfKindNames[kind], minGroup)
		return nil
	}
	// addHolder lists rank r in broadcast op as a childless mirror
	// holder whose subtree is sent spec.
	addHolder := func(op *Op, r int, spec *PruneSpec) {
		op.Group, op.Parent = append(op.Group, r), append(op.Parent, -1)
		if op.Prune != nil {
			op.Prune = append(op.Prune, spec)
		}
	}
	// outsider is a rank neither in op's group nor holding its mirror.
	outsider := func(pl *Plan, op *Op, pair *Op) int {
		for r := 0; r < pl.P; r++ {
			if !contains(op.Group, r) && r != mirrorOwner(op, pl.NSup) && (pair == nil || !contains(pair.Consumers, r)) {
				return r
			}
		}
		t.Fatal("fixture plan has no rank outside a broadcast")
		return -1
	}
	// pairOf is the level's earlier broadcast of op's mirror, nil if none.
	pairOf := func(ops []Op, op *Op) *Op {
		for y := range ops {
			if p := &ops[y]; p.Kind == mirrorPair(op.Kind) && p.BI == op.BJ && p.BJ == op.BI {
				return p
			}
		}
		return nil
	}
	var out []unrunnablePlan
	for _, fx := range []struct {
		name string
		r4   R4Strategy
		edit func(pl *Plan)
	}{
		{"mirror holder on the dense wire", R4Mapped, func(pl *Plan) {
			for _, ops := range pl.Levels {
				for x := range ops {
					if isBcast(ops[x].Kind) && servedByMirror(&ops[x]) {
						pl.Wire = WireDense
						stripPrunes(pl)
						return
					}
				}
			}
			t.Fatal("fixture plan has no mirror holder")
		}},
		{"mirror holder owning no mirror and holding no slice", R4Mapped, func(pl *Plan) {
			for _, ops := range pl.Levels {
				for x := range ops {
					if op := &ops[x]; op.Kind == opR3Col {
						addHolder(op, outsider(pl, op, pairOf(ops, op)), op.prune(0))
						return
					}
				}
			}
			t.Fatal("fixture plan has no R3 column broadcast")
		}},
		{"mirror holder of an R2 column pivot", R4Mapped, func(pl *Plan) {
			op := first(pl, opR2Left, 2)
			addHolder(op, outsider(pl, op, nil), op.prune(0))
		}},
		{"mirror holder whose slice misses its subtree's demand", R4Mapped, func(pl *Plan) {
			for _, ops := range pl.Levels {
				for x := range ops {
					late := &ops[x]
					pair := pairOf(ops, late)
					if pair == nil {
						continue
					}
					whole := prunedAxis(late.Kind, late.prune(0))
					for _, c := range pair.Consumers {
						kept := prunedAxis(pair.Kind, pair.prune(position(pair.Group, c)))
						if contains(late.Group, c) || kept == nil {
							continue
						}
						for r := int32(0); int(r) < pl.ND.Sizes[late.BI]; r++ {
							if slices.Contains(kept, r) || whole != nil && !slices.Contains(whole, r) {
								continue
							}
							spec := &PruneSpec{Rows: []int32{r}, ZeroDiag: late.Kind == opR2Right}
							if late.Kind == opR2Right {
								spec.Rows, spec.Cols = nil, spec.Rows
							}
							addHolder(late, c, spec)
							return
						}
					}
				}
			}
			t.Fatal("fixture plan has no pair-broadcast consumer missing an index of the later broadcast's demand")
		}},
		{"R3 group lacks its root", R4Mapped, func(pl *Plan) {
			op := first(pl, opR3Row, 3)
			op.Group, op.Parent = op.Group[1:], op.Parent[1:] // the root is first
			op.Consumers = append([]int(nil), op.Group...)
			op.Parent[0] = -1
		}},
		{"R3 group lists a member twice", R4Mapped, func(pl *Plan) {
			op := first(pl, opR3Row, 3)
			op.Group, op.Parent = append(op.Group, op.Group[1]), append(op.Parent, 0)
		}},
		{"R3 consumer outside the group", R4Mapped, func(pl *Plan) {
			op := first(pl, opR3Row, 3)
			for r := 0; r < pl.P; r++ {
				if !contains(op.Group, r) {
					op.Consumers = append(op.Consumers, r)
					return
				}
			}
		}},
		{"reduce group lists a member twice", R4Mapped, func(pl *Plan) {
			op := first(pl, opReduce, 1)
			op.Group = append(op.Group, op.Group[0])
		}},
		{"R3 root is another member of its row", R4Mapped, func(pl *Plan) {
			op := first(pl, opR3Row, 3)
			op.Root = op.Group[1]
		}},
		{"R2 pivot consumed outside its column", R4Mapped, func(pl *Plan) {
			op := first(pl, opR2Left, 2)
			for r := 0; r < pl.P; r++ {
				if r%pl.NSup+1 != op.BJ {
					op.Group, op.Parent = append(op.Group, r), append(op.Parent, 0)
					op.Consumers = append(op.Consumers, r)
					return
				}
			}
		}},
		{"R3 panels of two pivots", R4Mapped, func(pl *Plan) {
			for _, ops := range pl.Levels {
				for x := range ops {
					for y := range ops {
						a, b := &ops[x], &ops[y]
						if a.Kind != opR3Col || b.Kind != opR3Col || a.BJ != b.BJ || a.BI == b.BI ||
							len(a.Consumers) == 0 || contains(b.Group, a.Consumers[0]) {
							continue
						}
						c := a.Consumers[0] // it keeps its row panel over a.BI
						a.Consumers = a.Consumers[1:]
						b.Group, b.Consumers = append(b.Group, c), append(b.Consumers, c)
						b.Parent = append(b.Parent, 0)
						return
					}
				}
			}
			t.Fatal("fixture plan has no two R3 column panels in one column")
		}},
		{"transpose to a rank other than the mirror's owner", R4Mapped, func(pl *Plan) {
			op := first(pl, opTrans, 1)
			op.Root = (op.Root + 1) % pl.P
			if op.Root == op.Group[0] {
				op.Root = (op.Root + 1) % pl.P
			}
		}},
		{"seq members swapped", R4Sequential, func(pl *Plan) {
			op := first(pl, opSeq, 2)
			op.Group[0], op.Group[1] = op.Group[1], op.Group[0]
		}},
		{"R3 parent not earlier than its child", R4Mapped, func(pl *Plan) {
			op := first(pl, opR3Row, 3)
			op.Parent[1] = 2
		}},
		{"R3 parent out of range", R4Mapped, func(pl *Plan) {
			op := first(pl, opR3Row, 3)
			op.Parent[2] = -1 // a second root
		}},
		{"R3 root not at position 0", R4Mapped, func(pl *Plan) {
			op := first(pl, opR3Row, 3)
			op.Group[0], op.Group[1] = op.Group[1], op.Group[0]
		}},
		{"reduce carries a broadcast tree", R4Mapped, func(pl *Plan) {
			op := first(pl, opReduce, 1)
			op.Parent = make([]int32, len(op.Group))
			op.Parent[0] = -1
		}},
		{"broadcast child's descriptor wider than its parent's", R4Mapped, func(pl *Plan) {
			op, _, _ := narrowBcast(t, pl)
			// Full; its parent, the root, keeps less.
			op.Prune[1] = nil
			if op.Prune[0].ZeroDiag {
				op.Prune[1] = &PruneSpec{ZeroDiag: true}
			}
		}},
		{"broadcast descriptors mix ZeroDiag", R4Mapped, func(pl *Plan) {
			op, _, _ := narrowBcast(t, pl)
			op.Prune[1].ZeroDiag = !op.Prune[1].ZeroDiag
		}},
		{"keep-list listing every index", R4Mapped, func(pl *Plan) {
			_, axis, dim := narrowBcast(t, pl)
			*axis = make([]int32, dim)
			for c := range *axis {
				(*axis)[c] = int32(c)
			}
		}},
		{"diagonal unit without its column panel", R4Mapped, func(pl *Plan) {
			dropUnitOperand(t, pl, opR4Aik, true)
		}},
		{"off-diagonal unit without its row panel", R4Mapped, func(pl *Plan) {
			dropUnitOperand(t, pl, opR4Akj, false)
		}},
		{"diagonal R3 combine without its row panel", R4Mapped, func(pl *Plan) {
			for _, ops := range pl.Levels {
				for x := range ops {
					row := &ops[x]
					if row.Kind != opR3Row {
						continue
					}
					r := (row.BI-1)*pl.NSup + row.BI - 1 // the diagonal block of the panel's row
					p := position(row.Group, r)
					if p < 1 || slices.Contains(row.Parent, int32(p)) {
						continue
					}
					for y := range ops {
						col := &ops[y]
						if col.Kind != opR3Col || col.BI != row.BJ || col.BJ != row.BI || contains(col.Group, r) {
							continue
						}
						// The rank moves from the row panel's tree to the
						// column panel's, a leaf under its root.
						dropLeaf(row, p)
						col.Group, col.Parent, col.Consumers = append(col.Group, r), append(col.Parent, 0), append(col.Consumers, r)
						if col.Prune != nil {
							col.Prune = append(col.Prune, col.Prune[0])
						}
						return
					}
				}
			}
			t.Fatal("fixture plan has no diagonal R3 row-panel leaf beside a column panel")
		}},
		{"R3 row panel handed to a sink's mirror", R4Mapped, func(pl *Plan) { handSinkMirror(t, pl, opR3Row) }},
		{"R3 column panel handed to a sink's mirror", R4Mapped, func(pl *Plan) { handSinkMirror(t, pl, opR3Col) }},
		{"two units on one rank", R4Mapped, func(pl *Plan) {
			for _, ops := range pl.Levels {
				var units []*Op
				for x := range ops {
					if ops[x].Kind == opUnit {
						units = append(units, &ops[x])
					}
				}
				if len(units) >= 2 {
					units[1].Root = units[0].Root
					return
				}
			}
			t.Fatal("fixture plan has no level with two units")
		}},
	} {
		pl := buildTestPlan(t, g, 49, WirePruned, fx.r4)
		fx.edit(pl)
		out = append(out, unrunnablePlan{fx.name, pl, pl.Encode()})
	}
	return out
}

// dropLeaf removes the member at position p of broadcast op, one that
// relays to no one, with its descriptor.
func dropLeaf(op *Op, p int) {
	r := op.Group[p]
	if op.Prune != nil {
		op.Prune = slices.Delete(op.Prune, p, p+1)
	}
	dropLeaves(op, nil, func(m int) bool { return m == r })
}

// handSinkMirror adds to the first R3 broadcast of kind (opR3Row or
// opR3Col) whose panel the mirror of a sink block would fold were both
// orientations computed that mirror's rank, as a leaf under the root
// that folds the panel — the schedule the dense wire plans.
func handSinkMirror(t testing.TB, pl *Plan, kind uint8) {
	for li, ops := range pl.Levels {
		for x := range ops {
			op := &ops[x]
			if op.Kind != kind {
				continue
			}
			k := op.BJ // the pivot: a row broadcast ships A(i,k), a column one A(k,j)
			if kind == opR3Col {
				k = op.BI
			}
			for _, y := range pl.Tree.RelatedSet(k) {
				i, j := op.BI, y
				if kind == opR3Col {
					i, j = y, op.BJ
				}
				if !sinkMirror(pl.Tree, li+1, i, j) {
					continue
				}
				r := (i-1)*pl.NSup + j - 1
				op.Group, op.Parent, op.Consumers = append(op.Group, r), append(op.Parent, 0), append(op.Consumers, r)
				op.Prune = append(op.Prune, op.Prune[0])
				return
			}
		}
	}
	t.Fatalf("fixture plan has no %s panel a sink's mirror would fold", dfKindNames[kind])
}

// dropUnitOperand removes, from the first R4 panel broadcast of kind
// (opR4Aik or opR4Akj) that hands a unit over a diagonal block (diagonal
// set) or an off-diagonal one its operand, that unit's rank — a leaf of
// the broadcast's tree, so the tree and its descriptors stay valid.
func dropUnitOperand(t testing.TB, pl *Plan, kind uint8, diagonal bool) {
	for _, ops := range pl.Levels {
		unitOf := make(map[int]*Op)
		for x := range ops {
			if ops[x].Kind == opUnit {
				unitOf[ops[x].Root] = &ops[x]
			}
		}
		for x := range ops {
			op := &ops[x]
			if op.Kind != kind {
				continue
			}
			for p := 1; p < len(op.Group); p++ {
				r := op.Group[p]
				if u := unitOf[r]; u == nil || (u.BI == u.BJ) != diagonal || slices.Contains(op.Parent, int32(p)) {
					continue
				}
				dropLeaf(op, p)
				return
			}
		}
	}
	t.Fatalf("fixture plan hands no %s unit a %s panel from a leaf", map[bool]string{true: "diagonal", false: "off-diagonal"}[diagonal], dfKindNames[kind])
}

// TestDecodePlanRejectsUnrunnableGroups: a broadcast is a set plus a
// chosen tree, and the decoder validates the set — root at position 0,
// members pairwise distinct, consumers inside — and that the tree is
// one — a parent per member, each an earlier position — for every
// broadcast, distinct members and no tree for every reduce. Every op is
// rooted at the owner of its block, seq and transpose sources at theirs;
// R2 and R3 payloads reach only their block's column or row; a rank's R3
// panels meet at one pivot; a level's units are one per rank, each
// handed its own column panel and, off the diagonal, its row panel; and
// a broadcast's descriptors are
// canonical, share one ZeroDiag value and never widen down the tree — a
// relay can forward only what it received. Which tree it is, is free.
func TestDecodePlanRejectsUnrunnableGroups(t *testing.T) {
	for _, fx := range unrunnableGroupPlans(t) {
		_, err := DecodePlan(fx.enc)
		switch {
		case err == nil:
			t.Errorf("%s: decoded without error", fx.name)
		case strings.HasPrefix(fx.name, "mirror holder") && !strings.Contains(err.Error(), "holder") && !strings.Contains(err.Error(), "no parent"):
			t.Errorf("%s: rejected for another reason: %v", fx.name, err)
		}
	}
	// Any tree over a valid set decodes: reversing a group's tail keeps
	// the set and the parent list and moves only who sits where.
	// A mirror holder keeps its position: it holds the payload, the
	// others receive it.
	pl := buildTestPlan(t, graph.Grid2D(8, 8, graph.UnitWeights), 49, WirePruned, R4Mapped)
	for _, ops := range pl.Levels {
		for _, op := range ops {
			if op.Kind != opR3Row && op.Kind != opR3Col {
				continue
			}
			i := 1
			for op.holdsMirror(i) {
				i++
			}
			for j := len(op.Group) - 1; i < j; i, j = i+1, j-1 {
				op.Group[i], op.Group[j] = op.Group[j], op.Group[i]
			}
		}
	}
	if _, err := DecodePlan(pl.Encode()); err != nil {
		t.Errorf("a re-ordered group must decode: %v", err)
	}
}

// TestPlanStoreRejectsMisfiledPlan: a plan file is self-consistent under
// its content hash whatever it is named, so a file renamed to, or
// written under, another structure's fingerprint would serve that
// structure someone else's schedule. The file carries the fingerprint it
// was saved under; a mismatch counts as a disk error, is rebuilt and is
// overwritten, and the solve is the fresh one.
func TestPlanStoreRejectsMisfiledPlan(t *testing.T) {
	const p = 49
	grid := graph.Grid2D(12, 12, graph.UnitWeights)
	path := graph.Path(144, graph.UnitWeights)
	dir := t.TempDir()
	c, err := NewPlanCacheAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SparseAPSPWith(grid, p, SparseOptions{Seed: 42, Plans: c}); err != nil {
		t.Fatal(err)
	}
	gridFile := filepath.Join(dir, StructureFingerprintOf(grid, p, 42, WirePruned, R4Mapped).String()+".plan")
	pathFile := filepath.Join(dir, StructureFingerprintOf(path, p, 42, WirePruned, R4Mapped).String()+".plan")
	if err := os.Rename(gridFile, pathFile); err != nil {
		t.Fatal(err)
	}

	c, err = NewPlanCacheAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SparseAPSPWith(path, p, SparseOptions{Seed: 42, Plans: c})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskErrors != 1 || st.Builds != 1 || st.DiskWrites != 1 || st.DiskHits != 0 {
		t.Fatalf("stats over a misfiled plan = %+v, want 1 disk error / 1 build / 1 disk write", st)
	}
	fresh, err := SparseAPSPWith(path, p, SparseOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !identicalMatrices(got.Dist, fresh.Dist) || !reflect.DeepEqual(got.Report, fresh.Report) {
		t.Fatal("solve over a misfiled plan differs from a fresh solve")
	}
	st, err := NewPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Load(StructureFingerprintOf(path, p, 42, WirePruned, R4Mapped)); !ok || err != nil {
		t.Fatalf("misfiled plan not overwritten by the path's own: ok=%v err=%v", ok, err)
	}
}
