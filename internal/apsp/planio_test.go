package apsp

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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
	pl, err := buildLabelOrder(ly, p, wire, r4)
	if err != nil {
		t.Fatal(err)
	}
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
	// Trailing junk between the schedule and the hash must be rejected.
	padded := append(append([]byte(nil), enc[:len(enc)-planHashLen]...), 0xFF)
	padded = append(padded, enc[len(enc)-planHashLen:]...)
	if _, err := DecodePlan(padded); err == nil {
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
	for li := range pl.Levels {
		lv := &pl.Levels[li]
		for _, ops := range [][]BcastOp{lv.R2, lv.R3, lv.R4Col, lv.R4Row} {
			for i := range ops {
				ops[i].Prune = nil
			}
		}
		for i := range lv.R4Seq {
			lv.R4Seq[i].PruneA, lv.R4Seq[i].PruneB = nil, nil
		}
	}
}

// addLevel1R3 turns pl into what an SAPLAN02 writer left behind at
// level 1: one R3 broadcast per R2-updated panel, over the pivot's whole
// related set, with no consumer (leaves have no descendants) and hence
// the empty demand descriptor.
func addLevel1R3(pl *Plan) {
	lv := &pl.Levels[0]
	for _, r2 := range lv.R2 {
		k := r2.BI
		rel := pl.Tree.RelatedSet(k)
		for _, root := range r2.Consumers {
			i, j := blockOf(root, pl.NSup)
			op := BcastOp{Root: root, Tag: pl.Tags, BI: i, BJ: j, Kind: opR3Row, Prune: &PruneSpec{Cols: []int32{}}}
			if r2.Kind == opR2Right {
				op.Kind, op.Prune = opR3Col, &PruneSpec{Rows: []int32{}}
			}
			pl.Tags++
			for _, x := range rel {
				if op.Kind == opR3Row { // column panel A(i,k) along row i
					op.Group = append(op.Group, (i-1)*pl.NSup+x-1)
				} else { // row panel A(k,j) down column j
					op.Group = append(op.Group, (x-1)*pl.NSup+j-1)
				}
			}
			lv.R3 = append(lv.R3, op)
		}
	}
}

// TestPlanStoreRejectsStaleFormat: a plan directory written by an older
// binary holds files filed under the very fingerprint today's default
// hashes to — SAPLAN01 from before the demand-pruned wire took value 0
// (wire=0 plans with no prune descriptors), SAPLAN02 from before
// BuildPlan stopped planning broadcasts nobody folds, SAPLAN03 from
// before it chose the group orders (label-order trees). Serving any of
// them would silently replay the old schedule's costs, so it must count
// as a disk error, be rebuilt and be overwritten in the current format.
func TestPlanStoreRejectsStaleFormat(t *testing.T) {
	g := graph.Grid2D(12, 12, graph.UnitWeights)
	const p = 49
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
		// plan's own and only the magic can reject it.
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
	} {
		dir := t.TempDir()
		old := tc.stale().Encode()
		servable, err := DecodePlan(old)
		if err != nil {
			t.Fatalf("%s: stale plan under the current magic must be a valid encoding: %v", tc.magic, err)
		}
		copy(old, tc.magic)
		if _, err := DecodePlan(old); err == nil {
			t.Fatalf("%s file decoded without error", tc.magic)
		}
		path := filepath.Join(dir, StructureFingerprintOf(g, p, 42, WirePruned, R4Mapped).String()+".plan")
		if err := os.WriteFile(path, old, 0o644); err != nil {
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
	enc  []byte
}

// unrunnableGroupPlans returns hash-consistent encodings of plans whose
// collectives cannot run: each fixture is edited before its first Hash,
// so the trailer matches and only the group validation can reject it.
// Executing any of them panics in comm's groupPos or deadlocks.
func unrunnableGroupPlans(t testing.TB) []unrunnablePlan {
	g := graph.Grid2D(8, 8, graph.UnitWeights)
	firstR3 := func(pl *Plan) *BcastOp {
		for li := range pl.Levels {
			for x := range pl.Levels[li].R3 {
				if op := &pl.Levels[li].R3[x]; len(op.Group) >= 3 {
					return op
				}
			}
		}
		t.Fatal("fixture plan has no R3 broadcast over three members")
		return nil
	}
	var out []unrunnablePlan
	for _, fx := range []struct {
		name string
		edit func(pl *Plan)
	}{
		{"R3 group lacks its root", func(pl *Plan) {
			op := firstR3(pl)
			op.Group = op.Group[1:] // placement puts the root first
			op.Consumers = append([]int(nil), op.Group...)
		}},
		{"R3 group lists a member twice", func(pl *Plan) {
			op := firstR3(pl)
			op.Group = append(op.Group, op.Group[1])
		}},
		{"R3 consumer outside the group", func(pl *Plan) {
			op := firstR3(pl)
			for r := 0; r < pl.P; r++ {
				if !contains(op.Group, r) {
					op.Consumers = append(op.Consumers, r)
					return
				}
			}
		}},
		{"reduce group lists a member twice", func(pl *Plan) {
			for li := range pl.Levels {
				if ops := pl.Levels[li].R4Reduce; len(ops) > 0 {
					ops[0].Group = append(ops[0].Group, ops[0].Group[0])
					return
				}
			}
			t.Fatal("fixture plan has no reduce")
		}},
	} {
		pl := buildTestPlan(t, g, 49, WirePruned, R4Mapped)
		fx.edit(pl)
		out = append(out, unrunnablePlan{fx.name, pl.Encode()})
	}
	return out
}

// TestDecodePlanRejectsUnrunnableGroups: a group is a set plus a chosen
// order, and the decoder validates the set — root inside, members
// pairwise distinct, consumers inside — for every broadcast, and
// distinct members for every reduce. The order itself is free.
func TestDecodePlanRejectsUnrunnableGroups(t *testing.T) {
	for _, fx := range unrunnableGroupPlans(t) {
		if _, err := DecodePlan(fx.enc); err == nil {
			t.Errorf("%s: decoded without error", fx.name)
		}
	}
	// Any order of a valid set decodes: reversing a group's tail keeps
	// the set and moves only the tree.
	pl := buildTestPlan(t, graph.Grid2D(8, 8, graph.UnitWeights), 49, WirePruned, R4Mapped)
	for li := range pl.Levels {
		for x := range pl.Levels[li].R3 {
			g := pl.Levels[li].R3[x].Group
			for i, j := 1, len(g)-1; i < j; i, j = i+1, j-1 {
				g[i], g[j] = g[j], g[i]
			}
		}
	}
	if _, err := DecodePlan(pl.Encode()); err != nil {
		t.Errorf("a re-ordered group must decode: %v", err)
	}
}
