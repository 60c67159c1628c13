package apsp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sparseapsp/internal/graph"
	"sparseapsp/internal/semiring"
)

// goldenCase is one (graph family, machine size) pair of the frozen
// pre-refactor cost table. Each family builds its graph from its own
// independently seeded RNG, so adding or reordering cases cannot
// silently change another case's graph.
type goldenCase struct {
	name string
	g    *graph.Graph
	p    int
}

func goldenCases() []goldenCase {
	mk := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	return []goldenCase{
		{"grid", graph.Grid2D(9, 9, integerWeights(mk(101), 10)), 9},
		{"grid49", graph.Grid2D(13, 13, integerWeights(mk(102), 10)), 49},
		{"gnp", graph.RandomGNP(70, 0.08, integerWeights(mk(103), 5), mk(203)), 9},
		{"tree", graph.RandomTree(90, graph.UnitWeights, mk(104)), 49},
		{"rmat", graph.RMAT(6, 3, integerWeights(mk(105), 4), mk(205)), 9},
		{"star", graph.Star(60, graph.UnitWeights), 9},
	}
}

// distHash is the first 16 hex chars of a sha256 over the raw Float64
// bit patterns of the distance matrix — a bit-exactness fingerprint.
func distHash(m *semiring.Matrix) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range m.V {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

type goldenRow struct {
	CritLatency   int64
	CritBandwidth int64
	CritFlops     int64
	TotalMessages int64
	TotalWords    int64
	MaxMemory     int64
	DistHash      string
}

type goldenKey struct {
	Family string
	Mode   string // wire format, or "dc" for the dense comparator
	R4     R4Strategy
}

// goldenTable pins distances (to the bit) and every charged cost —
// critical latency/bandwidth/flops, message and word totals, peak
// memory. The DistHash column was captured from the fused
// (pre-Plan/Execute) solver and has never moved; neither has MaxMemory.
// The cost columns of the sparse rows were re-pinned once, when the
// schedule stopped planning broadcasts nobody folds and moved R4 ahead
// of R3 (EXPERIMENTS.md E29) — dense rows included, since the dense
// wire shipped those panels in full — and their critical latency and
// bandwidth once more when BuildPlan started choosing the broadcast
// group orders (E30): bandwidth fell on 20 of 24 rows (the star's four
// stayed), latency, the totals and MaxMemory moved nowhere, and critical
// flops on one row (tree/pruned/mapped 13,127 → 13,138: a relay's flop
// clock rides along its messages). They moved again when BuildPlan
// started choosing each broadcast's tree, not only its order (E40):
// latency and bandwidth fell on the 12 grid49, gnp and tree rows,
// tree/pruned/mapped's flops went back to 13,127, and the totals,
// MaxMemory and DistHash moved nowhere. They moved once more when a
// broadcast edge started shipping only what its subtree folds (E41): on
// the six pruned grid49, gnp and tree rows critical and total words fell
// (and grid49's critical flops, its consumers' operand scans seeing
// fewer entries); messages, MaxMemory, DistHash and every dense row
// moved nowhere. And on all 24 sparse rows when a rank folding a
// diagonal block stopped receiving the mirror of the panel it already
// holds (E44): total messages and words fell, critical ones nowhere
// rose; MaxMemory and DistHash moved nowhere. And on the 12 pruned rows
// when R3 started computing each sink block in one orientation (E46):
// total messages and words fell on all 12, critical words on 11 —
// tree/pruned/sequential rose 570 → 663 while its critical messages fell
// 22 → 21 — and MaxMemory, DistHash and every dense row moved nowhere.
// And on 9 pruned rows when pivots and diagonal reduces started shipping
// as triangles and mirror holders started serving panels (E47): critical
// words fell on all 9, grid49/pruned/mapped's messages 20 → 19 and its
// total messages 135 → 134, tree/pruned/mapped's critical flops 13,127 →
// 13,146 (the critical path runs through other ranks); MaxMemory, DistHash
// and every dense row moved nowhere. And on the 4 pruned tree and star
// rows when the work whose result is already known left the schedule
// (E48): critical and total messages and words and critical flops fell on
// all 4 (the star's mapped critical messages 9 → 2), tree/pruned/mapped's
// MaxMemory 1,764 → 1,763; DistHash and every other row moved nowhere.
// And on the 5 pruned mapped rows but the star's when one level-1 unit
// per block moved onto the block's owner (E52): critical words fell on
// all 5 and critical messages on all 5, total messages fell on 4 and
// rose on tree (75 → 77), tree's critical flops went 13,120 → 12,976,
// MaxMemory fell on grid, gnp and rmat; DistHash, every dense row and
// every sequential row moved nowhere.
// "dc" rows pin DCAPSP (p=4, cyclic
// factor 2) across its schedule split. "pruned" rows share the dense
// rows' DistHash — skipping and pruning elide only provably-absorbed
// entries — while bandwidth, words and (for the sparse-aware kernels'
// operand scans) flops drop.
var goldenTable = map[goldenKey]goldenRow{
	{"grid", "dense", 0}:    {10, 4635, 66807, 18, 8298, 2304, "a2e3a57550113739"},
	{"grid", "dense", 1}:    {10, 5067, 73368, 18, 8784, 2223, "a2e3a57550113739"},
	{"grid", "dc", 0}:       {44, 18405, 159030, 72, 29520, 2646, "a2e3a57550113739"},
	{"grid49", "dense", 0}:  {20, 8581, 108462, 168, 57714, 2856, "96e4aca675b3c7af"},
	{"grid49", "dense", 1}:  {23, 10028, 115783, 167, 59748, 2856, "96e4aca675b3c7af"},
	{"grid49", "dc", 0}:     {44, 79301, 1343787, 72, 128520, 11094, "96e4aca675b3c7af"},
	{"gnp", "dense", 0}:     {10, 8033, 137301, 18, 10668, 3844, "60e3ad3fef80fe66"},
	{"gnp", "dense", 1}:     {10, 7343, 171903, 18, 10691, 3315, "60e3ad3fef80fe66"},
	{"gnp", "dc", 0}:        {44, 13684, 114922, 72, 22048, 1944, "60e3ad3fef80fe66"},
	{"tree", "dense", 0}:    {21, 5275, 13277, 168, 12573, 1764, "17b38d5f4c544f0b"},
	{"tree", "dense", 1}:    {23, 5318, 13299, 167, 12800, 1763, "17b38d5f4c544f0b"},
	{"tree", "dc", 0}:       {44, 22544, 240856, 72, 36448, 3174, "17b38d5f4c544f0b"},
	{"rmat", "dense", 0}:    {10, 4232, 64384, 18, 6672, 2116, "83accd07a3c61b64"},
	{"rmat", "dense", 1}:    {10, 4344, 74198, 18, 6980, 1920, "83accd07a3c61b64"},
	{"rmat", "dc", 0}:       {44, 11264, 92192, 72, 18432, 1536, "83accd07a3c61b64"},
	{"star", "dense", 0}:    {10, 2986, 4410, 18, 4012, 1520, "978ac9a795cb7eba"},
	{"star", "dense", 1}:    {10, 3024, 4409, 18, 4069, 1520, "978ac9a795cb7eba"},
	{"star", "dc", 0}:       {44, 9900, 77850, 72, 16200, 1350, "978ac9a795cb7eba"},
	{"grid", "pruned", 0}:   {7, 1515, 57477, 15, 3531, 2223, "a2e3a57550113739"},
	{"grid", "pruned", 1}:   {9, 2423, 62838, 16, 4136, 2223, "a2e3a57550113739"},
	{"grid49", "pruned", 0}: {18, 3567, 89352, 130, 26920, 2856, "96e4aca675b3c7af"},
	{"grid49", "pruned", 1}: {22, 5084, 96673, 133, 29246, 2856, "96e4aca675b3c7af"},
	{"gnp", "pruned", 0}:    {7, 4084, 137301, 15, 6421, 3315, "60e3ad3fef80fe66"},
	{"gnp", "pruned", 1}:    {9, 5076, 168315, 16, 7228, 3315, "60e3ad3fef80fe66"},
	{"tree", "pruned", 0}:   {12, 433, 12976, 77, 1668, 1763, "17b38d5f4c544f0b"},
	{"tree", "pruned", 1}:   {14, 657, 12976, 90, 2163, 1763, "17b38d5f4c544f0b"},
	{"rmat", "pruned", 0}:   {7, 2101, 61212, 15, 3804, 1920, "83accd07a3c61b64"},
	{"rmat", "pruned", 1}:   {9, 2755, 70614, 16, 4264, 1920, "83accd07a3c61b64"},
	{"star", "pruned", 0}:   {2, 61, 2888, 4, 122, 1520, "978ac9a795cb7eba"},
	{"star", "pruned", 1}:   {4, 122, 2888, 8, 244, 1520, "978ac9a795cb7eba"},
}

func checkGolden(t *testing.T, key goldenKey, res *DistResult) {
	t.Helper()
	want, ok := goldenTable[key]
	if !ok {
		t.Fatalf("%v: no golden row", key)
	}
	got := goldenRow{
		CritLatency:   res.Report.Critical.Latency,
		CritBandwidth: res.Report.Critical.Bandwidth,
		CritFlops:     res.Report.Critical.Flops,
		TotalMessages: res.Report.TotalMessages,
		TotalWords:    res.Report.TotalWords,
		MaxMemory:     res.Report.MaxMemory,
		DistHash:      distHash(res.Dist),
	}
	if got != want {
		t.Errorf("%v: cost/dist drifted from the golden values:\n got %+v\nwant %+v", key, got, want)
	}
}

// TestSparseCostGolden pins the planned executor: distances identical
// (to the bit) to the fused solver it replaced, and the charged costs of
// six graph families × both wire formats × both R4 strategies — plus
// the DCAPSP schedule split.
func TestSparseCostGolden(t *testing.T) {
	for _, tc := range goldenCases() {
		for _, wire := range []WireFormat{WirePruned, WireDense} {
			for _, r4 := range []R4Strategy{R4Mapped, R4Sequential} {
				res, err := SparseAPSPWith(tc.g, tc.p, SparseOptions{Seed: 11, Wire: wire, R4Strategy: r4})
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", tc.name, wire, r4, err)
				}
				checkGolden(t, goldenKey{tc.name, wire.String(), r4}, res)
			}
		}
		res, err := DCAPSP(tc.g, 4, 2)
		if err != nil {
			t.Fatalf("%s/dc: %v", tc.name, err)
		}
		checkGolden(t, goldenKey{tc.name, "dc", 0}, res)
	}
}

// TestPlanDeterministicAcrossRanks derives the Plan independently q
// times — as q ranks of a real machine each would — and asserts all
// hashes agree, across graph families, machine sizes and wire formats.
// A single diverging group order would deadlock (or silently mis-cost)
// a real distributed run, so plan construction must be a pure function
// of the shared symbolic inputs.
func TestPlanDeterministicAcrossRanks(t *testing.T) {
	for _, tc := range goldenCases() {
		for _, wire := range []WireFormat{WirePruned, WireDense} {
			var want string
			for rank := 0; rank < tc.p; rank++ {
				// Each "rank" recomputes the full symbolic phase from
				// scratch, sharing nothing but the inputs.
				h, err := HeightForP(tc.p)
				if err != nil {
					t.Fatal(err)
				}
				ly, err := NewLayout(tc.g, h, 11)
				if err != nil {
					t.Fatalf("%s rank %d: %v", tc.name, rank, err)
				}
				pl, err := BuildPlan(ly, tc.p, wire, R4Mapped)
				if err != nil {
					t.Fatalf("%s rank %d: %v", tc.name, rank, err)
				}
				if rank == 0 {
					want = pl.Hash()
					continue
				}
				if got := pl.Hash(); got != want {
					t.Fatalf("%s/%v: rank %d derived plan %s, rank 0 derived %s", tc.name, wire, rank, got, want)
				}
			}
		}
	}
}

// TestPlanCacheWarmSolveSkipsSymbolicWork asserts the serving-path
// contract: the second solve of a structure hits the plan cache
// (performing no ND/eTree/fill-mask work — builds stays at 1) and
// returns byte-identical distances and cost reports; a solve on the
// same structure with DIFFERENT weights still hits, because the
// fingerprint is weights-independent.
func TestPlanCacheWarmSolveSkipsSymbolicWork(t *testing.T) {
	weights := func(seed int64) graph.WeightFn {
		rng := rand.New(rand.NewSource(seed))
		return func(u, v int) float64 { return float64(rng.Intn(9) + 1) }
	}
	g1 := graph.Grid2D(9, 9, weights(1))
	g2 := graph.Grid2D(9, 9, weights(2)) // same structure, new weights

	cache := NewPlanCache()
	opts := SparseOptions{Seed: 11, Plans: cache}

	cold, err := SparseAPSPWith(g1, 9, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Builds != 1 || s.Hits != 0 || s.Entries != 1 {
		t.Fatalf("after cold solve: %+v, want 1 build / 0 hits / 1 entry", s)
	}

	warm, err := SparseAPSPWith(g1, 9, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Builds != 1 || s.Hits != 1 {
		t.Fatalf("after warm solve: %+v, want 1 build / 1 hit (zero symbolic work)", s)
	}
	if !identicalMatrices(cold.Dist, warm.Dist) {
		t.Fatal("warm solve distances differ from cold solve")
	}
	if !reflect.DeepEqual(cold.Report, warm.Report) {
		t.Fatalf("warm solve report differs from cold:\n cold %+v\n warm %+v", cold.Report, warm.Report)
	}

	res2, err := SparseAPSPWith(g2, 9, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Builds != 1 || s.Hits != 2 {
		t.Fatalf("after same-structure new-weights solve: %+v, want 1 build / 2 hits", s)
	}
	if !identicalMatrices(res2.Dist, mustJohnson(t, g2)) {
		t.Fatal("plan-reused solve on new weights is wrong")
	}

	// A different structure must NOT hit.
	g3 := graph.Grid2D(13, 7, weights(3))
	if _, err := SparseAPSPWith(g3, 9, opts); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Builds != 2 || s.Hits != 2 || s.Entries != 2 {
		t.Fatalf("after different-structure solve: %+v, want 2 builds / 2 hits / 2 entries", s)
	}

	// Different plan-shaping options are distinct cache keys even on
	// one structure: a dense-wire plan must never serve a default solve.
	if _, err := SparseAPSPWith(g1, 9, SparseOptions{Seed: 11, Plans: cache, Wire: WireDense}); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Builds != 3 || s.Hits != 2 {
		t.Fatalf("after dense-wire solve: %+v, want a fresh build (3), no new hit", s)
	}
}

// TestStructureFingerprintIgnoresWeights pins the key property the
// serving path relies on: fingerprints see structure, seeds and plan
// options — never weights.
func TestStructureFingerprintIgnoresWeights(t *testing.T) {
	w := func(seed int64) graph.WeightFn {
		rng := rand.New(rand.NewSource(seed))
		return func(u, v int) float64 { return float64(rng.Intn(50) + 1) }
	}
	g1 := graph.Grid2D(5, 5, w(1))
	g2 := graph.Grid2D(5, 5, w(99))
	if StructureFingerprintOf(g1, 9, 7, WirePruned, R4Mapped) != StructureFingerprintOf(g2, 9, 7, WirePruned, R4Mapped) {
		t.Fatal("same structure, different weights: fingerprints differ")
	}
	base := StructureFingerprintOf(g1, 9, 7, WirePruned, R4Mapped)
	if StructureFingerprintOf(g1, 49, 7, WirePruned, R4Mapped) == base {
		t.Fatal("different p, same fingerprint")
	}
	if StructureFingerprintOf(g1, 9, 8, WirePruned, R4Mapped) == base {
		t.Fatal("different ND seed, same fingerprint")
	}
	if StructureFingerprintOf(g1, 9, 7, WireDense, R4Mapped) == base {
		t.Fatal("different wire format, same fingerprint")
	}
	if StructureFingerprintOf(g1, 9, 7, WirePruned, R4Sequential) == base {
		t.Fatal("different R4 strategy, same fingerprint")
	}
	if StructureFingerprintOf(graph.Grid2D(5, 6, w(1)), 9, 7, WirePruned, R4Mapped) == base {
		t.Fatal("different structure, same fingerprint")
	}
}

// TestPlanExecuteMatchesDirectSolve closes the loop between the two
// entry points: a plan built once and executed via LayoutFor must
// reproduce the plain SparseAPSPWith result exactly.
func TestPlanExecuteMatchesDirectSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomGNP(40, 0.15, integerWeights(rng, 6), rng)
	direct, err := SparseAPSPWith(g, 9, SparseOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ly, err := NewLayout(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPlan(ly, 9, WirePruned, R4Mapped)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.ExecuteOpts(pl.LayoutFor(g), ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !identicalMatrices(res.Dist, direct.Dist) {
		t.Fatal("planned execute distances differ from direct solve")
	}
	if !reflect.DeepEqual(res.Report, direct.Report) {
		t.Fatal("planned execute report differs from direct solve")
	}
}
