package oracle

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/comm"
	"sparseapsp/internal/graph"
)

// RepairFunc incrementally repairs a solved result into the result for
// ed.Graph, the edited graph Reweight built and fingerprinted, and
// reports what the repair did. The previous result arrives as the
// oracle holds it — distances widened a row at a time on request, plus
// the successor table — and neither may be mutated. A repair that gives
// up returns no result and stats with FellBack set; the registry then
// solves ed.Graph with Config.Solve. The result's distance matrix passes
// to the registry, which recycles its storage once narrowed: nothing
// else may keep it. The root package supplies apsp.RepairRows at its
// default damage threshold.
type RepairFunc func(ed *apsp.Edited, prevDist apsp.RowFunc, prevNext *apsp.Successors) (*apsp.PathResult, apsp.RepairStats, error)

// ErrUnknownGraph is returned by Reweight when the fingerprint names no
// cached oracle (never loaded, or already evicted).
var ErrUnknownGraph = fmt.Errorf("oracle: unknown graph fingerprint")

// Config configures a Registry.
type Config struct {
	// Solve runs the underlying APSP solver; required.
	Solve SolveFunc
	// Repair, when non-nil, enables Registry.Reweight: small weight
	// edits are repaired from the cached result instead of re-solved.
	Repair RepairFunc
	// MemoryBudget bounds the total MemoryBytes of cached oracles; <= 0
	// means unlimited. Exceeding it drops least-recently-used oracles. An
	// oracle larger than the whole budget is dropped at once rather than
	// pinned: the Get that solved it is served, nothing is cached.
	MemoryBudget int64
	// Plans, when non-nil, is the sparse solver's symbolic plan cache.
	// The registry itself never touches it — the Solve closure is
	// expected to pass the same cache into SparseOptions.Plans — but
	// registering it here surfaces its counters through Stats (and so
	// through apspd /statsz). Solves of one topology under new weights —
	// a reweight that falls back among them — show up as plan hits with
	// zero new symbolic work; a repair touches no plan.
	Plans *apsp.PlanCache
}

// Registry caches solved oracles keyed by graph fingerprint. Concurrent
// Get calls for the same unsolved graph are coalesced singleflight-style
// into exactly one solve; everything else waits on its completion.
// Solved oracles are retained in LRU order under Config.MemoryBudget.
type Registry struct {
	cfg Config

	mu      sync.Mutex
	entries map[Fingerprint]*entry
	lru     *list.List // solved entries, front = most recently used
	bytes   int64      // sum of MemoryBytes over them

	solves      int64
	hits        int64
	misses      int64
	evictions   int64
	solveNanos  int64
	reweights   int64
	repairNanos int64
	fallbacks   int64
	// Simulated communication totals across every solve this registry
	// ever ran, a reweight's fallback solve included, cumulative like the
	// query counters: the serving-layer view of the words the wire
	// format actually moved, per schedule phase.
	wordsMoved   int64
	wordsByClass [comm.NumSendClasses]int64
	// activeSolves counts solves and repairs executing right now —
	// work the registry owns even after the HTTP request (or caller)
	// that triggered it has gone away, because coalesced waiters and
	// the cache entry still depend on its completion. Quiesce waits on
	// it; idle is closed-and-replaced each time it drops to zero.
	activeSolves int
	idle         chan struct{}
	// queries is shared with every oracle this registry creates, so the
	// totals stay cumulative across evictions and keep counting queries
	// that were in flight when their oracle was evicted.
	queries queryCounters
}

type entry struct {
	fp    Fingerprint
	ready chan struct{} // closed when the solve finishes
	// oracle is nil while solving, after a failed solve, and once the
	// entry has been dropped; elem is its element on the LRU exactly
	// while oracle is set. Only setOracleLocked assigns either.
	oracle *Oracle
	err    error
	elem   *list.Element
}

// NewRegistry returns an empty registry.
func NewRegistry(cfg Config) *Registry {
	return &Registry{
		cfg:     cfg,
		entries: make(map[Fingerprint]*entry),
		lru:     list.New(),
	}
}

// Get returns the oracle for g, solving it first if no oracle with g's
// fingerprint is cached. If another goroutine is already solving the
// same graph, Get waits for that solve instead of starting a second
// one. A failed solve is not cached: the next Get retries. A solve that
// panics fails the same way, with the panic as its error.
func (r *Registry) Get(g *graph.Graph) (*Oracle, error) {
	if g == nil {
		return nil, fmt.Errorf("oracle: nil graph")
	}
	if r.cfg.Solve == nil {
		return nil, fmt.Errorf("oracle: registry has no solve function")
	}
	fp := FingerprintOf(g)

	missed := false
	r.mu.Lock()
	for {
		e, ok := r.entries[fp]
		if !ok {
			break
		}
		r.mu.Unlock()
		o, err := r.await(e, !missed)
		if o != nil || err != nil {
			return o, err
		}
		// The entry was evicted between the map lookup and the wait, and
		// await booked the miss; retry — either a new entry appeared or
		// this Get owns the re-solve.
		missed = true
		r.mu.Lock()
	}
	if !missed {
		r.misses++
	}
	e := &entry{fp: fp, ready: make(chan struct{})}
	r.entries[fp] = e
	r.beginSolveLocked()
	r.mu.Unlock()

	start := time.Now()
	o, report, err := r.solve(g)
	elapsed := time.Since(start).Nanoseconds()

	r.mu.Lock()
	r.solves++
	r.solveNanos += elapsed
	r.endSolveLocked()
	if err != nil {
		e.err = err
		delete(r.entries, fp) // allow a retry; current waiters get err
	} else {
		r.addWordsLocked(report)
		o.queries = &r.queries // install before any Get returns the oracle
		r.setOracleLocked(e, o)
		r.evictLocked()
	}
	r.mu.Unlock()
	close(e.ready)
	return o, err
}

// recoverInto turns a panic in a solve or repair into err. The caller
// owns an entry whose ready channel only it closes, so a panic that
// escaped would leave every waiter on that graph — and Quiesce — blocked
// for good; as an error it drops the entry like any failed solve.
func recoverInto(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("oracle: solver panicked: %v", p)
	}
}

// solve runs Config.Solve on g and wraps the result in an oracle.
func (r *Registry) solve(g *graph.Graph) (o *Oracle, report comm.Report, err error) {
	defer recoverInto(&err)
	return solveOracle(g, r.cfg.Solve)
}

// repair runs Config.Repair from old to ed and wraps the result in an
// oracle that keeps ed.Graph. A repair that gives up is answered with
// Config.Solve on ed.Graph — the solve a Get of that graph would run,
// here inside the caller's entry — whose report is returned for the
// words-moved totals.
func (r *Registry) repair(old *Oracle, ed *apsp.Edited) (o *Oracle, report comm.Report, st apsp.RepairStats, err error) {
	defer recoverInto(&err)
	res, st, err := r.cfg.Repair(ed, old.dist.row, old.succ)
	if err != nil {
		return nil, report, st, err
	}
	if st.FellBack {
		o, report, err = solveOracle(ed.Graph, r.cfg.Solve)
		return o, report, st, err
	}
	o = FromResult(res, nil)
	o.graph = ed.Graph
	// The repair's working matrix goes back to the solvers' buffer pool
	// for the next solve or repair, unless the store kept it: FromResult
	// pointed the table's pending rows at the store.
	if !o.dist.shares(res.Dist.V) {
		apsp.ReleaseDist(res.Dist)
	}
	return o, res.Report, st, nil
}

// Lookup returns the cached oracle for an already-registered
// fingerprint, waiting out an in-flight solve. ok is false when the
// fingerprint has never been loaded (or was evicted); err carries the
// solve failure when ok is true but no oracle exists.
func (r *Registry) Lookup(fp Fingerprint) (o *Oracle, ok bool, err error) {
	r.mu.Lock()
	e, found := r.entries[fp]
	if !found {
		r.misses++
		r.mu.Unlock()
		return nil, false, nil
	}
	r.mu.Unlock()
	o, err = r.await(e, true)
	// Evicted while we waited (nil, nil) is indistinguishable from an
	// eviction that happened before the Lookup.
	return o, o != nil || err != nil, err
}

// await waits out an entry's solve and then, in one critical section,
// settles what the caller is about to get: the oracle, moved to the LRU
// front and booked as a hit; the solve's error, booked as a miss — the
// entry is already gone from the map and the next Get will retry it; or
// (nil, nil) when the entry was evicted while the caller waited, a miss
// too. Booking before the wait would register failed solves and evicted
// entries as cache hits. book is false only for a Get that already
// booked its miss on an earlier turn.
func (r *Registry) await(e *entry, book bool) (*Oracle, error) {
	<-e.ready
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.oracle == nil {
		if book {
			r.misses++
		}
		return nil, e.err
	}
	if book {
		r.hits++
	}
	r.lru.MoveToFront(e.elem)
	return e.oracle, nil
}

// Reweight applies edge-weight edits to the cached oracle for fp and
// installs the repaired oracle under the edited graph's fingerprint,
// atomically replacing the old entry — after Reweight returns, fp no
// longer serves and newFp does, with no window in which stale distances
// answer queries under the new fingerprint. The repair itself runs
// outside the registry lock (queries on the old oracle proceed
// throughout). When the edit damage is too large the repair gives up
// and Reweight solves the edited graph with Config.Solve instead,
// counted as a reweight and a repair fallback, not as a solve; either
// way the result is exact for the edited graph. A panicking repair or
// solve is that call's error.
//
// Edits may only reweight existing edges (see apsp.EdgeEdit). If the
// edits are a no-op (every weight unchanged), the old oracle is
// returned under its old fingerprint. Concurrent Reweights toward the
// same edited graph coalesce like Gets do.
func (r *Registry) Reweight(fp Fingerprint, edits []apsp.EdgeEdit) (Fingerprint, *Oracle, apsp.RepairStats, error) {
	var zero apsp.RepairStats
	if r.cfg.Repair == nil {
		return fp, nil, zero, fmt.Errorf("oracle: registry has no repair function")
	}
	r.mu.Lock()
	e, found := r.entries[fp]
	r.mu.Unlock()
	if !found {
		return fp, nil, zero, fmt.Errorf("%w: %s", ErrUnknownGraph, fp)
	}
	old, err := r.await(e, true)
	if err != nil {
		return fp, nil, zero, err
	}
	if old == nil {
		return fp, nil, zero, fmt.Errorf("%w: %s", ErrUnknownGraph, fp)
	}
	g := old.Graph()
	if g == nil {
		return fp, nil, zero, fmt.Errorf("oracle: cached oracle for %s retains no graph", fp)
	}

	// Apply the edits once, first: the one edited copy decides the new
	// cache key and detects no-ops before any numeric work, and it is
	// the graph the repair edits from and the new oracle keeps.
	ed, err := apsp.ApplyEdits(g, edits)
	if err != nil {
		return fp, nil, zero, err
	}
	newFp := FingerprintOf(ed.Graph)
	if newFp == fp {
		return fp, old, zero, nil
	}

	r.mu.Lock()
	if e2, ok := r.entries[newFp]; ok {
		// The edited graph is already cached or being produced (a
		// concurrent Reweight or a direct Get). Reuse it; the old entry
		// still must stop serving.
		r.removeLocked(e)
		r.mu.Unlock()
		o2, err := r.await(e2, true)
		if o2 == nil && err == nil {
			err = fmt.Errorf("%w: %s", ErrUnknownGraph, newFp)
		}
		return newFp, o2, zero, err
	}
	e2 := &entry{fp: newFp, ready: make(chan struct{})}
	r.entries[newFp] = e2
	r.beginSolveLocked()
	r.mu.Unlock()

	// Repair works on float64s: it widens each row of the old store
	// once, straight into the matrix it goes on to edit, and what it
	// returns is narrowed from scratch like any solve — an edit that
	// breaks the old kind's proof simply lands in a wider one. Both
	// passes run before the lock is taken.
	start := time.Now()
	o2, report, st, err := r.repair(old, ed)
	elapsed := time.Since(start).Nanoseconds()
	if err == nil {
		o2.queries = &r.queries
	}

	r.mu.Lock()
	r.reweights++
	r.repairNanos += elapsed
	r.endSolveLocked()
	if st.FellBack {
		r.fallbacks++
	}
	if err != nil {
		e2.err = err
		delete(r.entries, newFp)
	} else {
		r.addWordsLocked(report)
		r.setOracleLocked(e2, o2)
		// The swap: the new entry is live, so the old fingerprint stops
		// serving in the same critical section.
		r.removeLocked(e)
		r.evictLocked()
	}
	r.mu.Unlock()
	close(e2.ready)
	return newFp, o2, st, err
}

// beginSolveLocked / endSolveLocked bracket a solve or repair for the
// quiescence tracking. endSolveLocked wakes every Quiesce waiter when
// the last in-flight solve finishes.
func (r *Registry) beginSolveLocked() { r.activeSolves++ }

func (r *Registry) endSolveLocked() {
	r.activeSolves--
	if r.activeSolves == 0 && r.idle != nil {
		close(r.idle)
		r.idle = nil
	}
}

// ActiveSolves returns the number of solves and repairs executing right
// now. Nonzero means shutting the process down would abandon work that
// coalesced waiters (possibly on other connections) depend on.
func (r *Registry) ActiveSolves() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.activeSolves
}

// Quiesce blocks until no solve or repair is in flight, or until ctx is
// done. It is the registry half of a graceful drain: http.Server's
// Shutdown only waits for open connections, but a solve started by a
// since-disconnected client keeps running inside the registry — exiting
// before it finishes would waste the work and strand coalesced waiters.
// Quiesce does not prevent new solves from starting; stop routing new
// traffic first (Server.BeginDrain).
func (r *Registry) Quiesce(ctx context.Context) error {
	for {
		r.mu.Lock()
		if r.activeSolves == 0 {
			r.mu.Unlock()
			return nil
		}
		if r.idle == nil {
			r.idle = make(chan struct{})
		}
		ch := r.idle
		r.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// setOracleLocked is the one place an entry joins or leaves the LRU,
// and so the one place r.bytes moves: it takes e off the list, makes o
// the oracle e serves from, and puts e at the front — unless o is nil.
// O(1): an oracle's size is a sum of slice lengths.
func (r *Registry) setOracleLocked(e *entry, o *Oracle) {
	if e.elem != nil {
		r.lru.Remove(e.elem)
		e.elem = nil
		r.bytes -= e.oracle.MemoryBytes()
	}
	e.oracle = o
	if o != nil {
		e.elem = r.lru.PushFront(e)
		r.bytes += o.MemoryBytes()
	}
}

// removeLocked drops a solved entry from the map and the LRU without
// touching the eviction counter (Reweight's swap is not an eviction).
// Safe to call on an entry that was already evicted or replaced.
func (r *Registry) removeLocked(e *entry) {
	if cur, ok := r.entries[e.fp]; ok && cur == e {
		delete(r.entries, e.fp)
	}
	r.setOracleLocked(e, nil)
}

// evictLocked drops least-recently-used oracles until the bytes fit the
// budget — the front entry (the one just solved or touched) too when it
// alone exceeds the whole budget, so an oversized oracle cannot sit at
// the LRU front forever, permanently blowing the budget. r.bytes > 0
// means the list is not empty.
func (r *Registry) evictLocked() {
	if r.cfg.MemoryBudget <= 0 {
		return
	}
	for r.bytes > r.cfg.MemoryBudget {
		r.removeLocked(r.lru.Back().Value.(*entry))
		r.evictions++
	}
}

// Len returns the number of cached (solved or solving) entries.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Stats is a snapshot of the registry's counters, and the registry
// section of apspd's /statsz as it goes on the wire: the router decodes
// its backends' sections into Stats and sums them with Add. Query
// counters are cumulative across evictions: every oracle the registry
// ever created feeds the same totals, including queries still in flight
// on an already-evicted oracle.
type Stats struct {
	Solves int64 `json:"solves"` // solves actually run (coalesced requests share one)
	// SolvesInFlight counts solves and repairs executing right now —
	// including ones whose originating caller has gone away but whose
	// coalesced waiters are still pending. Quiesce waits for them during
	// a drain, and the fleet router surfaces them as backend load.
	SolvesInFlight int64 `json:"solves_in_flight"`
	Hits           int64 `json:"hits"`      // Get / Lookup / Reweight calls handed a cached or coalesced oracle
	Misses         int64 `json:"misses"`    // every other one: solved here, unknown, failed, or evicted meanwhile
	Evictions      int64 `json:"evictions"` // oracles dropped to fit the budget

	Entries     int   `json:"entries"`      // cached entries, including in-flight solves
	Bytes       int64 `json:"bytes"`        // retained bytes of cached oracles (distances + successors)
	BudgetBytes int64 `json:"budget_bytes"` // configured budget (0 = unlimited)

	// StoreKinds counts resident entries by the kind their distance
	// store proved lossless: "u1" … "u32", "f32", "f64". Integer weights
	// serve from uN — N bits per stored entry, N = bits.Len(largest
	// distance + 1) at scale 1: "u8" for a 32×32 grid under weights 1..9,
	// "u11" for an 800-cycle — plus the successor table; an f64 entry —
	// real-valued weights — costs 64 bits plus the table. Kinds with no
	// entry are omitted.
	StoreKinds map[string]int `json:"store_kinds,omitempty"`
	// StoreLayouts counts the same entries by how many distances they
	// keep: "tri" for the lower triangle of a matrix proved
	// bit-symmetric (half the entries per pair), "square" for one that
	// failed the proof and keeps all n². A backend whose solver returns
	// asymmetric matrices pays 2× and shows up here.
	StoreLayouts map[string]int `json:"store_layouts,omitempty"`
	// SuccBits counts them by the widest column of their successor table
	// (Successors.Bits: what the highest-degree vertex's slots take — 2
	// on a grid, 10 for a 576-star's hub). Columns are sized one by one,
	// so this names the graph's shape, not its cost. Widths with no
	// entry are omitted.
	SuccBits map[int]int `json:"succ_bits,omitempty"`

	SolveMs         float64 `json:"solve_ms"`          // total wall-clock spent solving
	QueriesServed   int64   `json:"queries_served"`    // point-queries answered across all oracles
	QueriesInFlight int64   `json:"queries_in_flight"` // query calls executing right now
	QueryMs         float64 `json:"query_ms"`          // total wall-clock spent inside query calls

	// Reweight counters. RepairFallbacks counts reweights whose edit
	// damage exceeded the repair threshold and were answered with a
	// solve of the edited graph instead; RepairMs is total wall-clock
	// inside Reweight's repair and fallback solves.
	Reweights       int64   `json:"reweights"`
	RepairFallbacks int64   `json:"repair_fallbacks"`
	RepairMs        float64 `json:"repair_ms"`

	// Plan-cache counters (all zero when no plan cache is configured).
	// PlanHits counts solves that reused a cached symbolic plan and so
	// performed zero ordering/eTree/fill-mask work — a reweight's
	// fallback solve among them, a repair never; PlanBuildMs is the total
	// wall-clock the symbolic phase has cost.
	PlanBuilds  int64   `json:"plan_builds"`
	PlanHits    int64   `json:"plan_hits"`
	PlanEntries int     `json:"plan_entries"`
	PlanBuildMs float64 `json:"plan_build_ms"`
	// Plan-store counters (zero without a disk-backed plan cache). A
	// disk hit is a plan served from the persistent store with zero
	// symbolic work — the warm-restart path; it is NOT a build.
	PlanDiskHits   int64 `json:"plan_disk_hits"`
	PlanDiskWrites int64 `json:"plan_disk_writes"`
	PlanDiskErrors int64 `json:"plan_disk_errors"`

	// Simulated communication totals over every solve, fallback solves
	// included: WordsMoved is the all-rank words-sent sum, and
	// WordsByPhase splits it by schedule phase (keys are the
	// comm.SendClass names: "r2", "r3", "r4-panel", "r4-reduce",
	// "r4-seq", "trans"; zero classes are omitted). Both stay zero for
	// solvers that run no simulated machine.
	WordsMoved   int64            `json:"words_moved"`
	WordsByPhase map[string]int64 `json:"words_by_phase,omitempty"`
}

// Add folds b into s field by field: counters, sizes and durations sum,
// the budget sums as fleet capacity, and the per-key censuses sum key by
// key — so the sum of several registries' Stats is exact.
func (s *Stats) Add(b Stats) {
	s.Solves += b.Solves
	s.SolvesInFlight += b.SolvesInFlight
	s.Hits += b.Hits
	s.Misses += b.Misses
	s.Evictions += b.Evictions
	s.Entries += b.Entries
	s.Bytes += b.Bytes
	s.BudgetBytes += b.BudgetBytes
	addCounts(&s.StoreKinds, b.StoreKinds)
	addCounts(&s.StoreLayouts, b.StoreLayouts)
	addCounts(&s.SuccBits, b.SuccBits)
	s.SolveMs += b.SolveMs
	s.QueriesServed += b.QueriesServed
	s.QueriesInFlight += b.QueriesInFlight
	s.QueryMs += b.QueryMs
	s.Reweights += b.Reweights
	s.RepairFallbacks += b.RepairFallbacks
	s.RepairMs += b.RepairMs
	s.PlanBuilds += b.PlanBuilds
	s.PlanHits += b.PlanHits
	s.PlanEntries += b.PlanEntries
	s.PlanBuildMs += b.PlanBuildMs
	s.PlanDiskHits += b.PlanDiskHits
	s.PlanDiskWrites += b.PlanDiskWrites
	s.PlanDiskErrors += b.PlanDiskErrors
	s.WordsMoved += b.WordsMoved
	addCounts(&s.WordsByPhase, b.WordsByPhase)
}

// addCounts sums the per-key counts of b into *a, allocating *a on the
// first key so an empty census stays nil (and off the wire).
func addCounts[K comparable, V int | int64](a *map[K]V, b map[K]V) {
	for k, c := range b {
		if *a == nil {
			*a = make(map[K]V, len(b))
		}
		(*a)[k] += c
	}
}

// addWordsLocked folds one solve's cost report into the cumulative
// communication totals. Callers hold r.mu.
func (r *Registry) addWordsLocked(rep comm.Report) {
	r.wordsMoved += rep.TotalWords
	for c, w := range rep.WordsByClass {
		r.wordsByClass[c] += w
	}
}

// ms converts a nanosecond total to the milliseconds Stats reports.
func ms(nanos int64) float64 { return float64(nanos) / 1e6 }

// Stats returns the registry counters at this instant.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{
		Solves:         r.solves,
		SolvesInFlight: int64(r.activeSolves),

		Hits:        r.hits,
		Misses:      r.misses,
		Evictions:   r.evictions,
		Entries:     len(r.entries),
		Bytes:       r.bytes,
		BudgetBytes: r.cfg.MemoryBudget,

		SolveMs: ms(r.solveNanos),

		Reweights:       r.reweights,
		RepairFallbacks: r.fallbacks,
		RepairMs:        ms(r.repairNanos),

		WordsMoved: r.wordsMoved,
	}
	for c, w := range r.wordsByClass {
		if w != 0 {
			if s.WordsByPhase == nil {
				s.WordsByPhase = make(map[string]int64, comm.NumSendClasses)
			}
			s.WordsByPhase[comm.SendClass(c).String()] = w
		}
	}
	for _, e := range r.entries {
		if e.oracle != nil {
			if s.StoreKinds == nil {
				s.StoreKinds = make(map[string]int)
				s.StoreLayouts = make(map[string]int, 2)
				s.SuccBits = make(map[int]int)
			}
			s.StoreKinds[e.oracle.dist.kindName()]++
			s.StoreLayouts[e.oracle.dist.layoutName()]++
			s.SuccBits[e.oracle.succ.Bits()]++
		}
	}
	s.QueriesServed = r.queries.served.Load()
	s.QueriesInFlight = r.queries.inFlight.Load()
	s.QueryMs = ms(r.queries.queryNanos.Load())
	if r.cfg.Plans != nil {
		ps := r.cfg.Plans.Stats()
		s.PlanBuilds = ps.Builds
		s.PlanHits = ps.Hits
		s.PlanEntries = ps.Entries
		s.PlanBuildMs = ms(ps.BuildNanos)
		s.PlanDiskHits = ps.DiskHits
		s.PlanDiskWrites = ps.DiskWrites
		s.PlanDiskErrors = ps.DiskErrors
	}
	return s
}
