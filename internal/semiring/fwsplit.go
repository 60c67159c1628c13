package semiring

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// BandMinN is the smallest diagonal block the dataflow executor runs as
// an FWSplit, which only workers that would otherwise idle help with. On
// a 2-core host two bands first beat one at n ≈ 64
// (BenchmarkClassicalFW, EXPERIMENTS.md E59); twice that leaves room for
// the hand-off, and from here up a helper saves at least 0.5 ms.
const BandMinN = 128

// FWSplit is ClassicalFW on one block the proof accepts, with the
// triangle's rows split into contiguous bands of about equal area
// (areaBands) that other goroutines may take over while it runs: Run
// works every band no helper holds, and each Help holds one band from
// the next pivot group on, the same band in every group so its rows stay
// in one core's cache. Distances and the count are ClassicalFW's bit for
// bit whoever runs which band: in a group, row i reads only the group's
// gathered rows and writes only its own prefix, and the bands' finite
// pairs are summed.
//
// A group's rows span every band — row k's prefix and column k below
// it — so the holder of each band gathers the part its rows store into a
// shared buffer, and every participant copies the whole buffer once all
// bands have gathered. The buffers alternate by group: a band's gather
// into the buffer of group g+2 comes after every band gathered group
// g+1, and each participant copied group g before it gathered g+1.
type FWSplit struct {
	m      *Matrix
	bounds []int // band b is rows bounds[b]..bounds[b+1]
	groups int   // ⌊n/4⌋ groups of four pivots, then one per pivot left
	shared [2][]float64
	fills  atomic.Int64 // band gathers done, over every group
	bands  []splitBand
	quit   atomic.Bool // Run panicked: helpers stop waiting

	// Waiters that spun long enough sleep on cond; a step that may let
	// one go on wakes them if any sleeps.
	mu       sync.Mutex
	cond     sync.Cond
	sleepers atomic.Int32
}

// splitBand is one band's progress. A group is claimed (next) before it
// is worked, by Run or by the band's helper, so each group of a band is
// worked once and in order; a helper waits for the last group Run folded
// into the band before it gathers the next.
type splitBand struct {
	helped atomic.Bool
	next   atomic.Int32 // the first group nobody has claimed
	folded atomic.Int32 // groups folded into the band's rows
	finite int64        // written by whoever worked the band's last group
}

// splitSpins is how many times a waiter yields its thread before it
// sleeps: a waiter mostly waits out the small imbalance between equal-area
// bands, shorter than a sleep and a wake, and one that sleeps lets bands
// on more goroutines than cores still make progress.
const splitSpins = 256

// NewFWSplit prepares m's Floyd–Warshall in bands bands, or returns nil
// where ClassicalFW would not take the triangle path or bands < 2.
func NewFWSplit(m *Matrix, bands int) *FWSplit {
	if bands < 2 || m.Rows != m.Cols || m.Rows < triangleMinN || !symmetricNonNegative(m) {
		return nil
	}
	return newFWSplit(m, bands)
}

// newFWSplit is NewFWSplit for a square m the proof accepts, of any size.
func newFWSplit(m *Matrix, bands int) *FWSplit {
	n := m.Rows
	clampDiagonal(m)
	s := &FWSplit{
		m:      m,
		bounds: areaBands(n, min(bands, n)),
		groups: n/4 + n%4,
		shared: [2][]float64{make([]float64, 4*n), make([]float64, 4*n)},
	}
	s.bands = make([]splitBand, len(s.bounds)-1)
	s.cond.L = &s.mu
	return s
}

// areaBands splits rows [0, n) into bands contiguous bands of about
// equal area, row i weighing i+1 (its stored prefix): band b is rows
// bounds[b] to bounds[b+1].
func areaBands(n, bands int) []int {
	bounds := make([]int, bands+1)
	total := int64(n) * int64(n+1) / 2
	var area int64
	i := 0
	for b := 1; b < bands; b++ {
		for i < n && area*int64(bands) < int64(b)*total {
			i++
			area += int64(i)
		}
		bounds[b] = i
	}
	bounds[bands] = n
	return bounds
}

// Run works the split to the end — every group of band 0 and of each
// band no helper holds — waits for the helpers' last groups, mirrors the
// triangle and returns ClassicalFW's count.
func (s *FWSplit) Run() int64 {
	finished := false
	defer func() {
		if !finished {
			s.quit.Store(true)
			s.wake()
		}
	}()
	own := make([]float64, 4*s.m.Rows)
	mine := make([]int, 0, len(s.bands))
	for g := 0; g < s.groups; g++ {
		// A band whose helper claimed any group is the helper's from then
		// on: Run reads helped only after every band gathered the group
		// before, the helper's gather among them.
		mine = mine[:0]
		for b := range s.bands {
			sb := &s.bands[b]
			if b == 0 || !sb.helped.Load() && sb.next.CompareAndSwap(int32(g), int32(g+1)) {
				mine = append(mine, b)
				s.gather(b, g)
			}
		}
		s.fills.Add(int64(len(mine)))
		s.wake()
		s.prepare(g, own)
		for _, b := range mine {
			s.fold(b, g, own)
		}
	}
	var finite int64
	for b := range s.bands {
		sb := &s.bands[b]
		s.await(func() bool { return int(sb.folded.Load()) == s.groups })
		finite += sb.finite
	}
	mirrorLower(s.m)
	finished = true
	return finite * int64(s.m.Rows)
}

// Help takes a band past the first that no helper holds yet and works it
// from the next group Run has not claimed through the last. It reports
// false, at once, when every such band is held.
func (s *FWSplit) Help() bool {
	b := 1
	for b < len(s.bands) && !s.bands[b].helped.CompareAndSwap(false, true) {
		b++
	}
	if b == len(s.bands) {
		return false
	}
	sb := &s.bands[b]
	own := make([]float64, 4*s.m.Rows)
	for {
		g := int(sb.next.Load())
		if g >= s.groups {
			return true
		}
		if !sb.next.CompareAndSwap(int32(g), int32(g+1)) {
			continue
		}
		if !s.await(func() bool { return int(sb.folded.Load()) >= g }) {
			return true
		}
		s.gather(b, g)
		s.fills.Add(1)
		s.wake()
		if !s.prepare(g, own) {
			return true
		}
		s.fold(b, g, own)
	}
}

// Open reports whether a Help now could still take a band.
func (s *FWSplit) Open() bool {
	for b := 1; b < len(s.bands); b++ {
		if !s.bands[b].helped.Load() && int(s.bands[b].next.Load()) < s.groups {
			return true
		}
	}
	return false
}

// group returns group g's first pivot and its pivot count.
func (s *FWSplit) group(g int) (k, t int) {
	four := s.m.Rows / 4
	if g < four {
		return 4 * g, 4
	}
	return 4*four + g - four, 1
}

// gather writes the part of group g's rows that band b's rows store into
// the group's shared buffer.
func (s *FWSplit) gather(b, g int) {
	n := s.m.Rows
	k, t := s.group(g)
	buf := s.shared[g%2]
	for r := 0; r < t; r++ {
		gatherRow(s.m, k+r, s.bounds[b], s.bounds[b+1], buf[r*n:(r+1)*n])
	}
}

// prepare waits until every band gathered group g, then copies the
// group's rows into own and brings them through the group's earlier
// pivots. It reports false if Run gave up meanwhile.
func (s *FWSplit) prepare(g int, own []float64) bool {
	if !s.await(func() bool { return s.fills.Load() >= int64(g+1)*int64(len(s.bands)) }) {
		return false
	}
	n := s.m.Rows
	k, t := s.group(g)
	copy(own[:t*n], s.shared[g%2][:t*n])
	if t == 4 {
		prepareGroup(k, own[:n], own[n:2*n], own[2*n:3*n], own[3*n:])
	}
	return true
}

// fold folds prepared group g, held in own, into band b's rows.
func (s *FWSplit) fold(b, g int, own []float64) {
	n, lo, hi := s.m.Rows, s.bounds[b], s.bounds[b+1]
	sb := &s.bands[b]
	if _, t := s.group(g); t == 4 {
		sb.finite += foldGroup(s.m, lo, hi, own[:n], own[n:2*n], own[2*n:3*n], own[3*n:])
	} else {
		sb.finite += foldPivot(s.m, lo, hi, own[:n])
	}
	sb.folded.Store(int32(g + 1))
	s.wake()
}

// await returns once ready() holds, spinning and then sleeping, or
// false if Run gives up first.
func (s *FWSplit) await(ready func() bool) bool {
	for spin := 0; spin < splitSpins; spin++ {
		if ready() {
			return true
		}
		if s.quit.Load() {
			return false
		}
		runtime.Gosched()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sleepers.Add(1)
	defer s.sleepers.Add(-1)
	for !ready() {
		if s.quit.Load() {
			return false
		}
		s.cond.Wait()
	}
	return true
}

// wake wakes every sleeping waiter, if any sleeps. The sleeper counts
// itself before it checks its condition and the waker publishes its step
// before it reads the count, so no wake is lost.
func (s *FWSplit) wake() {
	if s.sleepers.Load() > 0 {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}
