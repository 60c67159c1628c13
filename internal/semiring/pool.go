package semiring

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the fan-out of the solvers' data-parallel loops. It holds
// no goroutines between calls: every ForEach starts its own helpers,
// at most Size() goroutines counting the caller, and waits for them.
// The loops it serves run a few times per solve (the dataflow
// executor's worker loops, successor extraction, the repair's row copy,
// the oracle's store builders), so a goroutine start per helper is
// noise beside the work, and a nested ForEach cannot deadlock because
// nothing is ever queued.
type Pool struct {
	size int
}

// NewPool returns a pool of the given size; size <= 0 means
// runtime.GOMAXPROCS(0), read at each use.
func NewPool(size int) *Pool { return &Pool{size: size} }

// DefaultPool is the package-wide pool every solver loop shares.
var DefaultPool = NewPool(0)

// Size returns the most goroutines one ForEach runs at once.
func (p *Pool) Size() int {
	if p.size <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.size
}

// ForEach runs f(i) for every i in [0, n) on at most Size() goroutines,
// the caller's among them, with dynamic scheduling, and returns when
// every call has returned. f must be safe to call concurrently for
// distinct indices; it may block (the executor's worker loops wait for
// ready nodes) without starving any other ForEach.
func (p *Pool) ForEach(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	var next atomic.Int64
	loop := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			f(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(p.Size(), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop()
		}()
	}
	loop()
	wg.Wait()
}

// ForRanges splits [0, n) into contiguous ranges — a few per goroutine,
// so uneven ones balance — and runs f(lo, hi) over them like ForEach. f
// must be safe to call concurrently for disjoint ranges.
func (p *Pool) ForRanges(n int, f func(lo, hi int)) {
	ranges := min(4*p.Size(), n)
	p.ForEach(ranges, func(r int) { f(r*n/ranges, (r+1)*n/ranges) })
}
