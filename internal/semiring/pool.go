package semiring

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent set of worker goroutines for the data-parallel
// loops of the solvers and the oracle. Spawning fresh goroutines per
// call costs a scheduler round-trip per worker, measurable when a
// caller issues thousands of small loops; a Pool starts its workers
// once, lazily, and hands them closures over an unbuffered channel.
//
// Submission never blocks and never deadlocks: a job is handed only to
// a worker that is idle at that instant, and otherwise the caller
// simply executes the work itself. Nothing is ever queued, so a nested
// ForEach (a pool job that itself calls ForEach) cannot end up waiting
// for a job parked behind workers that are all waiting the same way —
// which a buffered channel allowed, about once in 200 runs of
// TestPoolForEachCoversAllIndices.
type Pool struct {
	size int
	once sync.Once
	jobs chan func()
}

// NewPool returns a pool with the given number of workers; size <= 0
// means runtime.GOMAXPROCS(0) at first use. Workers start lazily on
// the first ForEach, so constructing a Pool is free.
func NewPool(size int) *Pool { return &Pool{size: size} }

// DefaultPool is the package-wide pool: the dataflow executor's worker
// loops, successor extraction, the repair's row copy and rebuild and
// the oracle's store builders share it.
var DefaultPool = NewPool(0)

func (p *Pool) start() {
	p.once.Do(func() {
		if p.size <= 0 {
			p.size = runtime.GOMAXPROCS(0)
		}
		p.jobs = make(chan func())
		for w := 0; w < p.size; w++ {
			go func() {
				for job := range p.jobs {
					job()
				}
			}()
		}
	})
}

// Size returns the number of workers the pool runs (resolving the
// GOMAXPROCS default if needed).
func (p *Pool) Size() int {
	p.start()
	return p.size
}

// ForEach runs f(i) for every i in [0, n) across the pool's workers
// plus the calling goroutine, with dynamic (work-stealing) scheduling.
// It returns when every index has been processed. f must be safe to
// call concurrently for distinct indices.
func (p *Pool) ForEach(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		f(0)
		return
	}
	p.start()
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
	helpers := p.size
	if helpers > n-1 {
		helpers = n - 1 // the caller always covers at least one index
	}
	var wg sync.WaitGroup
	for w := 0; w < helpers; w++ {
		wg.Add(1)
		job := func() {
			loop()
			wg.Done()
		}
		select {
		case p.jobs <- job:
		default:
			wg.Done() // no idle worker: the caller absorbs the work
		}
	}
	loop()
	wg.Wait()
}

// ForRanges splits [0, n) into contiguous ranges — a few per worker, so
// uneven ones balance — and runs f(lo, hi) over them like ForEach. f
// must be safe to call concurrently for disjoint ranges.
func (p *Pool) ForRanges(n int, f func(lo, hi int)) {
	ranges := 4 * p.Size()
	if ranges > n {
		ranges = n
	}
	p.ForEach(ranges, func(r int) { f(r*n/ranges, (r+1)*n/ranges) })
}

// Drive runs worker(i) for every i in [0, n), at most Size() at a
// time, on dedicated goroutines plus the caller — never on the pool's
// job workers. It exists for long-lived worker loops (the dataflow
// plan executor's worker loops block waiting for ready ops): a job
// worker parked inside such a loop for a whole execute is a worker no
// concurrent ForEach — an oracle batch, a successor extraction — can
// be handed. Drive returns when every worker call has returned.
func (p *Pool) Drive(n int, worker func(i int)) {
	if n <= 0 {
		return
	}
	limit := p.Size()
	if limit > n {
		limit = n
	}
	var next atomic.Int64
	loop := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			worker(i)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < limit-1; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop()
		}()
	}
	loop()
	wg.Wait()
}
