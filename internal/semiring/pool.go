package semiring

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent set of worker goroutines for the parallel
// kernels. The previous MulAddIntoParallel spawned fresh goroutines on
// every call, which costs a scheduler round-trip per worker per
// multiply — measurable when the solvers issue thousands of small
// block multiplies. A Pool starts its workers once, lazily, and hands
// them closures over a buffered channel.
//
// Submission never blocks and never deadlocks: if every worker is busy
// (including when pool calls nest, as in SuperFWParallel running pooled
// block kernels), the caller simply executes the work itself — the pool
// degrades to the serial kernel instead of queueing behind itself.
type Pool struct {
	size int
	once sync.Once
	jobs chan func()
}

// NewPool returns a pool with the given number of workers; size <= 0
// means runtime.GOMAXPROCS(0) at first use. Workers start lazily on
// the first ForEach, so constructing a Pool is free.
func NewPool(size int) *Pool { return &Pool{size: size} }

// DefaultPool is the package-wide pool used by MulAddIntoPooled,
// MulAddIntoParallel and the pooled Kernel methods.
var DefaultPool = NewPool(0)

func (p *Pool) start() {
	p.once.Do(func() {
		if p.size <= 0 {
			p.size = runtime.GOMAXPROCS(0)
		}
		p.jobs = make(chan func(), p.size)
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
			wg.Done() // pool saturated: the caller absorbs the work
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
// plan executor's drain loops block waiting for ready ops): a job
// worker blocked inside such a loop could not pick up the nested
// kernel jobs the loop itself submits through the pooled kernels,
// which would wedge the pool when every job worker is so occupied.
// Drive returns when every worker call has returned.
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

// MulAddInto computes C = C ⊕ A ⊗ B with the tiled kernel fanned out
// over the pool in contiguous row bands. Distinct bands write disjoint
// rows of C, so no synchronization beyond the final join is needed;
// results and the operation count are identical to MulAddInto.
func (p *Pool) MulAddInto(c, a, b *Matrix) int64 {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("semiring: mul dims %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	tk, tj := TileSizes()
	rows := a.Rows
	// Two bands per worker balances uneven Inf density without
	// shrinking bands below the tile reuse sweet spot.
	bands := 2 * p.Size()
	if bands > rows {
		bands = rows
	}
	if bands <= 1 {
		return mulAddTiledRows(c, a, b, 0, rows, tk, tj)
	}
	ops := make([]int64, bands)
	p.ForEach(bands, func(t int) {
		lo, hi := t*rows/bands, (t+1)*rows/bands
		ops[t] = mulAddTiledRows(c, a, b, lo, hi, tk, tj)
	})
	var total int64
	for _, o := range ops {
		total += o
	}
	return total
}

// MulAddIntoPooled is MulAddInto on the DefaultPool: tiled panels, row
// bands across the persistent workers. Identical results and operation
// count to the serial kernel.
func MulAddIntoPooled(c, a, b *Matrix) int64 {
	return DefaultPool.MulAddInto(c, a, b)
}

// classicalFWPooled is ClassicalFW with each pivot step's row updates
// fanned out over the pool. The k loop is inherently sequential (step
// k reads the pivot row produced by step k−1), but within one step the
// row updates are independent — except for pivot row k itself, whose
// self-update can rewrite the data other rows are reading when the
// clamped diagonal is negative (a negative cycle through k). In that
// case the serial order (rows < k, then row k, then rows > k) is
// reproduced exactly; otherwise the self-update is a read-only no-op
// and every row runs concurrently. Results and operation counts are
// identical to ClassicalFW for all inputs.
func classicalFWPooled(p *Pool, m *Matrix) int64 {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("semiring: ClassicalFW on %dx%d matrix", m.Rows, m.Cols))
	}
	n := m.Rows
	// Below this the per-pivot joins cost more than the row work.
	if n < 192 {
		return ClassicalFW(m)
	}
	for i := 0; i < n; i++ {
		if m.V[i*n+i] > 0 {
			m.V[i*n+i] = 0
		}
	}
	bands := 2 * p.Size()
	if bands > n {
		bands = n
	}
	partial := make([]int64, bands)
	var ops int64
	rowRange := func(k, lo, hi int) int64 {
		krow := m.V[k*n : (k+1)*n]
		var o int64
		for i := lo; i < hi; i++ {
			mik := m.V[i*n+k]
			if math.IsInf(mik, 1) {
				continue
			}
			minPlusRow(m.V[i*n:(i+1)*n], mik, krow)
			o += int64(n)
		}
		return o
	}
	for k := 0; k < n; k++ {
		if m.V[k*n+k] < 0 {
			// Negative diagonal: replay the serial order around row k.
			ops += rowRange(k, 0, k)
			ops += rowRange(k, k, k+1)
			ops += rowRange(k, k+1, n)
			continue
		}
		p.ForEach(bands, func(t int) {
			partial[t] = rowRange(k, t*n/bands, (t+1)*n/bands)
		})
		for t := range partial {
			ops += partial[t]
		}
	}
	return ops
}
