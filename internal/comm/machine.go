package comm

import (
	"fmt"
	"sync"
)

// message is a point-to-point message in flight.
type message struct {
	src   int
	tag   int
	data  []float64
	clock Cost // sender's clock snapshot taken before the send was charged
}

// mailbox holds the pending messages of one rank. Senders append under
// the lock; the owning rank removes the first entry matching a
// (source, tag) pair, blocking on the condition variable while none
// matches.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
	// Set while the owning rank is blocked inside take, so the
	// watchdog can verify the wait is genuinely unsatisfiable.
	waiting          bool
	waitSrc, waitTag int
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(ws *watchState, m message) {
	mb.mu.Lock()
	mb.pending = append(mb.pending, m)
	// Wake the owner only when it is blocked waiting for exactly this
	// (src, tag): each mailbox has a single receiver, so a non-matching
	// message cannot satisfy its wait, and an unconditional Broadcast
	// just forces a spurious rescan of the pending list. The watchdog's
	// poison wakeup still uses Broadcast.
	notify := mb.waiting && mb.waitSrc == m.src && mb.waitTag == m.tag
	mb.mu.Unlock()
	ws.delivered.Add(1)
	if notify {
		mb.cond.Signal()
	}
}

// take removes and returns the first pending message from src with tag,
// blocking until one arrives. If the machine's watchdog poisons the run
// (deadlock detected), take panics with a poisonError describing the
// blocked receive.
func (mb *mailbox) take(ws *watchState, rank, src, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if ws.poisoned.Load() {
			panic(poisonError{rank: rank, src: src, tag: tag})
		}
		for i, m := range mb.pending {
			if m.src == src && m.tag == tag {
				mb.pending = append(mb.pending[:i], mb.pending[i+1:]...)
				ws.taken.Add(1)
				return m
			}
		}
		mb.waiting = true
		mb.waitSrc, mb.waitTag = src, tag
		ws.blocked.Add(1)
		mb.cond.Wait()
		ws.blocked.Add(-1)
		mb.waiting = false
	}
}

// Machine is a simulated distributed-memory machine with p ranks.
// Create one with NewMachine, execute an SPMD program with Run, then
// read costs with Report or CriticalPath. A Machine may be reused for
// several consecutive Run calls; costs accumulate across them (use
// Reset to clear). Its ranks charge their costs to a Replay ledger the
// machine owns, so the machine and a replay executor share one clock
// rule and one set of aggregators.
type Machine struct {
	p     int
	boxes []*mailbox
	led   *Replay
	ws    watchState
}

// NewMachine returns a machine with p ranks. p must be positive.
func NewMachine(p int) *Machine {
	if p <= 0 {
		panic(fmt.Sprintf("comm: machine size must be positive, got %d", p))
	}
	m := &Machine{
		p:     p,
		boxes: make([]*mailbox, p),
		led:   NewReplay(p),
	}
	for i := range m.boxes {
		m.boxes[i] = newMailbox()
	}
	return m
}

// P returns the number of ranks.
func (m *Machine) P() int { return m.p }

// Reset clears all cost clocks, counters and pending messages so the
// machine can run an independent program.
func (m *Machine) Reset() {
	// Every watchState counter must go back to zero: a leftover
	// taken/blocked count from the previous run would skew the
	// watchdog's progress sampling and can delay or trigger spurious
	// deadlock verdicts on the next Run.
	m.ws.poisoned.Store(false)
	m.ws.delivered.Store(0)
	m.ws.taken.Store(0)
	m.ws.blocked.Store(0)
	m.ws.finished.Store(0)
	m.led = NewReplay(m.p)
	for _, mb := range m.boxes {
		mb.mu.Lock()
		mb.pending = nil
		mb.waiting = false
		mb.waitSrc, mb.waitTag = 0, 0
		mb.mu.Unlock()
	}
}

// Run executes fn once per rank, each in its own goroutine, and waits
// for all of them. A panic in any rank is recovered and returned as an
// error naming the rank. A deadlock — every rank finished or blocked in
// Recv with messages that can never arrive — is detected by a watchdog
// and also returned as an error instead of hanging. A machine whose Run
// returned an error must not be reused.
func (m *Machine) Run(fn func(ctx *Ctx)) error {
	var wg sync.WaitGroup
	errs := make([]error, m.p)
	stop := make(chan struct{})
	go m.watch(stop)
	for r := 0; r < m.p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer m.ws.finished.Add(1)
			defer func() {
				if rec := recover(); rec != nil {
					errs[rank] = fmt.Errorf("comm: rank %d panicked: %v", rank, rec)
				}
			}()
			fn(&Ctx{machine: m, rank: rank})
		}(r)
	}
	wg.Wait()
	close(stop)
	m.ws.finished.Store(0)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for r, mb := range m.boxes {
		mb.mu.Lock()
		n := len(mb.pending)
		mb.mu.Unlock()
		if n != 0 {
			return fmt.Errorf("comm: rank %d finished with %d unreceived messages", r, n)
		}
	}
	return nil
}

// CriticalPath returns the element-wise maximum cost clock over all
// ranks: the critical-path latency, bandwidth and flops of everything
// executed so far.
func (m *Machine) CriticalPath() Cost { return m.led.CriticalPath() }

// Report summarizes a finished run.
type Report struct {
	P             int
	Critical      Cost                  // critical-path cost (the quantities Table 2 bounds)
	TotalMessages int64                 // aggregate messages sent by all ranks
	TotalWords    int64                 // aggregate words sent by all ranks
	MaxMemory     int64                 // maximum per-rank peak resident words
	PerRank       []Cost                // each rank's final clock
	PeakWords     []int64               // each rank's peak registered memory
	LocalFlops    []int64               // each rank's own computation (no clock merging)
	LocalSent     []int64               // each rank's own sent words
	WordsByClass  [NumSendClasses]int64 // aggregate words sent per phase class (indexed by SendClass)
}

// Report returns the cost summary of everything executed so far.
func (m *Machine) Report() Report { return m.led.Report() }

// Traffic returns the words-sent matrix: Traffic()[src][dst] is the
// total payload volume src sent to dst. Useful for inspecting the
// communication structure (the sparse algorithm's matrix mirrors the
// eTree: pivot rows/columns and the unit-processor rows light up).
func (m *Machine) Traffic() [][]int64 { return m.led.Traffic() }

func (r Report) String() string {
	return fmt.Sprintf("p=%d critical{%v} totalMsgs=%d totalWords=%d maxMemWords=%d",
		r.P, r.Critical, r.TotalMessages, r.TotalWords, r.MaxMemory)
}
