package comm

// Replay is the cost ledger: per-rank clocks, counters and phase marks,
// advanced by explicit charge calls. It is the one implementation of
// the model's clock rule. A Machine charges its ranks' Ctx calls to a
// Replay it owns; a dataflow executor that knows the complete
// communication schedule in advance (every send's source, destination
// and payload size, and every receive's matching send) charges one
// directly, replaying each rank's charge sequence in the rank's program
// order, and so obtains clocks bit-identical to a Machine executing the
// same program.
//
// Concurrency contract: Replay itself takes no locks. Distinct ranks'
// charges may be issued from different goroutines as long as (a) each
// rank's charges are issued in that rank's program order, (b) no two
// goroutines charge the same rank concurrently, and (c) every
// ChargeSend happens-before the ChargeRecv consuming its returned
// snapshot. A Machine gets all three from one goroutine per rank and
// its mailbox locks, a dataflow executor from its dependency edges. The
// read-side aggregators (Report, CriticalPath, PhaseCosts)
// must only be called after all charges have been issued and their
// goroutines joined.
type Replay struct {
	p      int
	states []rankState
}

// rankState is one rank's bookkeeping, touched only by the rank's own
// charges (except by the aggregators, once the charges are done).
type rankState struct {
	clock      Cost
	sentMsgs   int64
	sentWords  int64
	memWords   int64       // currently registered resident words
	peakWords  int64       // maximum ever registered
	localFlops int64       // flops performed by this rank itself (no max-merge)
	marks      []markEntry // phase boundaries recorded by Mark

	sendClass   SendClass             // phase label charged by subsequent sends
	sentByClass [NumSendClasses]int64 // words sent per phase class
}

// NewReplay returns a ledger for p ranks with all clocks at zero.
func NewReplay(p int) *Replay {
	return &Replay{p: p, states: make([]rankState, p)}
}

// P returns the number of ranks.
func (r *Replay) P() int { return r.p }

// ChargeSend charges src for sending one message of words payload words
// and returns the clock snapshot the message carries — the sender's
// clock BEFORE the send was charged. The caller passes the snapshot to
// the matching ChargeRecv.
func (r *Replay) ChargeSend(src int, words int64) Cost {
	st := &r.states[src]
	snap := st.clock
	st.clock.addMessage(words)
	st.sentMsgs++
	st.sentWords += words
	st.sentByClass[st.sendClass] += words
	return snap
}

// ChargeRecv charges rank for receiving a words-word message carrying
// the sender snapshot: max-merge first, then one message of words
// words. Receive order matters — max-then-add is not commutative across
// receives — so the caller must issue a rank's ChargeRecv calls in the
// rank's program order.
func (r *Replay) ChargeRecv(rank int, sender Cost, words int64) {
	st := &r.states[rank]
	st.clock.maxInPlace(sender)
	st.clock.addMessage(words)
}

// AddFlops charges n semiring operations to rank's clock and its local
// work counter.
func (r *Replay) AddFlops(rank int, n int64) {
	st := &r.states[rank]
	st.clock.Flops += n
	st.localFlops += n
}

// SetMemory registers rank's current resident words and updates the
// peak.
func (r *Replay) SetMemory(rank int, words int64) {
	st := &r.states[rank]
	st.memWords = words
	if words > st.peakWords {
		st.peakWords = words
	}
}

// AddMemory adjusts rank's resident words by delta.
func (r *Replay) AddMemory(rank int, delta int64) {
	st := &r.states[rank]
	st.memWords += delta
	if st.memWords > st.peakWords {
		st.peakWords = st.memWords
	}
}

// Mark records a phase boundary labelled id on rank.
func (r *Replay) Mark(rank int, id string) {
	st := &r.states[rank]
	st.marks = append(st.marks, markEntry{id: id, clock: st.clock})
}

// Clock returns rank's current cost clock.
func (r *Replay) Clock(rank int) Cost { return r.states[rank].clock }

// CriticalPath returns the element-wise maximum clock over all ranks.
func (r *Replay) CriticalPath() Cost {
	var c Cost
	for i := range r.states {
		c.maxInPlace(r.states[i].clock)
	}
	return c
}

// Report returns the cost summary of everything charged so far.
func (r *Replay) Report() Report {
	rep := Report{
		P:          r.p,
		PerRank:    make([]Cost, r.p),
		PeakWords:  make([]int64, r.p),
		LocalFlops: make([]int64, r.p),
		LocalSent:  make([]int64, r.p),
	}
	for i := range r.states {
		st := &r.states[i]
		rep.Critical.maxInPlace(st.clock)
		rep.TotalMessages += st.sentMsgs
		rep.TotalWords += st.sentWords
		if st.peakWords > rep.MaxMemory {
			rep.MaxMemory = st.peakWords
		}
		rep.PerRank[i] = st.clock
		rep.PeakWords[i] = st.peakWords
		rep.LocalFlops[i] = st.localFlops
		rep.LocalSent[i] = st.sentWords
		for c := 0; c < NumSendClasses; c++ {
			rep.WordsByClass[c] += st.sentByClass[c]
		}
	}
	return rep
}
