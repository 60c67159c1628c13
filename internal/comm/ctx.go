package comm

import "fmt"

// Ctx is one rank's handle to the machine, valid only inside the
// function passed to Machine.Run and only on that rank's goroutine.
// Its calls move the data, validate the ranks and charge the rank's
// ledger, which only the rank's own goroutine touches.
type Ctx struct {
	machine *Machine
	rank    int
}

// Rank returns this rank's id in [0, P).
func (c *Ctx) Rank() int { return c.rank }

// P returns the machine size.
func (c *Ctx) P() int { return c.machine.p }

// Send transmits data to rank dst with the given tag. The slice is
// handed over to the receiver; the caller must not modify it afterwards
// (receivers get the same backing array, mirroring zero-copy transfer;
// copy before sending if the local buffer will be reused).
//
// Cost: the message carries the sender's pre-send clock, and the sender
// pays one message of len(data) words, so a rank issuing k sends
// serializes them (assumption 2 of the model).
func (c *Ctx) Send(dst, tag int, data []float64) {
	if dst < 0 || dst >= c.machine.p {
		panic(fmt.Sprintf("comm: send to invalid rank %d (p=%d)", dst, c.machine.p))
	}
	if dst == c.rank {
		panic("comm: self-send is not allowed; keep the data local instead")
	}
	clock := c.state().send(int64(len(data)))
	c.machine.boxes[dst].put(&c.machine.ws, message{src: c.rank, tag: tag, data: data, clock: clock})
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. Cost: the receiver's clock max-merges the
// sender's pre-send clock, then pays one message of the payload's size,
// so a rank receiving k messages serializes them.
func (c *Ctx) Recv(src, tag int) []float64 {
	if src < 0 || src >= c.machine.p {
		panic(fmt.Sprintf("comm: recv from invalid rank %d (p=%d)", src, c.machine.p))
	}
	if src == c.rank {
		panic("comm: self-recv is not allowed")
	}
	msg := c.machine.boxes[c.rank].take(&c.machine.ws, c.rank, src, tag)
	c.state().recv(msg.clock, int64(len(msg.data)))
	return msg.data
}

// AddFlops charges n semiring operations to this rank's clock and its
// local work counter.
func (c *Ctx) AddFlops(n int64) {
	st := c.state()
	st.clock.Flops += n
	st.localFlops += n
}

// SetMemory registers the rank's current resident data size in words
// and updates the peak. Algorithms call it once after allocating their
// local blocks (and again if they grow).
func (c *Ctx) SetMemory(words int64) { c.state().setMemory(words) }

// AddMemory adjusts the registered resident size by delta words.
func (c *Ctx) AddMemory(delta int64) {
	st := c.state()
	st.setMemory(st.memWords + delta)
}

// Clock returns the rank's current cost clock.
func (c *Ctx) Clock() Cost { return c.state().clock }

func (c *Ctx) state() *rankState { return &c.machine.states[c.rank] }
