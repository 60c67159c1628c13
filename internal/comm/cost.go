// Package comm implements a simulated distributed-memory machine in the
// model of Section 3.1 of Zhu, Hua, Jin (ICPP 2021): p homogeneous
// processors, a dedicated link between every pair, and per-processor
// communication costs counted along the critical path as defined by
// Yang and Miller (ICDCS 1988).
//
// Each rank runs as a goroutine. Point-to-point messages are matched by
// (source, tag) in FIFO order, like MPI. Collectives (broadcast, reduce,
// all-reduce, gather, barrier) are built from point-to-point sends using
// binomial trees, so their measured costs are exactly the O(log q)
// message / O(w log q) word costs the paper's analysis assumes.
//
// Cost accounting: every rank carries a cost clock (latency, bandwidth,
// flops). A send snapshots the sender's clock into the message and then
// charges the sender (1 message, w words). A receive first takes the
// element-wise max of the local clock and the message's clock, then
// charges the receiver (1 message, w words). The maximum clock over all
// ranks after the program finishes is the critical-path cost: two
// messages exchanged simultaneously between separate pairs of processors
// are counted once, while messages serialized through a single sender or
// receiver accumulate, matching assumptions (2) and (3) of the model.
package comm

import "fmt"

// Cost is a critical-path cost clock. Latency counts messages, Bandwidth
// counts words (one word = one float64 distance entry), and Flops counts
// semiring operations (one ⊕ plus one ⊗ counts as one operation).
type Cost struct {
	Latency   int64
	Bandwidth int64
	Flops     int64
}

// maxInPlace sets c to the element-wise maximum of c and o. Element-wise
// maximum over happens-before chains yields, for each component, the
// largest accumulation along any dependency path, which is the
// critical-path count for that component.
func (c *Cost) maxInPlace(o Cost) {
	if o.Latency > c.Latency {
		c.Latency = o.Latency
	}
	if o.Bandwidth > c.Bandwidth {
		c.Bandwidth = o.Bandwidth
	}
	if o.Flops > c.Flops {
		c.Flops = o.Flops
	}
}

// addMessage charges one message of w words.
func (c *Cost) addMessage(w int64) {
	c.Latency++
	c.Bandwidth += w
}

// Add returns the element-wise sum of a and b.
func Add(a, b Cost) Cost {
	return Cost{
		Latency:   a.Latency + b.Latency,
		Bandwidth: a.Bandwidth + b.Bandwidth,
		Flops:     a.Flops + b.Flops,
	}
}

func (c Cost) String() string {
	return fmt.Sprintf("latency=%d bandwidth=%d flops=%d", c.Latency, c.Bandwidth, c.Flops)
}
