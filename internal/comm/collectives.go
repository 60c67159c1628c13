package comm

import (
	"fmt"
	"sort"
)

// Collectives are implemented with binomial trees over an explicit group
// of ranks, so a collective over q ranks costs O(log q) latency along
// the critical path and O(w log q) bandwidth for a w-word payload —
// exactly the per-operation costs assumed throughout Section 5.4 of the
// paper. Every member of the group must call the collective with the
// same group slice (same order), the same root and the same tag.
//
// Tags: one collective consumes a single non-negative tag. Two
// collectives may share a tag only if no pair of ranks exchanges
// messages in both at the same time; the simplest safe discipline, used
// by all algorithms in this repository, is a distinct tag per
// (phase, object) pair. Fused collectives (Allreduce, Allgather,
// Barrier) internally run two phases; the second phase uses ^tag, so
// the negative tag space is reserved for the implementation — callers
// may use every tag ≥ 0 freely, including consecutive ones, without
// colliding with a fused collective's hidden phase. (Using tag+1
// instead would break exactly that: algorithms handing out densely
// packed tag sequences — as the distributed partitioner does — would
// race their own next collective.)

// checkTag rejects caller tags in the reserved (negative) space.
func checkTag(tag int) {
	if tag < 0 {
		panic(fmt.Sprintf("comm: collective tag %d is negative; tags < 0 are reserved for internal collective phases", tag))
	}
}

// groupPos returns the index of rank within group, or panics: calling a
// collective while not a member is always a programming error.
func groupPos(group []int, rank int) int {
	for i, r := range group {
		if r == rank {
			return i
		}
	}
	panic(fmt.Sprintf("comm: rank %d is not a member of group %v", rank, group))
}

// Bcast broadcasts data from root to every rank of group using a
// binomial tree. On root, data is the payload to send; elsewhere data is
// ignored (pass nil). Every caller receives the payload as the return
// value. Receivers share the payload's backing array and must treat it
// as read-only, or copy it.
func (c *Ctx) Bcast(group []int, root, tag int, data []float64) []float64 {
	checkTag(tag)
	return c.bcast(group, root, tag, data)
}

// bcast is Bcast without the tag check, so the fused collectives can
// run their second phase on the reserved ^tag.
func (c *Ctx) bcast(group []int, root, tag int, data []float64) []float64 {
	q := len(group)
	if q == 0 {
		panic("comm: broadcast over empty group")
	}
	pos := groupPos(group, c.rank)
	rootPos := groupPos(group, root)
	rel := (pos - rootPos + q) % q

	// Receive phase: a non-root rank receives exactly once, from the
	// rank that differs in its lowest set bit.
	mask := 1
	for mask < q {
		if rel&mask != 0 {
			srcRel := rel - mask
			src := group[(srcRel+rootPos)%q]
			data = c.Recv(src, tag)
			break
		}
		mask <<= 1
	}
	// Send phase: forward to ranks at decreasing bit distances.
	mask >>= 1
	for mask > 0 {
		if rel+mask < q {
			dst := group[(rel+mask+rootPos)%q]
			c.Send(dst, tag, data)
		}
		mask >>= 1
	}
	return data
}

// BcastTree broadcasts data from group[0] down an explicit tree: parent[i]
// is the position group[i] receives from (parent[0] = -1, parent[i] < i),
// and every member forwards to its children in position order. So group
// lists the members in an order they can receive in, and the tree's shape
// — who relays, how often — is the caller's. On the root, data is the
// payload; elsewhere it is ignored. Every caller receives the payload as
// the return value, sharing its backing array like Bcast's receivers.
func (c *Ctx) BcastTree(group []int, parent []int32, tag int, data []float64) []float64 {
	return c.BcastTreeEach(group, parent, tag, data, nil)
}

// BcastTreeEach is BcastTree with a payload per child: before each send,
// forward(child, held) returns what group[child] is sent, given the
// payload this member holds — the root's data, or what it received. A
// nil forward sends the held payload itself. The return value is still
// the held payload. A member past position 0 whose parent is -1 is a root
// too: it already holds data, receives nothing and only sends.
func (c *Ctx) BcastTreeEach(group []int, parent []int32, tag int, data []float64, forward func(child int, held []float64) []float64) []float64 {
	checkTag(tag)
	if len(group) == 0 {
		panic("comm: broadcast over empty group")
	}
	if len(parent) != len(group) {
		panic(fmt.Sprintf("comm: broadcast tree has %d parents for %d members", len(parent), len(group)))
	}
	pos := groupPos(group, c.rank)
	if pos > 0 && parent[pos] != -1 {
		from := int(parent[pos])
		if from < 0 || from >= pos {
			panic(fmt.Sprintf("comm: broadcast member at position %d has parent %d, not an earlier position", pos, from))
		}
		data = c.Recv(group[from], tag)
	}
	for i := pos + 1; i < len(group); i++ {
		if int(parent[i]) != pos {
			continue
		}
		payload := data
		if forward != nil {
			payload = forward(i, data)
		}
		c.Send(group[i], tag, payload)
	}
	return data
}

// BinomialTree returns Bcast's tree over q members in BcastTree's form:
// order[i] is the root-relative position (Bcast's rel) of the i-th member
// to receive, and parent[i] the index into order it receives from. A
// member's children are ordered as Bcast sends to them, at decreasing
// bit distances, so BcastTree over the group rearranged this way sends
// Bcast's messages in Bcast's order.
func BinomialTree(q int) (order, parent []int32) {
	slot := make([]int, q) // message step at which rel holds the payload
	up := make([]int, q)   // rel's parent rel
	for rel := 0; rel < q; rel++ {
		mask := 1
		for mask < q && rel&mask == 0 {
			mask <<= 1
		}
		sent := 0
		for m := mask >> 1; m > 0; m >>= 1 {
			if rel+m < q {
				sent++
				slot[rel+m], up[rel+m] = slot[rel]+sent, rel
			}
		}
	}
	order = make([]int32, q)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := order[a], order[b]
		if slot[x] != slot[y] {
			return slot[x] < slot[y]
		}
		return x < y
	})
	at := make([]int32, q) // rel → index into order
	for i, rel := range order {
		at[rel] = int32(i)
	}
	parent = make([]int32, q)
	for i := range parent {
		parent[i] = at[up[order[i]]]
	}
	if q > 0 {
		parent[0] = -1
	}
	return order, parent
}

// Reduce combines the data contributed by every member of group with op
// and delivers the result to root. op(acc, in) must fold in into acc in
// place; contributions have equal length. The caller's data slice may be
// used as the accumulator and modified. Root receives the reduced slice
// as the return value; other ranks receive nil.
func (c *Ctx) Reduce(group []int, root, tag int, data []float64, op func(acc, in []float64)) []float64 {
	checkTag(tag)
	q := len(group)
	if q == 0 {
		panic("comm: reduce over empty group")
	}
	pos := groupPos(group, c.rank)
	rootPos := groupPos(group, root)
	rel := (pos - rootPos + q) % q

	for mask := 1; mask < q; mask <<= 1 {
		if rel&mask != 0 {
			dstRel := rel - mask
			dst := group[(dstRel+rootPos)%q]
			c.Send(dst, tag, data)
			return nil
		}
		srcRel := rel | mask
		if srcRel < q {
			src := group[(srcRel+rootPos)%q]
			in := c.Recv(src, tag)
			op(data, in)
		}
	}
	return data
}

// ReduceTo reduces the members' contributions to an arbitrary root that
// need not belong to the group. Members call it with their data; the
// root calls it too (with nil data if it is not a member and therefore
// contributes nothing). The reduced slice is returned at root, nil
// elsewhere. When the root is outside the group the result travels one
// extra message from the group's first member.
func (c *Ctx) ReduceTo(group []int, root, tag int, data []float64, op func(acc, in []float64)) []float64 {
	checkTag(tag)
	inGroup := false
	for _, r := range group {
		if r == c.rank {
			inGroup = true
			break
		}
	}
	rootInGroup := false
	for _, r := range group {
		if r == root {
			rootInGroup = true
			break
		}
	}
	if rootInGroup {
		if !inGroup {
			if c.rank != root {
				panic("comm: ReduceTo caller is neither a member nor the root")
			}
			// Root is listed in the group, so it must have called the
			// member path; reaching here means the caller lied.
			panic("comm: ReduceTo root must call as a group member")
		}
		return c.Reduce(group, root, tag, data, op)
	}
	if inGroup {
		res := c.Reduce(group, group[0], tag, data, op)
		if c.rank == group[0] {
			c.Send(root, tag, res)
		}
		return nil
	}
	if c.rank != root {
		panic("comm: ReduceTo caller is neither a member nor the root")
	}
	return c.Recv(group[0], tag)
}

// Allreduce combines every member's data with op and returns the result
// on all members (reduce to the first member, then broadcast back). The
// broadcast phase runs on the reserved tag ^tag, so the reduce messages
// of a slow member can never be matched by another member's broadcast
// receive — the two phases were previously distinguishable only by
// timing luck, which broke under dense caller tag sequences. Like
// Bcast, the returned slice may share its backing array across
// members; treat it as read-only or copy it.
func (c *Ctx) Allreduce(group []int, tag int, data []float64, op func(acc, in []float64)) []float64 {
	checkTag(tag)
	res := c.Reduce(group, group[0], tag, data, op)
	return c.bcast(group, group[0], ^tag, res)
}

// Barrier blocks until every member of group has reached it,
// implemented as a zero-word all-reduce (latency O(log q), bandwidth 0).
func (c *Ctx) Barrier(group []int, tag int) {
	c.Allreduce(group, tag, nil, func(acc, in []float64) {})
}

// Gather collects each member's (variable-length) contribution at root.
// Root receives a slice indexed by group position; other ranks receive
// nil. Every returned slice is freshly allocated and owned by the
// caller. Implemented as a binomial tree with per-contribution headers,
// so latency is O(log q) while bandwidth at the root is the total
// payload.
func (c *Ctx) Gather(group []int, root, tag int, data []float64) [][]float64 {
	checkTag(tag)
	q := len(group)
	pos := groupPos(group, c.rank)
	rootPos := groupPos(group, root)
	rel := (pos - rootPos + q) % q

	// bundle: repeated [position, length, payload...]
	bundle := make([]float64, 0, len(data)+2)
	bundle = append(bundle, float64(pos), float64(len(data)))
	bundle = append(bundle, data...)

	for mask := 1; mask < q; mask <<= 1 {
		if rel&mask != 0 {
			dstRel := rel - mask
			dst := group[(dstRel+rootPos)%q]
			c.Send(dst, tag, bundle)
			return nil
		}
		srcRel := rel | mask
		if srcRel < q {
			src := group[(srcRel+rootPos)%q]
			in := c.Recv(src, tag)
			bundle = append(bundle, in...)
		}
	}

	return unpackBundle(bundle, q)
}

// Allgather collects every member's contribution on every member
// (gather at the first member, then a broadcast of the bundle on the
// reserved tag ^tag — see Allreduce for why the phases cannot share a
// tag). Every returned slice is freshly allocated and owned by the
// caller: the broadcast delivers one shared backing array to all
// ranks, so returning subslices of it would let one rank's writes
// corrupt every other rank's view.
func (c *Ctx) Allgather(group []int, tag int, data []float64) [][]float64 {
	checkTag(tag)
	q := len(group)
	parts := c.Gather(group, group[0], tag, data)
	var bundle []float64
	if c.rank == group[0] {
		for p, d := range parts {
			bundle = append(bundle, float64(p), float64(len(d)))
			bundle = append(bundle, d...)
		}
	}
	bundle = c.bcast(group, group[0], ^tag, bundle)
	return unpackBundle(bundle, q)
}

// unpackBundle splits a [position, length, payload...]* bundle into
// per-position copies. Copying is load-bearing: bundles arrive through
// zero-copy sends and broadcasts, so subslices would alias buffers
// shared with other ranks.
func unpackBundle(bundle []float64, q int) [][]float64 {
	out := make([][]float64, q)
	for i := 0; i < len(bundle); {
		p := int(bundle[i])
		n := int(bundle[i+1])
		out[p] = append([]float64(nil), bundle[i+2:i+2+n]...)
		i += 2 + n
	}
	return out
}
