package comm

// Alternative broadcast algorithms for the collectives ablation. The
// default Bcast is a binomial tree — O(log q) messages, O(w log q)
// words per rank — matching the cost model used throughout the paper's
// Section 5.4 analysis. The alternatives trade differently:
//
//   - BcastLinear: the root sends to every member directly. O(q)
//     messages serialized at the root, O(w) words per receiver. The
//     strawman.
//   - BcastScag: binomial scatter followed by a Bruck all-gather
//     (the van de Geijn large-message scheme). O(log q) messages and
//     O(w) words per rank — bandwidth-optimal, which is how dense
//     algorithms reach the log-free O(n²/√p) bandwidth of Table 2.

// BcastLinear broadcasts by direct sends from the root.
func (c *Ctx) BcastLinear(group []int, root, tag int, data []float64) []float64 {
	q := len(group)
	if q == 0 {
		panic("comm: broadcast over empty group")
	}
	groupPos(group, c.rank) // membership check
	if c.rank == root {
		for _, r := range group {
			if r != root {
				c.Send(r, tag, data)
			}
		}
		return data
	}
	return c.Recv(root, tag)
}

// BcastScag broadcasts with a binomial scatter of q near-equal
// segments followed by a Bruck all-gather. Zero-length payloads fall
// back to the binomial tree (there is nothing to split).
func (c *Ctx) BcastScag(group []int, root, tag int, data []float64) []float64 {
	q := len(group)
	if q == 0 {
		panic("comm: broadcast over empty group")
	}
	pos := groupPos(group, c.rank)
	rootPos := groupPos(group, root)
	if q == 1 {
		return data
	}
	// The payload length must be known by every rank to slice segments;
	// ship it in a tiny header ahead of the scatter (root-only cost
	// O(log q) words total). Zero-length payloads just use the tree.
	var w int
	if c.rank == root {
		w = len(data)
	}
	hdr := c.Bcast(group, root, tag, []float64{float64(w)})
	w = int(hdr[0])
	if w == 0 {
		return nil
	}
	off := func(i int) int { return i * w / q }
	rel := func(p int) int { return (p - rootPos + q) % q }
	abs := func(r int) int { return group[(r+rootPos)%q] }

	// Binomial scatter: the holder of relative range [lo, lo+span)
	// keeps the lower half and sends the upper half to lo+span/2...
	// Standard MPICH: relative rank r receives the segment range
	// [r, r+extent(r)) where extent halves down the tree.
	myRel := rel(pos)
	segs := make([][]float64, q) // by relative segment index
	if c.rank == root {
		for s := 0; s < q; s++ {
			a := (s + rootPos) % q
			segs[s] = data[off(a):off(a+1)]
		}
	}
	// Receive phase.
	mask := 1
	for mask < q {
		if myRel&mask != 0 {
			src := abs(myRel - mask)
			bundle := c.Recv(src, tag+1)
			for i := 0; i < len(bundle); {
				s := int(bundle[i])
				n := int(bundle[i+1])
				segs[s] = bundle[i+2 : i+2+n : i+2+n]
				i += 2 + n
			}
			break
		}
		mask <<= 1
	}
	// Send phase: forward the upper halves of my current range.
	mask >>= 1
	for mask > 0 {
		if myRel+mask < q {
			lo := myRel + mask
			hi := myRel + 2*mask
			if hi > q {
				hi = q
			}
			var bundle []float64
			for s := lo; s < hi; s++ {
				bundle = append(bundle, float64(s), float64(len(segs[s])))
				bundle = append(bundle, segs[s]...)
				segs[s] = nil
			}
			c.Send(abs(lo), tag+1, bundle)
		}
		mask >>= 1
	}

	// Bruck all-gather over relative positions: at step 2^s, send all
	// held segments to (myRel - 2^s) and receive from (myRel + 2^s).
	for step := 1; step < q; step <<= 1 {
		dst := abs((myRel - step + q) % q)
		src := abs((myRel + step) % q)
		var bundle []float64
		for s := 0; s < q; s++ {
			if segs[s] != nil {
				bundle = append(bundle, float64(s), float64(len(segs[s])))
				bundle = append(bundle, segs[s]...)
			}
		}
		if dst != c.rank {
			c.Send(dst, tag+2, bundle)
			in := c.Recv(src, tag+2)
			for i := 0; i < len(in); {
				s := int(in[i])
				n := int(in[i+1])
				if segs[s] == nil {
					segs[s] = in[i+2 : i+2+n : i+2+n]
				}
				i += 2 + n
			}
		}
	}

	// Reassemble in absolute order.
	out := make([]float64, w)
	for s := 0; s < q; s++ {
		a := (s + rootPos) % q
		copy(out[off(a):off(a+1)], segs[s])
	}
	return out
}
