package semiring

import "fmt"

// Kernel selects a min-plus compute kernel implementation. Every
// kernel produces bit-identical matrices and identical operation
// counts — the choice affects wall-clock only, never the flop clock or
// any simulated communication, so experiment tables are byte-identical
// across kernels. Callers pick explicitly:
//
//	KernelSerial  the reference i-k-j loop (default; the simulated
//	              ranks use it because each rank is already a goroutine)
//	KernelTiled   cache-blocked panels with a register-blocked inner
//	              kernel, tile sizes from a one-time autotune
//	KernelPooled  the tiled kernel fanned out over the persistent
//	              DefaultPool worker set
//	KernelSparse  CSR index over the finite entries of A, falling back
//	              to the tiled kernel above SparseDensityThreshold
type Kernel int

const (
	KernelSerial Kernel = iota
	KernelTiled
	KernelPooled
	KernelSparse
)

// Kernels lists every selectable kernel, in parse-name order.
func Kernels() []Kernel {
	return []Kernel{KernelSerial, KernelTiled, KernelPooled, KernelSparse}
}

func (k Kernel) String() string {
	switch k {
	case KernelSerial:
		return "serial"
	case KernelTiled:
		return "tiled"
	case KernelPooled:
		return "pooled"
	case KernelSparse:
		return "sparse"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// KernelNames lists the names ParseKernel accepts, for its error and
// for the CLIs' -kernel help.
const KernelNames = "serial, tiled, pooled, sparse"

// ParseKernel maps a kernel name (one of KernelNames; "" means serial)
// to its Kernel value.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "", "serial":
		return KernelSerial, nil
	case "tiled":
		return KernelTiled, nil
	case "pooled":
		return KernelPooled, nil
	case "sparse":
		return KernelSparse, nil
	default:
		return 0, fmt.Errorf("semiring: unknown kernel %q (valid: %s)", s, KernelNames)
	}
}

// MulAddInto computes C = C ⊕ A ⊗ B with the selected kernel.
func (k Kernel) MulAddInto(c, a, b *Matrix) int64 {
	switch k {
	case KernelTiled:
		return MulAddIntoTiled(c, a, b)
	case KernelPooled:
		return MulAddIntoPooled(c, a, b)
	case KernelSparse:
		return MulAddIntoSparse(c, a, b)
	default:
		return MulAddInto(c, a, b)
	}
}

// PanelUpdateLeft computes P = P ⊕ P ⊗ D with the selected kernel.
func (k Kernel) PanelUpdateLeft(p, d *Matrix) int64 {
	tmp := p.Clone()
	return k.MulAddInto(p, tmp, d)
}

// PanelUpdateRight computes P = P ⊕ D ⊗ P with the selected kernel.
func (k Kernel) PanelUpdateRight(p, d *Matrix) int64 {
	tmp := p.Clone()
	return k.MulAddInto(p, d, tmp)
}

// PanelUpdateLeftScratch is PanelUpdateLeft with the snapshot of P
// taken into a's scratch space instead of a fresh allocation. Flops
// and results are bit-identical to PanelUpdateLeft.
func (k Kernel) PanelUpdateLeftScratch(p, d *Matrix, a *Arena) int64 {
	tmp := FromSlice(p.Rows, p.Cols, a.Scratch(len(p.V)))
	copy(tmp.V, p.V)
	return k.MulAddInto(p, tmp, d)
}

// PanelUpdateRightScratch is PanelUpdateRight with an arena-backed
// snapshot; see PanelUpdateLeftScratch.
func (k Kernel) PanelUpdateRightScratch(p, d *Matrix, a *Arena) int64 {
	tmp := FromSlice(p.Rows, p.Cols, a.Scratch(len(p.V)))
	copy(tmp.V, p.V)
	return k.MulAddInto(p, d, tmp)
}

// ClassicalFW runs the Floyd–Warshall update with the selected kernel.
// The pivot loop is inherently sequential, so KernelTiled and
// KernelSparse fall back to the serial loop (the pivot row already
// streams cache-friendly, and the matrix mutates every pivot step so a
// CSR index would be stale immediately); KernelPooled parallelizes each
// pivot step's independent row updates.
func (k Kernel) ClassicalFW(m *Matrix) int64 {
	if k == KernelPooled {
		return classicalFWPooled(DefaultPool, m)
	}
	return ClassicalFW(m)
}

// BlockedFW runs the blocked Floyd–Warshall with block size b, using
// the selected kernel for the diagonal, panel and outer-product steps.
func (k Kernel) BlockedFW(m *Matrix, b int) int64 {
	return BlockedFWKernel(m, b, k)
}

// PanelStep is one link of a fused panel-update chain: the broadcast
// operand D and which side it multiplies on. Right=false applies
// P ⊕= P ⊗ D (PanelUpdateLeftScratch), Right=true applies P ⊕= D ⊗ P
// (PanelUpdateRightScratch).
type PanelStep struct {
	D     *Matrix
	Right bool
}

// PanelUpdateMultiScratch applies a chain of panel updates to the
// resident block p, keeping p hot across all accumulations: one fused
// node loads the destination once and runs k accumulates instead of k
// separate nodes each paying a full scheduler round-trip and
// write-back. Step i is bit-identical to the corresponding single
// PanelUpdateLeft/RightScratch call — each step snapshots p into the
// arena before multiplying, so the min-plus accumulation order over
// the same block is exactly plan order.
//
// The optional hooks let the caller interleave its accounting with the
// arithmetic at the same points the unfused nodes would have:
// before(i) runs ahead of step i's multiply (receive/send/memory
// charges), after(i, ops) runs right after it with the step's
// operation count (flops/memory-release charges). Either may be nil.
// Returns the total operation count.
func (k Kernel) PanelUpdateMultiScratch(p *Matrix, steps []PanelStep, a *Arena, before func(i int), after func(i int, ops int64)) int64 {
	var total int64
	for i := range steps {
		if before != nil {
			before(i)
		}
		tmp := FromSlice(p.Rows, p.Cols, a.Scratch(len(p.V)))
		copy(tmp.V, p.V)
		var ops int64
		if steps[i].Right {
			ops = k.MulAddInto(p, steps[i].D, tmp)
		} else {
			ops = k.MulAddInto(p, tmp, steps[i].D)
		}
		if after != nil {
			after(i, ops)
		}
		total += ops
	}
	return total
}
