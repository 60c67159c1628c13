package apsp

import (
	"crypto/sha256"
	"testing"

	"sparseapsp/internal/graph"
)

// FuzzDecodePlanMalformed mutates valid plan encodings (and arbitrary
// junk) and requires the decoder to return an error or a hash-verified
// plan — never panic. Note the policy difference from the semiring pack
// codec's FuzzUnpackMalformed, which accepts decode-or-PANIC: wire
// payloads never leave the process, but plan bytes cross restarts and
// disks, so the decoder must fail closed. There is deliberately no
// recover() here — any panic fails the fuzz.
func FuzzDecodePlanMalformed(f *testing.F) {
	seedPlan := func(g *graph.Graph, p int, wire WireFormat, r4 R4Strategy) {
		h, err := HeightForP(p)
		if err != nil {
			f.Fatal(err)
		}
		ly, err := NewLayout(g, h, 42)
		if err != nil {
			f.Fatal(err)
		}
		pl, err := BuildPlan(ly, p, wire, r4)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pl.Encode())
	}
	seedPlan(graph.Grid2D(6, 6, graph.UnitWeights), 9, WireDense, R4Mapped)
	seedPlan(graph.Grid2D(8, 8, graph.UnitWeights), 9, WirePruned, R4Mapped)
	seedPlan(graph.Grid2D(8, 8, graph.UnitWeights), 49, WirePruned, R4Mapped) // mirror holders
	seedPlan(graph.Star(40, graph.UnitWeights), 9, WirePruned, R4Sequential)
	seedPlan(graph.Cycle(800, graph.UnitWeights), 961, WirePruned, R4Mapped) // dead work dropped
	for _, fx := range unrunnableGroupPlans(f) {
		f.Add(fx.enc)
	}
	f.Add([]byte{})
	f.Add([]byte(planMagic))
	f.Add([]byte("not a plan at all, definitely longer than the envelope minimum"))

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeCanonical(t, data)
		// The content hash rejects nearly every mutation before the body
		// is parsed. Re-sealing the mutated body under its own hash hands
		// it to the varint reader and the op validator.
		if len(data) >= len(planMagic)+sha256.Size {
			sealed := append([]byte(nil), data...)
			sum := sha256.Sum256(sealed[len(planMagic) : len(sealed)-sha256.Size])
			copy(sealed[len(sealed)-sha256.Size:], sum[:])
			decodeCanonical(t, sealed)
		}
	})
}

// decodeCanonical decodes data and requires an error or a plan whose
// encoding is data itself: the decoder may only accept canonical bytes.
func decodeCanonical(t *testing.T, data []byte) {
	pl, err := DecodePlan(data)
	if err == nil && pl == nil {
		t.Fatal("DecodePlan returned nil plan with nil error")
	}
	if err == nil && string(pl.Encode()) != string(data) {
		t.Fatal("accepted input is not the canonical encoding of the decoded plan")
	}
}
