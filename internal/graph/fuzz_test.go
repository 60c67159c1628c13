package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// Fuzz targets for the two parsers: they must never panic and, when
// they accept an input, the resulting graph must satisfy basic
// invariants and round-trip through the writer.

func FuzzRead(f *testing.F) {
	f.Add("n 3\n0 1 2.5\n1 2 1\n")
	f.Add("# comment\nn 1\n")
	f.Add("n 0\n")
	f.Add("n 5\n0 4\n")
	f.Add("n") // regression: bare header once indexed out of range
	// Regressions: ParseFloat takes all three, and a non-finite weight
	// was served as a graph (METIS input already refused them).
	f.Add("n 2\n0 1 NaN\n")
	f.Add("n 2\n0 1 Inf\n")
	f.Add("n 2\n0 1 -Inf\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		checkParsedGraph(t, g)
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			t.Fatalf("write failed on accepted graph: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round-trip re-read failed: %v", err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("round-trip changed shape: %d/%d -> %d/%d", g.N(), g.M(), back.N(), back.M())
		}
	})
}

func FuzzReadMETIS(f *testing.F) {
	f.Add("3 2\n2 3\n1\n1\n")
	f.Add("2 1 1\n2 4.5\n1 4.5\n")
	f.Add("0 0\n")
	f.Add("1 0\n\n")               // isolated vertex = blank vertex line
	f.Add("2 1 1\n2 NaN\n1 NaN\n") // non-finite weights must be rejected
	f.Add("1 1\n1 1\n")            // self-loop must be rejected, not miscounted
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadMETIS(strings.NewReader(input))
		if err != nil {
			return
		}
		checkParsedGraph(t, g)
		// Every accepted graph must survive Write→Read unchanged: the
		// writer emits one line per vertex (blank for isolated ones) and
		// %g weights, all of which the reader must take back verbatim.
		var buf bytes.Buffer
		if err := g.WriteMETIS(&buf); err != nil {
			t.Fatalf("WriteMETIS failed on accepted graph: %v", err)
		}
		back, err := ReadMETIS(&buf)
		if err != nil {
			t.Fatalf("round-trip re-read failed: %v", err)
		}
		if !sameGraph(g, back) {
			t.Fatalf("METIS round-trip changed the graph")
		}
	})
}

// FuzzMETISRoundTrip drives the round-trip from the graph side: build
// an arbitrary valid graph from fuzzed bytes, write it, read it back,
// compare edge-exactly. This is the direction that caught the
// isolated-vertex bug (the reader used to skip the writer's blank
// vertex lines, shifting every later adjacency list by one vertex).
func FuzzMETISRoundTrip(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 3})
	f.Add(uint8(5), []byte{})           // all isolated
	f.Add(uint8(4), []byte{0, 1, 0, 1}) // duplicate edges collapse
	f.Add(uint8(7), []byte{1, 2, 200, 9, 0, 6})
	f.Fuzz(func(t *testing.T, n uint8, pairs []byte) {
		nv := int(n%32) + 1
		g := New(nv)
		for i := 0; i+1 < len(pairs); i += 2 {
			u, v := int(pairs[i])%nv, int(pairs[i+1])%nv
			if u != v {
				// Weight from the byte stream, kept finite and varied
				// (including fractional values %g must preserve).
				g.AddEdge(u, v, float64(pairs[i])/4)
			}
		}
		var buf bytes.Buffer
		if err := g.WriteMETIS(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadMETIS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written graph %q: %v", buf.String(), err)
		}
		checkParsedGraph(t, back)
		if !sameGraph(g, back) {
			t.Fatalf("round-trip changed the graph:\n%s", buf.String())
		}
	})
}

// sameGraph compares two graphs edge-exactly (same vertex count, same
// undirected edge set, identical weights).
func sameGraph(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}

// checkParsedGraph verifies adjacency symmetry and bounds.
func checkParsedGraph(t *testing.T, g *Graph) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		for _, e := range g.Adj(v) {
			if e.To < 0 || e.To >= g.N() || e.To == v {
				t.Fatalf("bad half-edge %d -> %d", v, e.To)
			}
			if w, ok := g.HasEdge(e.To, v); !ok || w != e.W {
				t.Fatalf("asymmetric edge {%d,%d}", v, e.To)
			}
			if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
				t.Fatalf("edge {%d,%d} parsed with weight %v", v, e.To, e.W)
			}
		}
	}
}
