package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// WriteMETIS serializes the graph in METIS format with edge weights.
func (g *Graph) WriteMETIS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d 1\n", g.n, g.m); err != nil {
		return err
	}
	for v := 0; v < g.n; v++ {
		for i, e := range g.adj[v] {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%d %g", e.To+1, e.W); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func TestMETISRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := RandomGNP(40, 0.1, RandomWeights(rng, 1, 9), rng)
	var buf bytes.Buffer
	if err := g.WriteMETIS(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round-trip n=%d m=%d, want n=%d m=%d", back.N(), back.M(), g.N(), g.M())
	}
	for _, e := range g.Edges() {
		if w, ok := back.HasEdge(e.U, e.V); !ok || w != e.W {
			t.Errorf("edge {%d,%d}: w=%v ok=%v, want %v", e.U, e.V, w, ok, e.W)
		}
	}
}

func TestMETISUnweighted(t *testing.T) {
	in := "% a comment\n4 3\n2 3\n1\n1 4\n3\n"
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 1 {
		t.Errorf("edge {0,1} w=%v ok=%v", w, ok)
	}
	if _, ok := g.HasEdge(2, 3); !ok {
		t.Error("missing edge {2,3}")
	}
}

func TestMETISWeighted(t *testing.T) {
	in := "3 2 1\n2 5.5\n1 5.5 3 2\n2 2\n"
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.HasEdge(0, 1); w != 5.5 {
		t.Errorf("weight = %v, want 5.5", w)
	}
	if w, _ := g.HasEdge(1, 2); w != 2 {
		t.Errorf("weight = %v, want 2", w)
	}
}

func TestMETISRejectsMalformed(t *testing.T) {
	bad := []string{
		"",                  // no header
		"x 3\n",             // bad n
		"3 x\n",             // bad m
		"2 1 11\n2\n1\n",    // vertex weights unsupported
		"2 1\n5\n1\n",       // neighbour out of range
		"2 1 1\n2\n1 1\n",   // odd token count for weighted
		"2 1 1\n2 w\n1 w\n", // bad weight
		"3 1\n2\n1\n",       // missing vertex line
		"2 5\n2\n1\n",       // edge count mismatch
		"2 1 1\n2 1\n1 x\n", // bad weight second line
	}
	for _, s := range bad {
		if _, err := ReadMETIS(strings.NewReader(s)); err == nil {
			t.Errorf("ReadMETIS(%q) succeeded, want error", s)
		}
	}
}

func TestMETISEmptyGraph(t *testing.T) {
	g, err := ReadMETIS(strings.NewReader("0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 {
		t.Errorf("n = %d", g.N())
	}
}

// TestMETISIsolatedVertices: WriteMETIS emits a blank line for a vertex
// with no neighbours, and ReadMETIS must consume it as that vertex's
// (empty) adjacency list — not skip it and misalign the whole section.
func TestMETISIsolatedVertices(t *testing.T) {
	g := New(5)
	g.AddEdge(1, 3, 2.5)
	g.AddEdge(3, 4, 1) // vertices 0 and 2 stay isolated
	var buf bytes.Buffer
	if err := g.WriteMETIS(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMETIS(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-reading %q: %v", buf.String(), err)
	}
	if back.N() != 5 || back.M() != 2 {
		t.Fatalf("round-trip n=%d m=%d, want 5/2", back.N(), back.M())
	}
	if w, ok := back.HasEdge(1, 3); !ok || w != 2.5 {
		t.Errorf("edge {1,3} w=%v ok=%v, want 2.5 — vertex section misaligned", w, ok)
	}
	if back.Degree(0) != 0 || back.Degree(2) != 0 {
		t.Error("isolated vertices grew edges")
	}

	// Hand-written file: blank line = isolated vertex, comments still
	// skipped anywhere, blank lines before the header ignored.
	in := "\n% leading comment\n3 1 1\n\n% interleaved comment\n3 7\n2 7\n"
	h, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.Degree(0) != 0 {
		t.Error("blank vertex line not treated as isolated vertex")
	}
	if w, ok := h.HasEdge(1, 2); !ok || w != 7 {
		t.Errorf("edge {1,2} w=%v ok=%v, want 7", w, ok)
	}
}

// TestMETISRejectsSelfLoopsAndNonFiniteWeights: both used to slip
// through — self-loops were dropped silently (surfacing later as a
// baffling edge-count mismatch) and NaN/Inf weights parsed fine only to
// poison every distance they touched.
func TestMETISRejectsSelfLoopsAndNonFiniteWeights(t *testing.T) {
	bad := []string{
		"2 2\n1 2\n1\n",           // self-loop on vertex 1
		"1 1\n1\n",                // pure self-loop
		"2 1 1\n2 NaN\n1 NaN\n",   // NaN weight
		"2 1 1\n2 Inf\n1 Inf\n",   // +Inf weight
		"2 1 1\n2 -Inf\n1 -Inf\n", // -Inf weight
	}
	for _, s := range bad {
		if _, err := ReadMETIS(strings.NewReader(s)); err == nil {
			t.Errorf("ReadMETIS(%q) succeeded, want error", s)
		}
	}
	// Negative finite weights stay legal (the graph type permits them
	// as long as no negative cycle exists).
	g, err := ReadMETIS(strings.NewReader("2 1 1\n2 -3\n1 -3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.HasEdge(0, 1); w != -3 {
		t.Errorf("negative weight = %v, want -3", w)
	}
}

// TestMETISLongVertexLine: a vertex line past 1 MiB — a hub of 9,000
// leaves with weights written to 120 decimals — reads, since the reader
// grows its line buffer up to 16 MiB.
func TestMETISLongVertexLine(t *testing.T) {
	const leaves = 9000
	var hub, rest strings.Builder
	weight := func(v int) string { return strconv.FormatFloat(float64(v%9+1)/4, 'f', 120, 64) }
	for v := 2; v <= leaves+1; v++ {
		fmt.Fprintf(&hub, " %d %s", v, weight(v))
		fmt.Fprintf(&rest, "1 %s\n", weight(v))
	}
	if hub.Len() <= 1<<20 {
		t.Fatalf("hub line is %d bytes, want more than 1 MiB", hub.Len())
	}
	in := fmt.Sprintf("%d %d 1\n%s\n%s", leaves+1, leaves, hub.String()[1:], rest.String())
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != leaves {
		t.Fatalf("hub degree %d, want %d", g.Degree(0), leaves)
	}
	if w, ok := g.HasEdge(0, leaves); !ok || w != float64((leaves+1)%9+1)/4 {
		t.Errorf("edge {0,%d}: w=%v ok=%v", leaves, w, ok)
	}
}
