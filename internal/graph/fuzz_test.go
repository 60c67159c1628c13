package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// Fuzz targets for the two parsers: they must never panic and, when
// they accept an input, the resulting graph must satisfy basic
// invariants and round-trip through the writer.

// readSeeds are FuzzRead's seeds, which FuzzParseMatchesScanner also
// starts from.
var readSeeds = []string{
	"n 3\n0 1 2.5\n1 2 1\n",
	"# comment\nn 1\n",
	"n 0\n",
	"n 5\n0 4\n",
	"n", // regression: bare header once indexed out of range
	// Regressions: ParseFloat takes all three, and a non-finite weight
	// was served as a graph (METIS input already refused them).
	"n 2\n0 1 NaN\n",
	"n 2\n0 1 Inf\n",
	"n 2\n0 1 -Inf\n",
}

func FuzzRead(f *testing.F) {
	for _, seed := range readSeeds {
		f.Add(seed)
	}
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

// scanRef is the edge-list reader Parse replaced: a bufio.Scanner loop
// over strings.TrimSpace / strings.Fields and strconv, adding edges
// through AddEdge. It is kept as the reference Parse must match.
func scanRef(r io.Reader, check func(n int) error) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grown as lines need, up to 1 MiB
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "n" {
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate n header", line)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("graph: line %d: n header missing vertex count", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad vertex count %q", line, fields[1])
			}
			if err := check(n); err != nil {
				return nil, err
			}
			g = New(n)
			continue
		}
		if g == nil {
			return nil, fmt.Errorf("graph: line %d: edge before n header", line)
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'u v [w]', got %q", line, text)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q", line, fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q", line, fields[1])
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: line %d: bad weight %q (must be finite)", line, fields[2])
			}
		}
		if u < 0 || u >= g.n || v < 0 || v >= g.n {
			return nil, fmt.Errorf("graph: line %d: edge {%d,%d} outside [0,%d)", line, u, v, g.n)
		}
		g.AddEdge(u, v, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing n header")
	}
	return g, nil
}

// matchesScanner fails t unless Parse and scanRef both build the same
// graph (reflect.DeepEqual, so the same adjacency order and the same
// weight bits up to ±0) or both refuse data with the same text.
func matchesScanner(t *testing.T, data []byte) {
	t.Helper()
	// The check refuses big vertex counts the same way for both, so a
	// fuzzed header cannot ask either for gigabytes.
	errBig := errors.New("n over 4096")
	check := func(n int) error {
		if n > 4096 {
			return errBig
		}
		return nil
	}
	got, gotErr := Parse(data, check)
	want, wantErr := scanRef(bytes.NewReader(data), check)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%.200q: Parse error %v, the Scanner loop's %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%.200q: Parse built %+v, the Scanner loop %+v", data, got, want)
	}
	if got != nil {
		for v := range got.adj {
			for i, e := range got.adj[v] {
				if math.Signbit(e.W) != math.Signbit(want.adj[v][i].W) {
					t.Fatalf("%.200q: edge %d→%d weighs %v, the Scanner loop's %v", data, v, e.To, e.W, want.adj[v][i].W)
				}
			}
		}
	}
}

// FuzzParseMatchesScanner: Parse builds what the Scanner loop it
// replaced built, or refuses with the same text.
func FuzzParseMatchesScanner(f *testing.F) {
	for _, seed := range readSeeds {
		f.Add([]byte(seed))
	}
	for _, seed := range []string{
		"n 3\r\n0 1 2\r\n1 2\r\n",
		"n\t3\n0\t1\t2\n\v1 2 3\f\n",
		"n 3\n0\u00851\u00852\n1\u00a02\u00a03\n",
		"n 3\n\u00a00 1 2\u0085\n",
		"n 3\n0 1 \xff\n",
		"n 3\n\xc20 1\n",
		"n 3\n+2 -0 4\n",
		"n 3\n0 1 1e3\n0 2 0x1p3\n1 2 1_0\n",
		"n 3\n0 1 -0\n1 2 +5\n0 2 007\n",
		"n 3\n0 1 9999999999999999999\n1 2 123456789012345678\n",
		"n 3\n0 99999999999999999999 1\n",
		"# head\n\n   \n n 3 \n# mid\n0 1 5 extra fields\n\n1 2",
		"n 2\n0 1 5\n0 1 3\n1 0 4\n0 0 1\n",
		"n 3\n0 1\n2\n",
		"n 3\n0 1 NaN\n",
		"n 5000\n",
	} {
		f.Add([]byte(seed))
	}
	// A hub past hubDegree, whose duplicates the Builder looks up in its
	// index: one lowers a weight, one does not, one names the hub last.
	var hub strings.Builder
	hub.WriteString("n 24\n")
	for v := 1; v < 24; v++ {
		fmt.Fprintf(&hub, "0 %d %d\n", v, v)
	}
	hub.WriteString("5 0 0.5\n0 5 9\n23 0 -1\n")
	f.Add([]byte(hub.String()))
	f.Fuzz(matchesScanner)
}
