package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Text edge-list format:
//
//	# comment
//	n <vertices>
//	<u> <v> <weight>
//	...
//
// Vertices are 0-based. The weight field is optional and defaults to 1.

// Write serializes the graph in edge-list format.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.n); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a graph in edge-list format.
func Read(r io.Reader) (*Graph, error) {
	return ReadChecked(r, func(int) error { return nil })
}

// ReadChecked is Read with check called on the vertex count of the n
// header before anything that many vertices long is allocated; an error
// from check is returned as is.
func ReadChecked(r io.Reader, check func(n int) error) (*Graph, error) {
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
