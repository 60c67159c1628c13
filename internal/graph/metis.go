package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// METIS graph-file format support, so real-world inputs prepared for
// the partitioner ecosystem the paper cites (Metis [17]) can be fed
// straight into the solvers. The format:
//
//	% comment
//	<n> <m> [fmt]      header; fmt 1 = edge weights present
//	<v> [w] <v> [w]... one line per vertex, 1-based neighbour ids
//
// Only the 0 (unweighted) and 1 (edge-weighted) fmt codes are
// supported; vertex weights (fmt 10/11) are rejected explicitly.

// ReadMETIS parses a METIS graph file. Asymmetric weight declarations
// are collapsed to the minimum, matching AddEdge semantics.
//
// Comment lines (leading '%') may appear anywhere. Blank lines before
// the header are skipped, but within the vertex section a blank line IS
// a vertex line — the empty adjacency list of an isolated vertex — so
// a written graph with isolated vertices reads back unchanged.
// Self-loops and non-finite weights are rejected explicitly (the solvers
// define neither).
func ReadMETIS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16<<20) // grown as lines need, up to 16 MiB
	line := 0
	// scanLine returns the next non-comment line, blank lines included.
	scanLine := func() (string, bool) {
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if strings.HasPrefix(text, "%") {
				continue
			}
			return text, true
		}
		return "", false
	}
	header, ok := scanLine()
	for ok && header == "" {
		header, ok = scanLine()
	}
	if !ok {
		return nil, fmt.Errorf("graph: metis: missing header")
	}
	fields := strings.Fields(header)
	if len(fields) < 2 {
		return nil, fmt.Errorf("graph: metis line %d: header needs n and m", line)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("graph: metis line %d: bad vertex count %q", line, fields[0])
	}
	m, err := strconv.Atoi(fields[1])
	if err != nil || m < 0 {
		return nil, fmt.Errorf("graph: metis line %d: bad edge count %q", line, fields[1])
	}
	weighted := false
	if len(fields) >= 3 {
		switch fields[2] {
		case "0", "00", "000":
			// unweighted
		case "1", "01", "001":
			weighted = true
		default:
			return nil, fmt.Errorf("graph: metis line %d: unsupported fmt %q (vertex weights not supported)", line, fields[2])
		}
	}
	g := New(n)
	for v := 0; v < n; v++ {
		text, ok := scanLine()
		if !ok {
			return nil, fmt.Errorf("graph: metis: expected %d vertex lines, got %d", n, v)
		}
		parts := strings.Fields(text) // empty for an isolated vertex
		step := 1
		if weighted {
			step = 2
		}
		if len(parts)%step != 0 {
			return nil, fmt.Errorf("graph: metis line %d: odd token count for weighted vertex", line)
		}
		for i := 0; i < len(parts); i += step {
			u, err := strconv.Atoi(parts[i])
			if err != nil || u < 1 || u > n {
				return nil, fmt.Errorf("graph: metis line %d: bad neighbour %q", line, parts[i])
			}
			if u-1 == v {
				// AddEdge would drop it silently and the edge-count
				// check below would then fail with a misleading message.
				return nil, fmt.Errorf("graph: metis line %d: self-loop on vertex %d not supported", line, u)
			}
			w := 1.0
			if weighted {
				w, err = strconv.ParseFloat(parts[i+1], 64)
				if err != nil || math.IsNaN(w) || math.IsInf(w, 0) {
					return nil, fmt.Errorf("graph: metis line %d: bad weight %q (must be finite)", line, parts[i+1])
				}
			}
			g.AddEdge(v, u-1, w)
		}
	}
	if g.m != m {
		return nil, fmt.Errorf("graph: metis: header declares %d edges, file has %d", m, g.m)
	}
	return g, sc.Err()
}
