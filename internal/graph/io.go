package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
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

// Read parses a graph in edge-list format: it reads r whole and calls
// Parse.
func Read(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Parse(data, nil)
}

// maxLine is the longest line Parse reads, in bytes before its '\n'. A
// longer line is refused with bufio.ErrTooLong, as a bufio.Scanner with
// a 1 MiB buffer refuses it; /load answers carry that text.
const maxLine = 1<<20 - 1

// Parse parses a graph in edge-list format from data, which it does not
// keep. A non-nil check is called on the vertex count of the n header
// before anything that many vertices long is allocated; an error from
// check is returned as is.
//
// Lines are split in place. Fields are the runs of bytes between ASCII
// spaces, or between Unicode spaces on a line with any byte at or above
// 0x80, and an ASCII line of integers is parsed without allocating. The
// graph is built through a Builder, so the memory held grows with n and
// the distinct edges, never with blank lines, comments or repeated edge
// lines.
func Parse(data []byte, check func(n int) error) (*Graph, error) {
	var b *Builder
	for line := 1; len(data) > 0; line++ {
		text := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			text, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(text) > maxLine {
			return nil, bufio.ErrTooLong
		}
		f, nf := fields(text)
		if nf == 0 || f[0][0] == '#' {
			continue
		}
		if string(f[0]) == "n" {
			if b != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate n header", line)
			}
			if nf < 2 {
				return nil, fmt.Errorf("graph: line %d: n header missing vertex count", line)
			}
			n, ok := atoi(f[1])
			if !ok || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad vertex count %q", line, f[1])
			}
			if check != nil {
				if err := check(n); err != nil {
					return nil, err
				}
			}
			// An edge line is at least "u v\n", 4 bytes.
			b = NewBuilder(n, (len(data)+1)/4)
			continue
		}
		if b == nil {
			return nil, fmt.Errorf("graph: line %d: edge before n header", line)
		}
		if nf < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'u v [w]', got %q", line, f[0])
		}
		u, ok := atoi(f[0])
		if !ok {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q", line, f[0])
		}
		v, ok := atoi(f[1])
		if !ok {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q", line, f[1])
		}
		w := 1.0
		if nf >= 3 {
			if w, ok = weight(f[2]); !ok {
				return nil, fmt.Errorf("graph: line %d: bad weight %q (must be finite)", line, f[2])
			}
		}
		if n := b.g.n; u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: line %d: edge {%d,%d} outside [0,%d)", line, u, v, n)
		}
		b.Add(u, v, w)
	}
	if b == nil {
		return nil, fmt.Errorf("graph: missing n header")
	}
	return b.Graph(), nil
}

// asciiSpace marks the bytes strings.Fields and strings.TrimSpace take
// for space in ASCII text.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fields returns the first three fields of line and how many it has, as
// strings.Fields counts them. An ASCII line is split in place; a line
// with a byte at or above utf8.RuneSelf goes through bytes.Fields, which
// splits on Unicode spaces.
func fields(line []byte) (f [3][]byte, nf int) {
	start := -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			all := bytes.Fields(line)
			copy(f[:], all)
			return f, len(all)
		case !asciiSpace[c]:
			if start < 0 {
				start = i
			}
		case start >= 0:
			if nf < len(f) {
				f[nf] = line[start:i]
			}
			nf, start = nf+1, -1
		}
	}
	if start >= 0 {
		if nf < len(f) {
			f[nf] = line[start:]
		}
		nf++
	}
	return f, nf
}

// digits parses an optional sign and at most 18 decimal digits, a form
// strconv.Atoi and strconv.ParseFloat read to the same value; ok is
// false for anything else.
func digits(s []byte) (mag uint64, neg, ok bool) {
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg, s = s[0] == '-', s[1:]
	}
	if len(s) == 0 || len(s) > 18 {
		return 0, false, false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false, false
		}
		mag = mag*10 + uint64(c-'0')
	}
	return mag, neg, true
}

// atoi is strconv.Atoi on s, without a string copy when s is digits.
func atoi(s []byte) (int, bool) {
	if mag, neg, ok := digits(s); ok && mag <= math.MaxInt {
		if neg {
			return -int(mag), true
		}
		return int(mag), true
	}
	n, err := strconv.Atoi(string(s))
	return n, err == nil
}

// weight is strconv.ParseFloat on s, refusing NaN and ±Inf, without a
// string copy when s is an integer. Both round the integer to the
// nearest float64, and "-0" is -0 in both.
func weight(s []byte) (float64, bool) {
	if mag, neg, ok := digits(s); ok {
		w := float64(mag)
		if neg {
			w = -w
		}
		return w, true
	}
	w, err := strconv.ParseFloat(string(s), 64)
	return w, err == nil && !math.IsNaN(w) && !math.IsInf(w, 0)
}
