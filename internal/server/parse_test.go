package server

import (
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"sparseapsp/internal/graph"
)

// ingestBodies renders the three ingest shapes of the benchmark — a 32²
// grid, G(768, 4/n) (with graph.RandomGNP's spanning path) and an
// 800-cycle — as edge-list bodies with integer weights 1..9, one
// "u v w" line per edge.
func ingestBodies() []struct {
	name string
	body []byte
} {
	rng := rand.New(rand.NewSource(1))
	body := func(g *graph.Graph) []byte {
		b := append([]byte("n "), strconv.Itoa(g.N())...)
		b = append(b, '\n')
		for _, e := range g.Edges() {
			b = strconv.AppendInt(b, int64(e.U), 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(e.V), 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(1+rng.Intn(9)), 10)
			b = append(b, '\n')
		}
		return b
	}
	return []struct {
		name string
		body []byte
	}{
		{"grid", body(graph.Grid2D(32, 32, graph.UnitWeights))},
		{"gnp", body(graph.RandomGNP(768, 4.0/768, graph.UnitWeights, rand.New(rand.NewSource(20210809))))},
		{"cycle", body(graph.Cycle(800, graph.UnitWeights))},
	}
}

// TestParseGraphBodyBytes: parsing a 32² grid body allocates less than
// 128 KiB in at most 8 allocations: the graph's own storage, with no
// line buffer, string or field slice per line.
func TestParseGraphBodyBytes(t *testing.T) {
	body := ingestBodies()[0].body
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := ParseGraphBody(body)
	runtime.ReadMemStats(&after)
	if err != nil || g.N() != 1024 || g.M() != 1984 {
		t.Fatalf("grid body: %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 128<<10 {
		t.Errorf("parsing a %d-byte grid body allocated %d bytes, want less than 128 KiB", len(body), alloc)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > 8 {
		t.Errorf("parsing a %d-byte grid body made %d allocations, want at most 8", len(body), allocs)
	}
}

// parsed keeps BenchmarkParseGraphBody's result live.
var parsed *graph.Graph

// BenchmarkParseGraphBody times the /load parser on each ingest shape.
func BenchmarkParseGraphBody(b *testing.B) {
	for _, c := range ingestBodies() {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := ParseGraphBody(c.body)
				if err != nil {
					b.Fatal(err)
				}
				parsed = g
			}
		})
	}
}

// TestServerLoadRefusesLongLine: the body cap is 64 MiB, so a line of
// 1 MiB or more reaches the edge-list parser, which refuses it as the
// bufio.Scanner it was first read with did.
func TestServerLoadRefusesLongLine(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	body := "n 2 " + strings.Repeat("7", 2<<20)
	resp, err := http.Post(ts.URL+"/load", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	const want = `{"error":"bad edge list: bufio.Scanner: token too long"}` + "\n"
	if resp.StatusCode != http.StatusBadRequest || string(msg) != want {
		t.Errorf("/load of a 2 MiB line: status %d %q, want 400 %q", resp.StatusCode, msg, want)
	}
}
