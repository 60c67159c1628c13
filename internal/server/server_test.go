package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sparseapsp"
	"sparseapsp/internal/apsp"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/oracle"
)

func newTestServer(t *testing.T, budget int64) (*httptest.Server, *Server) {
	t.Helper()
	reg := sparseapsp.NewOracleRegistry(sparseapsp.Options{Algorithm: sparseapsp.SeqFW}, budget)
	s := New(reg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s
}

func postJSON(t *testing.T, url string, body interface{}, out interface{}) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp
}

func getStats(t *testing.T, base string) StatszResponse {
	t.Helper()
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServerEndToEnd: generate a grid, query distances and paths, and
// check every answer against the classical loop's distances.
func TestServerEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, 0)

	var info GraphInfo
	resp := postJSON(t, ts.URL+"/generate", GenerateRequest{Kind: "grid", N: 49, Seed: 7}, &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/generate status %d", resp.StatusCode)
	}
	if info.N != 49 {
		t.Fatalf("generated n = %d, want 49", info.N)
	}

	// Ground truth from the same deterministic generator.
	g, err := graph.NamedGenerator("grid", 49, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := oracle.FingerprintOf(g).String(); got != info.Graph {
		t.Fatalf("server fingerprint %s, local %s", info.Graph, got)
	}
	want, _ := apsp.FloydWarshall(g)

	pairs := [][2]int{{0, 48}, {6, 42}, {0, 0}, {13, 27}}
	var qr QueryResponse
	resp = postJSON(t, ts.URL+"/query", QueryRequest{Graph: info.Graph, Pairs: pairs, Paths: true}, &qr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query status %d", resp.StatusCode)
	}
	for i, p := range pairs {
		ref := want.At(p[0], p[1])
		if math.Abs(qr.Dists[i]-ref) > 1e-9 {
			t.Errorf("dist %v = %g, want %g", p, qr.Dists[i], ref)
		}
		path := qr.Paths[i]
		if len(path) == 0 || path[0] != p[0] || path[len(path)-1] != p[1] {
			t.Errorf("path %v = %v: bad endpoints", p, path)
		}
		if w := apsp.PathWeight(g, path); math.Abs(w-ref) > 1e-9 {
			t.Errorf("path %v weight %g, want %g", p, w, ref)
		}
	}

	st := getStats(t, ts.URL)
	if st.Registry.Solves != 1 {
		t.Errorf("solves = %d, want 1", st.Registry.Solves)
	}
	if st.Registry.QueriesServed != int64(len(pairs))*2 { // BatchDist + BatchPath
		t.Errorf("queries served = %d, want %d", st.Registry.QueriesServed, len(pairs)*2)
	}
	if st.Endpoints["query"].Requests != 1 || st.Endpoints["generate"].Requests != 1 {
		t.Errorf("endpoint counters = %+v", st.Endpoints)
	}
}

// TestServerCoalescesConcurrentLoads: N concurrent loads of the same
// unsolved graph must trigger exactly one solve.
func TestServerCoalescesConcurrentLoads(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	g := graph.Grid2D(6, 6, graph.UnitWeights)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()

	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/load", "text/plain", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				data, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("/load status %d: %s", resp.StatusCode, data)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := getStats(t, ts.URL)
	if st.Registry.Solves != 1 {
		t.Errorf("solves = %d after %d concurrent loads of one graph, want 1", st.Registry.Solves, n)
	}
	if st.Endpoints["load"].Requests != n {
		t.Errorf("load requests = %d, want %d", st.Endpoints["load"].Requests, n)
	}
}

func TestServerLoadJSONAndUnreachable(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	var info GraphInfo
	resp := postJSON(t, ts.URL+"/load",
		LoadRequest{N: 4, Edges: [][3]float64{{0, 1, 2.5}, {1, 2, 1}}}, &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/load status %d", resp.StatusCode)
	}
	if info.N != 4 || info.M != 2 {
		t.Fatalf("info = %+v", info)
	}
	var qr QueryResponse
	postJSON(t, ts.URL+"/query",
		QueryRequest{Graph: info.Graph, Pairs: [][2]int{{0, 2}, {0, 3}}, Paths: true}, &qr)
	if qr.Dists[0] != 3.5 {
		t.Errorf("dist(0,2) = %g, want 3.5", qr.Dists[0])
	}
	if qr.Dists[1] != -1 {
		t.Errorf("unreachable dist = %g, want -1", qr.Dists[1])
	}
	if qr.Paths[1] != nil {
		t.Errorf("unreachable path = %v, want null", qr.Paths[1])
	}
	// 2.5 and 3.5 are no integer multiple of anything the quantizer
	// tries, but every distance is float32-exact.
	if kinds := getStats(t, ts.URL).Registry.StoreKinds; !reflect.DeepEqual(kinds, map[string]int{"f32": 1}) {
		t.Errorf("store_kinds = %v, want one f32 entry", kinds)
	}
}

func TestServerErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	cases := []struct {
		name   string
		status int
		do     func() *http.Response
	}{
		{"query unknown graph", http.StatusNotFound, func() *http.Response {
			return postJSON(t, ts.URL+"/query",
				QueryRequest{Graph: strings.Repeat("ab", 32), Pairs: [][2]int{{0, 1}}}, nil)
		}},
		{"query bad fingerprint", http.StatusBadRequest, func() *http.Response {
			return postJSON(t, ts.URL+"/query", QueryRequest{Graph: "zz", Pairs: [][2]int{{0, 1}}}, nil)
		}},
		{"query no pairs", http.StatusBadRequest, func() *http.Response {
			return postJSON(t, ts.URL+"/query", QueryRequest{Graph: strings.Repeat("ab", 32)}, nil)
		}},
		{"generate bad kind", http.StatusBadRequest, func() *http.Response {
			return postJSON(t, ts.URL+"/generate", GenerateRequest{Kind: "nope", N: 9}, nil)
		}},
		{"generate zero n", http.StatusBadRequest, func() *http.Response {
			return postJSON(t, ts.URL+"/generate", GenerateRequest{Kind: "grid"}, nil)
		}},
		{"load garbage", http.StatusBadRequest, func() *http.Response {
			resp, err := http.Post(ts.URL+"/load", "text/plain", strings.NewReader("what is this"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp
		}},
		{"load bad edge", http.StatusBadRequest, func() *http.Response {
			return postJSON(t, ts.URL+"/load", LoadRequest{N: 2, Edges: [][3]float64{{0, 5, 1}}}, nil)
		}},
	}
	for _, c := range cases {
		if resp := c.do(); resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
	st := getStats(t, ts.URL)
	if st.Endpoints["query"].Errors != 3 {
		t.Errorf("query errors = %d, want 3", st.Endpoints["query"].Errors)
	}
}

// TestServerQueryOutOfRangePair exercises the batch validator through
// the HTTP layer.
func TestServerQueryOutOfRangePair(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	var info GraphInfo
	postJSON(t, ts.URL+"/generate", GenerateRequest{Kind: "grid", N: 16, Seed: 1}, &info)
	resp := postJSON(t, ts.URL+"/query",
		QueryRequest{Graph: info.Graph, Pairs: [][2]int{{0, 999}}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range pair: status %d, want 400", resp.StatusCode)
	}
}

// TestServerEviction: a tiny budget forces the registry to drop the
// least recently used graph, visible through /statsz.
func TestServerEviction(t *testing.T) {
	// /generate draws real-valued weights, so each 16-vertex grid oracle
	// holds float64 distances — the lower triangle only, 16·17/2 of them,
	// the solver's matrix being bit-symmetric — 16 one-word rows of
	// successor slots (28 bits: the corners' columns take one, the rest
	// two) and the int32 arrays that decode them over 17 neighbour and 17
	// bit offsets, 2·24 half-edges twice and 16 component labels:
	// 1088 + 128 + 584 = 1800 bytes; fit two.
	const oracleBytes = 16*17/2*8 + 16*8 + (2*17+4*24+16)*4
	ts, _ := newTestServer(t, 2*oracleBytes)
	var a, b, c GraphInfo
	postJSON(t, ts.URL+"/generate", GenerateRequest{Kind: "grid", N: 16, Seed: 1}, &a)
	postJSON(t, ts.URL+"/generate", GenerateRequest{Kind: "grid", N: 16, Seed: 2}, &b)
	postJSON(t, ts.URL+"/generate", GenerateRequest{Kind: "grid", N: 16, Seed: 3}, &c)
	st := getStats(t, ts.URL)
	if st.Registry.Evictions != 1 || st.Registry.Entries != 2 {
		t.Errorf("evictions=%d entries=%d, want 1 and 2", st.Registry.Evictions, st.Registry.Entries)
	}
	if st.Registry.Bytes != 2*oracleBytes {
		t.Errorf("retained %d bytes, want two oracles of %d", st.Registry.Bytes, oracleBytes)
	}
	if !reflect.DeepEqual(st.Registry.StoreKinds, map[string]int{"f64": 2}) {
		t.Errorf("store_kinds = %v, want the two resident entries under f64", st.Registry.StoreKinds)
	}
	if !reflect.DeepEqual(st.Registry.StoreLayouts, map[string]int{"tri": 2}) {
		t.Errorf("store_layouts = %v, want the two resident entries under tri", st.Registry.StoreLayouts)
	}
	if !reflect.DeepEqual(st.Registry.SuccBits, map[int]int{2: 2}) {
		t.Errorf("succ_bits = %v, want the two resident entries under 2, a grid's widest column", st.Registry.SuccBits)
	}
	// The oldest graph must 404 now; the newer ones still answer.
	if resp := postJSON(t, ts.URL+"/query", QueryRequest{Graph: a.Graph, Pairs: [][2]int{{0, 1}}}, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted graph: status %d, want 404", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/query", QueryRequest{Graph: c.Graph, Pairs: [][2]int{{0, 1}}}, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("fresh graph: status %d, want 200", resp.StatusCode)
	}
}

// TestServerLoadRefusedBeforeSolve: a graph whose smallest possible
// oracle — the one-bit triangle, n(n+1)/2 bits — is over the whole
// budget is answered 413 naming the distances and both sizes without
// the solver ever running (it used to allocate n² float64s first). A
// graph exactly at the floor is solved, and is then refused by the
// check after the solve because its real oracle is wider.
func TestServerLoadRefusedBeforeSolve(t *testing.T) {
	const n, budget = 200_000, 64 << 20
	var solves atomic.Int32
	solve := func(g *graph.Graph) (*apsp.PathResult, error) {
		solves.Add(1)
		if g.N() > 1000 { // a regression must fail the test, not allocate n² float64s
			return nil, fmt.Errorf("the solver was reached with n=%d", g.N())
		}
		d, _ := apsp.FloydWarshall(g)
		return apsp.SuccessorsFromDist(g, d)
	}
	reg := oracle.NewRegistry(oracle.Config{MemoryBudget: budget, Solve: solve})
	ts := httptest.NewServer(New(reg))
	defer ts.Close()
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	for path, body := range map[string]string{
		"/load":     fmt.Sprintf(`{"n": %d, "edges": []}`, n),
		"/generate": fmt.Sprintf(`{"kind": "cycle", "n": %d, "seed": 1}`, n),
	} {
		status, msg := post(path, body)
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s n=%d under a %d-byte budget: status %d (%s), want 413", path, n, budget, status, msg)
		}
		for _, want := range []string{fmt.Sprint(int64(n) * (n + 1) / 2), fmt.Sprint(int64(n) * (n + 1) / 16), fmt.Sprint(budget), "-budget-mb"} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: 413 body %q does not name %s", path, msg, want)
			}
		}
	}
	if got := solves.Load(); got != 0 {
		t.Fatalf("the solver ran %d times for graphs refused up front", got)
	}
	if st := reg.Stats(); st.Entries != 0 || st.Solves != 0 {
		t.Errorf("refused graphs left registry state behind: %+v", st)
	}

	// The floor admits what might fit: 20 vertices under ⌈210 bits / 8⌉
	// = 27 bytes pass it exactly, are solved once, and the solved oracle
	// (distances plus successor table) is what the post-solve check
	// refuses; 21 vertices, 231 bits, do not pass it.
	tight := oracle.NewRegistry(oracle.Config{MemoryBudget: (20*21/2 + 7) / 8, Solve: solve})
	ts2 := httptest.NewServer(New(tight))
	defer ts2.Close()
	for _, tc := range []struct {
		n, solves int32
		msg       string
	}{{20, 1, "solved oracle"}, {21, 1, "231 one-bit distances, 29 bytes"}} {
		resp, err := http.Post(ts2.URL+"/generate", "application/json", strings.NewReader(fmt.Sprintf(`{"kind": "cycle", "n": %d, "seed": 1}`, tc.n)))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), tc.msg) {
			t.Errorf("n=%d against a 27-byte budget: status %d (%s), want a 413 saying %q", tc.n, resp.StatusCode, msg, tc.msg)
		}
		if got := solves.Load(); got != tc.solves {
			t.Errorf("n=%d against a 27-byte budget: %d solves in all, want %d", tc.n, got, tc.solves)
		}
	}
}

// TestServerAdmitsBetweenFloors: a unit-weight star of 200 vertices has
// distances of at most 2 — two bits each, 20,100 of them, 5,032 bytes —
// and one 64-bit word of successor slots a row (the hub's column is 8
// bits, the leaves' none), plus the arrays that decode them: an oracle
// under n(n+1)/2 = 20,100 bytes, the floor that refused it before the
// store came in bits. It is served under a budget one byte below that.
func TestServerAdmitsBetweenFloors(t *testing.T) {
	const n = 200
	ts, _ := newTestServer(t, n*(n+1)/2-1)
	g := graph.Star(n, graph.UnitWeights)
	req := LoadRequest{N: n}
	for _, e := range g.Edges() {
		req.Edges = append(req.Edges, [3]float64{float64(e.U), float64(e.V), e.W})
	}
	var info GraphInfo
	if resp := postJSON(t, ts.URL+"/load", req, &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("/load of a unit-weight %d-star under a %d-byte budget: status %d, want 200", n, n*(n+1)/2-1, resp.StatusCode)
	}
	const want = (n*(n+1)/2*2+63)/64*8 + n*8 + (2*(n+1)+4*(n-1)+n)*4
	if st := getStats(t, ts.URL).Registry; st.Bytes != want || st.Entries != 1 || !reflect.DeepEqual(st.StoreKinds, map[string]int{"u2": 1}) {
		t.Errorf("registry = %+v, want one u2 entry of %d bytes", st, want)
	}
	var qr QueryResponse
	if resp := postJSON(t, ts.URL+"/query", QueryRequest{Graph: info.Graph, Pairs: [][2]int{{1, 2}, {0, 7}}, Paths: true}, &qr); resp.StatusCode != http.StatusOK ||
		!reflect.DeepEqual(qr, QueryResponse{Dists: []float64{2, 1}, Paths: [][]int{{1, 0, 2}, {0, 7}}}) {
		t.Errorf("/query: status %d, %+v", resp.StatusCode, qr)
	}
}

// TestServerGenerateAdmitsBeforeBuilding: /generate checks n against
// the budget before the generator runs, so a cycle of 10⁶ vertices —
// ≈ 60 MB of adjacency lists were it built — under a 1 MB budget is a
// 413 that allocates next to nothing.
func TestServerGenerateAdmitsBeforeBuilding(t *testing.T) {
	ts, _ := newTestServer(t, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp := postJSON(t, ts.URL+"/generate", GenerateRequest{Kind: "cycle", N: 1_000_000, Seed: 1}, nil)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("/generate n=10⁶ under a 1 MB budget: status %d, want 413", resp.StatusCode)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("refusing /generate n=10⁶ allocated %d bytes: the graph was built first", grew)
	}
	if st := getStats(t, ts.URL).Registry; st.Solves != 0 || st.Entries != 0 {
		t.Errorf("registry = %+v, want nothing solved", st)
	}
}

// TestServerLoadAdmitsBeforeBuilding: /load checks the vertex count a
// body declares — JSON's n or the edge list's n header — against the
// budget before graph.New allocates n adjacency lists (24 MB for 10⁶
// vertices), so a body of a few bytes under a 1 MB budget is a 413 that
// allocates next to nothing.
func TestServerLoadAdmitsBeforeBuilding(t *testing.T) {
	ts, _ := newTestServer(t, 1<<20)
	for _, body := range []string{`{"n":1000000,"edges":[]}`, "# a comment first\n\nn 1000000\n0 1 1\n"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(ts.URL+"/load", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "on 1000000 vertices") {
			t.Errorf("/load %q under a 1 MB budget: status %d (%s), want a 413 naming the vertex count", body, resp.StatusCode, msg)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("refusing /load %q allocated %d bytes: the graph was built first", body, grew)
		}
	}
	if st := getStats(t, ts.URL).Registry; st.Solves != 0 || st.Entries != 0 {
		t.Errorf("registry = %+v, want nothing solved", st)
	}
}

// TestServerLoadOverWholeBudget: an oracle larger than the registry's
// whole budget is dropped the moment it is solved, so answering /load
// with its id would hand out a fingerprint that can never be queried.
// It is a 413 that says what to raise.
func TestServerLoadOverWholeBudget(t *testing.T) {
	// A unit-weight 16-vertex grid is TestServerEviction's oracle at three
	// bits a distance (the largest is 6): 56 + 128 + 584 = 768 bytes.
	const oracleBytes, budget = (16*17/2*3+63)/64*8 + 16*8 + (2*17+4*24+16)*4, 300
	ts, _ := newTestServer(t, budget)
	g := graph.Grid2D(4, 4, graph.UnitWeights)
	req := LoadRequest{N: g.N()}
	for _, e := range g.Edges() {
		req.Edges = append(req.Edges, [3]float64{float64(e.U), float64(e.V), e.W})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/load", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("/load of an oracle over the whole budget: status %d (%s), want 413", resp.StatusCode, msg)
	}
	for _, want := range []string{fmt.Sprint(oracleBytes), fmt.Sprint(budget), "-budget-mb"} {
		if !strings.Contains(string(msg), want) {
			t.Errorf("413 body %q does not name %s", msg, want)
		}
	}
	fp := oracle.FingerprintOf(g).String()
	if resp := postJSON(t, ts.URL+"/query", QueryRequest{Graph: fp, Pairs: [][2]int{{0, 1}}}, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/query of the refused graph: status %d, want 404", resp.StatusCode)
	}
	if st := getStats(t, ts.URL); st.Registry.Evictions != 1 || st.Registry.Bytes != 0 || st.Registry.Entries != 0 {
		t.Errorf("registry = %+v, want 1 eviction and nothing resident", st.Registry)
	}
}

func TestServerHealthz(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}
}

// TestServerReadyzDrain pins the liveness/readiness split: /readyz
// mirrors the drain state while /healthz stays 200 throughout, so a
// router health-probing /readyz stops routing to a draining backend
// that is still alive and still finishing in-flight work.
func TestServerReadyzDrain(t *testing.T) {
	ts, s := newTestServer(t, 0)
	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain: status %d, want 200", got)
	}
	s.BeginDrain()
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain: status %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz during drain: status %d, want 200 (liveness is not readiness)", got)
	}
	// A draining server still answers queries: drain refuses new
	// routing, not in-flight or direct traffic.
	var info GraphInfo
	if resp := postJSON(t, ts.URL+"/generate", GenerateRequest{Kind: "grid", N: 9, Seed: 1}, &info); resp.StatusCode != http.StatusOK {
		t.Errorf("/generate during drain: status %d, want 200", resp.StatusCode)
	}
}

// TestServerNotReadyWithoutRegistry: readiness has no registry-install
// step. New takes its registry up front, so /readyz answers exactly
// "not draining": 200 from New on with nothing else to flip, and 503
// from the first BeginDrain on, which a second BeginDrain leaves as is.
func TestServerNotReadyWithoutRegistry(t *testing.T) {
	ts, s := newTestServer(t, 0)
	readyz := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("/readyz straight after New: status %d, want 200", got)
	}
	s.BeginDrain()
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after BeginDrain: status %d, want 503", got)
	}
	s.BeginDrain()
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after a second BeginDrain: status %d, want 503", got)
	}
}

// TestServerReweight is the live-reweighting e2e: load a graph, repair
// it through POST /reweight, and check that the new fingerprint serves
// exact distances for the edited graph while the old fingerprint 404s —
// the atomic-swap contract, observed through the HTTP surface.
func TestServerReweight(t *testing.T) {
	ts, _ := newTestServer(t, 0)

	var info GraphInfo
	if resp := postJSON(t, ts.URL+"/generate", GenerateRequest{Kind: "grid", N: 49, Seed: 7}, &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("/generate status %d", resp.StatusCode)
	}
	g, err := graph.NamedGenerator("grid", 49, 7)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	edits := [][3]float64{
		{float64(edges[0].U), float64(edges[0].V), edges[0].W + 4},
		{float64(edges[1].U), float64(edges[1].V), 0},
	}

	var rw ReweightResponse
	if resp := postJSON(t, ts.URL+"/reweight", ReweightRequest{Graph: info.Graph, Edits: edits}, &rw); resp.StatusCode != http.StatusOK {
		t.Fatalf("/reweight status %d", resp.StatusCode)
	}
	if rw.Graph == info.Graph {
		t.Fatal("reweight returned the old fingerprint")
	}
	if rw.Edits != 2 || rw.Increases != 1 || rw.Decreases != 1 {
		t.Errorf("reweight stats %+v, want 2 edits (1 inc, 1 dec)", rw)
	}

	// Old id is gone; new id serves the edited graph's distances.
	if resp := postJSON(t, ts.URL+"/query", QueryRequest{Graph: info.Graph, Pairs: [][2]int{{0, 1}}}, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("old fingerprint: status %d, want 404", resp.StatusCode)
	}
	ed, err := apsp.ApplyEdits(g, []apsp.EdgeEdit{
		{U: edges[0].U, V: edges[0].V, W: edges[0].W + 4},
		{U: edges[1].U, V: edges[1].V, W: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	g2 := ed.Graph
	if got := oracle.FingerprintOf(g2).String(); got != rw.Graph {
		t.Fatalf("server reweight fingerprint %s, local %s", rw.Graph, got)
	}
	want, _ := apsp.FloydWarshall(g2)
	pairs := [][2]int{{0, 48}, {edges[0].U, edges[0].V}, {6, 42}}
	var qr QueryResponse
	if resp := postJSON(t, ts.URL+"/query", QueryRequest{Graph: rw.Graph, Pairs: pairs, Paths: true}, &qr); resp.StatusCode != http.StatusOK {
		t.Fatalf("/query on new fingerprint: status %d", resp.StatusCode)
	}
	for i, p := range pairs {
		if ref := want.At(p[0], p[1]); math.Abs(qr.Dists[i]-ref) > 1e-9 {
			t.Errorf("dist %v = %g, want %g", p, qr.Dists[i], ref)
		}
		if w := apsp.PathWeight(g2, qr.Paths[i]); math.Abs(w-want.At(p[0], p[1])) > 1e-9 {
			t.Errorf("path %v weight %g, want %g", p, w, want.At(p[0], p[1]))
		}
	}

	// Error paths: unknown graph 404s, structural edits 400.
	if resp := postJSON(t, ts.URL+"/reweight", ReweightRequest{Graph: info.Graph, Edits: edits}, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("reweight of swapped-out fingerprint: status %d, want 404", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/reweight", ReweightRequest{Graph: rw.Graph, Edits: [][3]float64{{0, 48, 1}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reweight adding an edge: status %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/reweight", ReweightRequest{Graph: rw.Graph}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reweight with no edits: status %d, want 400", resp.StatusCode)
	}

	st := getStats(t, ts.URL)
	if st.Registry.Reweights != 1 {
		t.Errorf("registry reweights = %d, want 1", st.Registry.Reweights)
	}
	if st.Registry.Entries != 1 {
		t.Errorf("registry entries = %d after swap, want 1", st.Registry.Entries)
	}
	if st.Endpoints["reweight"].Requests != 4 || st.Endpoints["reweight"].Errors != 3 {
		t.Errorf("reweight endpoint counters %+v, want 4 requests / 3 errors", st.Endpoints["reweight"])
	}
}

// TestServerReweightPathsMatchFreshLoad: after each of a chain of
// /reweight calls on an integer-weight grid, a paths:true /query of every
// pair answers byte for byte what a server that loaded the edited graph
// fresh answers. A graph's paths do not depend on how it was reached.
func TestServerReweightPathsMatchFreshLoad(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	rng := rand.New(rand.NewSource(6))
	g := graph.Grid2D(8, 8, func(u, v int) float64 { return float64(rng.Intn(9) + 1) })
	load := func(url string, g *graph.Graph) string {
		req := LoadRequest{N: g.N()}
		for _, e := range g.Edges() {
			req.Edges = append(req.Edges, [3]float64{float64(e.U), float64(e.V), e.W})
		}
		var info GraphInfo
		if resp := postJSON(t, url+"/load", req, &info); resp.StatusCode != http.StatusOK {
			t.Fatalf("/load status %d", resp.StatusCode)
		}
		return info.Graph
	}
	var pairs [][2]int
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	query := func(url, id string) []byte {
		body, err := json.Marshal(QueryRequest{Graph: id, Pairs: pairs, Paths: true})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("/query: status %d, %v", resp.StatusCode, err)
		}
		return out
	}
	id := load(ts.URL, g)
	for round := 0; round < 6; round++ {
		edges := g.Edges()
		var edits [][3]float64
		var applied []apsp.EdgeEdit
		for _, i := range rng.Perm(len(edges))[:2] {
			e := edges[i]
			w := float64(rng.Intn(9) + 1)
			edits = append(edits, [3]float64{float64(e.U), float64(e.V), w})
			applied = append(applied, apsp.EdgeEdit{U: e.U, V: e.V, W: w})
		}
		var rw ReweightResponse
		if resp := postJSON(t, ts.URL+"/reweight", ReweightRequest{Graph: id, Edits: edits}, &rw); resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: /reweight status %d", round, resp.StatusCode)
		}
		ed, err := apsp.ApplyEdits(g, applied)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := newTestServer(t, 0)
		if freshID := load(fresh.URL, ed.Graph); freshID != rw.Graph {
			t.Fatalf("round %d: a fresh /load of the edited graph is %s, the reweight %s", round, freshID, rw.Graph)
		}
		if !bytes.Equal(query(ts.URL, rw.Graph), query(fresh.URL, rw.Graph)) {
			t.Errorf("round %d: paths after /reweight differ from a fresh /load's (edits %v)", round, edits)
		}
		g, id = ed.Graph, rw.Graph
	}
}

// TestServerRefusesOversizedBody: a body over the limit is answered 413
// on every POST endpoint. The /load body is the case that matters — one
// byte over, and cut at the limit it would still parse, as the same
// graph with edge {1,2} at weight 2 instead of 25: the old LimitReader
// served that wrong graph without a word. At exactly the limit the
// truncated text is a legitimate body and loads.
func TestServerRefusesOversizedBody(t *testing.T) {
	const body = "n 3\n0 1 2\n1 2 25"
	defer func(old int64) { maxBody = old }(maxBody)
	maxBody = int64(len(body)) - 1
	ts, _ := newTestServer(t, 0)
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if g, err := ParseGraphBody([]byte(body[:maxBody])); err != nil || g.M() != 2 {
		t.Fatalf("test body: its first %d bytes must parse as a graph (%v)", maxBody, err)
	}
	if status := post("/load", body); status != http.StatusRequestEntityTooLarge {
		t.Errorf("/load one byte over the limit: status %d, want 413", status)
	}
	if st := getStats(t, ts.URL); st.Registry.Entries != 0 {
		t.Errorf("an oversized /load left %d graphs resident", st.Registry.Entries)
	}
	if status := post("/load", body[:maxBody]); status != http.StatusOK {
		t.Errorf("/load at the limit: status %d, want 200", status)
	}
	pad := strings.Repeat(" ", int(maxBody))
	for path, req := range map[string]string{
		"/generate": `{"kind":"grid","n":16,"seed":1}`,
		"/query":    `{"graph":"0","pairs":[[0,1]]}`,
		"/reweight": `{"graph":"0","edits":[[0,1,2]]}`,
	} {
		if status := post(path, req+pad); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s over the limit: status %d, want 413", path, status)
		}
	}
}

// TestServerLoadRejectsNonFiniteWeights: strconv.ParseFloat takes NaN,
// Inf and -Inf, and /load used to answer each with 200 and a fingerprint
// (the METIS reader and /reweight already refused them). A non-finite
// weight is a 400 naming the line, whatever solver the registry runs —
// which is also what makes "finite distance ⇔ same component" hold for
// every graph the server loads.
func TestServerLoadRejectsNonFiniteWeights(t *testing.T) {
	for _, opts := range []sparseapsp.Options{
		{Algorithm: sparseapsp.SeqFW},
		{Algorithm: sparseapsp.Sparse2D, P: 9},
	} {
		ts := httptest.NewServer(New(sparseapsp.NewOracleRegistry(opts, 0)))
		for _, w := range []string{"NaN", "Inf", "-Inf"} {
			resp, err := http.Post(ts.URL+"/load", "text/plain", strings.NewReader("n 3\n1 2 4\n0 1 "+w+"\n"))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "line 3") {
				t.Errorf("%s: /load with weight %s: status %d (%s), want 400 naming line 3", opts.Algorithm, w, resp.StatusCode, msg)
			}
		}
		if st := getStats(t, ts.URL); st.Registry.Solves != 0 || st.Registry.Entries != 0 {
			t.Errorf("%s: registry = %+v, want nothing solved", opts.Algorithm, st.Registry)
		}
		ts.Close()
	}
}

// TestServerPathsGolden: the reply to a paths:true query over every pair
// of a fixed 5×6 grid — integer weights 0..4, so ties and zero-weight
// edges are everywhere — is byte-equal to testdata/grid_paths.golden,
// captured at the last commit whose successor table had one slot width
// per table and an all-ones "none" code. The store kinds beside it are
// what /statsz must report for such a graph.
func TestServerPathsGolden(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	g := graph.Grid2D(5, 6, func(u, v int) float64 { return float64((3*u + 5*v) % 5) })
	var body bytes.Buffer
	if err := g.Write(&body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/load", "text/plain", &body)
	if err != nil {
		t.Fatal(err)
	}
	var info GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/load: status %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	req := QueryRequest{Graph: info.Graph, Paths: true}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			req.Pairs = append(req.Pairs, [2]int{u, v})
		}
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/query: status %d, %v", resp.StatusCode, err)
	}
	want, err := os.ReadFile("testdata/grid_paths.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("paths:true reply (%d bytes) differs from the golden (%d bytes)", len(got), len(want))
	}
	st := getStats(t, ts.URL).Registry
	if !reflect.DeepEqual(st.StoreKinds, map[string]int{"u5": 1}) || !reflect.DeepEqual(st.SuccBits, map[int]int{2: 1}) {
		t.Errorf("store_kinds = %v, succ_bits = %v, want one u5 entry whose widest column is 2 bits", st.StoreKinds, st.SuccBits)
	}
}

// msValue matches one duration of the registry section: its value
// varies run to run, its key and place do not.
var msValue = regexp.MustCompile(`("[a-z_]+_ms":)[^,}]+`)

// TestStatszRegistryGolden pins the registry section of /statsz — every
// key, their order and every value but the durations — after a fixed
// request sequence on a distributed sparse registry, one reweight that
// falls back among them, against testdata/statsz_registry.golden,
// captured while the section was a struct of its own in this package.
func TestStatszRegistryGolden(t *testing.T) {
	ts := httptest.NewServer(New(sparseapsp.NewOracleRegistry(sparseapsp.Options{Algorithm: sparseapsp.Sparse2D, P: 9}, 1<<20)))
	defer ts.Close()
	var a GraphInfo
	postJSON(t, ts.URL+"/generate", GenerateRequest{Kind: "grid", N: 49, Seed: 1}, &a)
	postJSON(t, ts.URL+"/generate", GenerateRequest{Kind: "grid", N: 49, Seed: 2}, nil)
	cycle := LoadRequest{N: 20}
	for i := 0; i < 20; i++ {
		cycle.Edges = append(cycle.Edges, [3]float64{float64(i), float64((i + 1) % 20), float64(1 + i%9)})
	}
	var c GraphInfo
	postJSON(t, ts.URL+"/load", cycle, &c)
	postJSON(t, ts.URL+"/query", QueryRequest{Graph: a.Graph, Pairs: [][2]int{{0, 48}, {3, 7}}, Paths: true}, nil)
	postJSON(t, ts.URL+"/query", QueryRequest{Graph: c.Graph, Pairs: [][2]int{{0, 10}}}, nil)
	// Six of the cycle's 20 edges is past the repair's damage threshold:
	// the reweight falls back to a solve on the same plan.
	var rw ReweightResponse
	postJSON(t, ts.URL+"/reweight", ReweightRequest{Graph: c.Graph, Edits: [][3]float64{{0, 1, 9}, {1, 2, 9}, {2, 3, 9}, {3, 4, 9}, {4, 5, 9}, {5, 6, 9}}}, &rw)
	if !rw.FellBack {
		t.Fatalf("reweight = %+v, want a fallback", rw)
	}
	postJSON(t, ts.URL+"/query", QueryRequest{Graph: rw.Graph, Pairs: [][2]int{{0, 10}}}, nil)

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Registry json.RawMessage `json:"registry"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	got := append(msValue.ReplaceAll(st.Registry, []byte("${1}0")), '\n')
	want, err := os.ReadFile("testdata/statsz_registry.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/statsz registry section differs from the golden:\ngot  %s\nwant %s", got, want)
	}
}
