package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sparseapsp"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/oracle"
	"sparseapsp/internal/server"
)

// newBackendServer spins one in-process apspd shard.
func newBackendServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg := sparseapsp.NewOracleRegistry(sparseapsp.Options{Algorithm: sparseapsp.SeqFW}, 0)
	ts := httptest.NewServer(server.New(reg))
	t.Cleanup(ts.Close)
	return ts
}

// newFleet spins n backends plus a router in front of them. cfg's
// Backends field is filled in; zero-value fields take the defaults.
func newFleet(t *testing.T, n int, cfg Config) (*httptest.Server, *Router, []*httptest.Server) {
	t.Helper()
	backends := make([]*httptest.Server, n)
	for i := range backends {
		backends[i] = newBackendServer(t)
		cfg.Backends = append(cfg.Backends, backends[i].URL)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	return front, rt, backends
}

// post returns the raw status and body so tests can assert
// bit-identity, not just semantic equality.
func post(t *testing.T, url, path string, body interface{}) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// tryPost is post without t.Fatal, safe to call from test goroutines.
func tryPost(url, path string, body interface{}) (int, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

func get(t *testing.T, url, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func generate(t *testing.T, url, kind string, n int, seed int64) server.GraphInfo {
	t.Helper()
	status, data := post(t, url, "/generate", server.GenerateRequest{Kind: kind, N: n, Seed: seed})
	if status != http.StatusOK {
		t.Fatalf("generate: status %d: %s", status, data)
	}
	var info server.GraphInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func allPairs(n int) [][2]int {
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	return pairs
}

// The acceptance criterion of the fleet subsystem: a query answered
// through the router is byte-for-byte the answer a single direct apspd
// process gives — whether proxied, cache-assembled, or mixed.
func TestRouterBitIdenticalToDirect(t *testing.T) {
	front, rt, _ := newFleet(t, 3, Config{Replicas: 2, ProbeInterval: time.Hour})
	direct := newBackendServer(t)

	const kind, n, seed = "grid", 36, 7
	infoR := generate(t, front.URL, kind, n, seed)
	infoD := generate(t, direct.URL, kind, n, seed)
	if infoR.Graph != infoD.Graph {
		t.Fatalf("fingerprints diverge: router %s direct %s", infoR.Graph, infoD.Graph)
	}

	pairs := allPairs(infoR.N)
	req := server.QueryRequest{Graph: infoR.Graph, Pairs: pairs}
	// Three passes: the first is all-miss (backend fills), the rest are
	// cache-assembled — every one must match the direct answer.
	_, want := post(t, direct.URL, "/query", req)
	for pass := 0; pass < 3; pass++ {
		status, got := post(t, front.URL, "/query", req)
		if status != http.StatusOK {
			t.Fatalf("pass %d: status %d: %s", pass, status, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: router answer diverges from direct:\nrouter: %s\ndirect: %s", pass, got, want)
		}
	}
	if st := rt.Cache().Stats(); st.Hits == 0 {
		t.Fatalf("repeat passes produced no cache hits: %+v", st)
	}

	// Path queries bypass the cache and must proxy bit-identically too.
	reqP := server.QueryRequest{Graph: infoR.Graph, Pairs: pairs[:8], Paths: true}
	_, wantP := post(t, direct.URL, "/query", reqP)
	status, gotP := post(t, front.URL, "/query", reqP)
	if status != http.StatusOK || !bytes.Equal(gotP, wantP) {
		t.Fatalf("path query diverges (status %d):\nrouter: %s\ndirect: %s", status, gotP, wantP)
	}
}

// Reweight through the router: the new fingerprint answers exactly
// like a direct reweighted process, the old fingerprint 404s, and the
// hot-pair cache never serves a pre-swap distance — including under
// concurrent query load (run with -race).
func TestRouterReweightInvalidatesCache(t *testing.T) {
	front, rt, _ := newFleet(t, 2, Config{Replicas: 2, ProbeInterval: time.Hour})
	direct := newBackendServer(t)

	const kind, n, seed = "grid", 25, 3
	info := generate(t, front.URL, kind, n, seed)
	generate(t, direct.URL, kind, n, seed)

	// Warm the cache on every pair.
	pairs := allPairs(info.N)
	warm := server.QueryRequest{Graph: info.Graph, Pairs: pairs}
	if status, data := post(t, front.URL, "/query", warm); status != http.StatusOK {
		t.Fatalf("warm query: %d %s", status, data)
	}

	// Edits double the weight of a few existing edges. The same graph
	// is regenerated locally so the edits reference real edges.
	g, err := graph.NamedGenerator(kind, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	var edits [][3]float64
	for i, e := range g.Edges() {
		if i >= 5 {
			break
		}
		edits = append(edits, [3]float64{float64(e.U), float64(e.V), e.W * 2})
	}

	// Concurrent queriers hammer the pre-swap fingerprint while the
	// reweight lands. Every 200 they see must be internally consistent
	// for that fingerprint (content-addressed keys make wrong values
	// impossible; this asserts it): compare against the direct
	// backend's pre-swap answer. 404 after the swap is the other legal
	// outcome.
	_, preWant := post(t, direct.URL, "/query", warm)
	stopQueriers := make(chan struct{})
	var qwg sync.WaitGroup
	for w := 0; w < 4; w++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for {
				select {
				case <-stopQueriers:
					return
				default:
				}
				status, data, err := tryPost(front.URL, "/query", warm)
				if err != nil {
					t.Errorf("querier: %v", err)
					return
				}
				switch status {
				case http.StatusOK:
					if !bytes.Equal(data, preWant) {
						t.Errorf("pre-swap fingerprint served a non-pre-swap answer:\n%s", data)
						return
					}
				case http.StatusNotFound:
					// Swap landed; the old fingerprint is gone.
				default:
					t.Errorf("unexpected query status %d: %s", status, data)
					return
				}
			}
		}()
	}

	rwReq := server.ReweightRequest{Graph: info.Graph, Edits: edits}
	status, rwBody := post(t, front.URL, "/reweight", rwReq)
	close(stopQueriers)
	qwg.Wait()
	if status != http.StatusOK {
		t.Fatalf("reweight: %d %s", status, rwBody)
	}
	var rw server.ReweightResponse
	if err := json.Unmarshal(rwBody, &rw); err != nil {
		t.Fatal(err)
	}
	if rw.Graph == info.Graph {
		t.Fatal("reweight did not change the fingerprint")
	}

	// After the swap: old fingerprint 404s through the router (both
	// the cache and every backend must refuse it)...
	if status, data := post(t, front.URL, "/query", warm); status != http.StatusNotFound {
		t.Fatalf("old fingerprint still answers after reweight: %d %s", status, data)
	}
	// ...and the new fingerprint answers bit-identically to a direct
	// process that applied the same reweight — twice, so the second
	// pass is served from cache fills made after the swap.
	if status, data := post(t, direct.URL, "/reweight", rwReq); status != http.StatusOK {
		t.Fatalf("direct reweight: %d %s", status, data)
	}
	newReq := server.QueryRequest{Graph: rw.Graph, Pairs: pairs}
	_, want := post(t, direct.URL, "/query", newReq)
	for pass := 0; pass < 2; pass++ {
		status, got := post(t, front.URL, "/query", newReq)
		if status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("pass %d: post-reweight answer diverges (status %d):\nrouter: %s\ndirect: %s",
				pass, status, got, want)
		}
	}
	if st := rt.Cache().Stats(); st.Invalidations == 0 {
		t.Fatalf("reweight did not invalidate the cache: %+v", st)
	}
}

// Killing one backend must not lose replicated graphs: reads fail over
// to the surviving replica, the dead backend is ejected, and the
// router stays ready.
func TestRouterBackendFailover(t *testing.T) {
	front, rt, backends := newFleet(t, 2, Config{Replicas: 2, ProbeInterval: time.Hour})

	info := generate(t, front.URL, "grid", 16, 1)
	pairs := allPairs(info.N)
	req := server.QueryRequest{Graph: info.Graph, Pairs: pairs}
	_, want := post(t, front.URL, "/query", req)

	// Kill the replica the router will try FIRST (placement order is
	// preserved by the load-ordered picker when all else is equal), so
	// the query is guaranteed to trip over the corpse and fail over.
	rt.placeMu.Lock()
	first := rt.placements[info.Graph][0]
	rt.placeMu.Unlock()
	for _, ts := range backends {
		if ts.URL == first {
			ts.Close()
		}
	}

	// With R=2 every graph lives on both backends, so the query must
	// still answer — identically. Invalidate the cache first to force
	// real backend reads.
	rt.Cache().Invalidate(info.Graph)
	gotStatus, got := post(t, front.URL, "/query", req)
	if gotStatus != http.StatusOK {
		t.Fatalf("query after backend death: %d %s", gotStatus, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failover answer diverges:\nbefore: %s\nafter:  %s", want, got)
	}

	// The dead backend was ejected on its transport error.
	ejected := false
	for _, b := range rt.all {
		if !b.Healthy() {
			ejected = true
		}
	}
	if !ejected {
		t.Fatal("no backend was ejected after transport failure")
	}
	if status, _ := get(t, front.URL, "/readyz"); status != http.StatusOK {
		t.Fatalf("router not ready with one surviving backend: %d", status)
	}
}

// When every backend is gone the router reports not-ready and queries
// fail with 502, not hangs.
func TestRouterAllBackendsDown(t *testing.T) {
	front, _, backends := newFleet(t, 1, Config{ProbeInterval: time.Hour})
	info := generate(t, front.URL, "path", 8, 1)
	backends[0].Close()

	status, data := post(t, front.URL, "/query",
		server.QueryRequest{Graph: info.Graph, Pairs: [][2]int{{0, 1}}, Paths: true})
	if status != http.StatusBadGateway {
		t.Fatalf("query with dead fleet: %d %s", status, data)
	}
	if status, _ := get(t, front.URL, "/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead fleet: %d", status)
	}
	if status, _ := get(t, front.URL, "/healthz"); status != http.StatusOK {
		t.Fatalf("healthz must stay 200 (liveness, not readiness): %d", status)
	}
}

// Admission control: when every replica of a graph is at its in-flight
// bound the router answers 429 + Retry-After instead of queueing.
func TestRouterAdmission429(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" || r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		<-release // hold the router's admission slot
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"dists":[0]}`)
	}))
	defer slow.Close()

	rt, err := NewRouter(Config{Backends: []string{slow.URL}, MaxInFlight: 1,
		ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	fp := oracle.FingerprintOf(graph.New(1)).String()
	req, _ := json.Marshal(server.QueryRequest{Graph: fp, Pairs: [][2]int{{0, 0}}, Paths: true})

	// First query occupies the only slot...
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		http.Post(front.URL+"/query", "application/json", bytes.NewReader(req))
	}()
	// ...wait until it is admitted...
	deadline := time.Now().Add(5 * time.Second)
	for rt.all[0].InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first query was never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	// ...so the second is refused with backpressure semantics.
	resp, err := http.Post(front.URL+"/query", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated fleet answered %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	once.Do(func() { close(release) })
	<-firstDone
}

// /statsz aggregates the fleet: per-backend registries, their sum, the
// cache and the ring topology.
func TestRouterStatszAggregates(t *testing.T) {
	front, _, _ := newFleet(t, 2, Config{Replicas: 1, ProbeInterval: time.Hour})

	// Two graphs so that (very likely) both shards see work; R=1 keeps
	// each on exactly one shard.
	var infos []server.GraphInfo
	for seed := int64(1); seed <= 4; seed++ {
		infos = append(infos, generate(t, front.URL, "path", 12, seed))
	}
	for _, info := range infos {
		post(t, front.URL, "/query", server.QueryRequest{Graph: info.Graph, Pairs: [][2]int{{0, 5}}})
	}
	// And a unit-weight star, for the censuses: two-bit distances, a hub
	// of four neighbours.
	if status, data := post(t, front.URL, "/load", server.LoadRequest{N: 5, Edges: [][3]float64{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {0, 4, 1}}}); status != http.StatusOK {
		t.Fatalf("load: status %d: %s", status, data)
	}

	status, data := get(t, front.URL, "/statsz")
	if status != http.StatusOK {
		t.Fatalf("statsz: %d %s", status, data)
	}
	var st RouterStatsz
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "router" || len(st.Backends) != 2 || len(st.Registries) != 2 {
		t.Fatalf("statsz topology wrong: %+v", st)
	}
	if st.Aggregate.Solves != 5 {
		t.Fatalf("aggregate solves = %d, want 5 (one per graph)", st.Aggregate.Solves)
	}
	var sum int64
	for _, reg := range st.Registries {
		sum += reg.Solves
	}
	if sum != st.Aggregate.Solves {
		t.Fatalf("aggregate (%d) != sum of per-backend (%d)", st.Aggregate.Solves, sum)
	}
	// The per-entry censuses sum across backends like every counter: four
	// path graphs with real-valued weights are four f64 stores whose widest
	// successor column is one bit, the star a u2 store whose hub takes two,
	// each the triangle of a bit-symmetric matrix.
	if !reflect.DeepEqual(st.Aggregate.StoreKinds, map[string]int{"f64": 4, "u2": 1}) ||
		!reflect.DeepEqual(st.Aggregate.StoreLayouts, map[string]int{"tri": 5}) ||
		!reflect.DeepEqual(st.Aggregate.SuccBits, map[int]int{1: 4, 2: 1}) {
		t.Fatalf("aggregate store_kinds = %v, store_layouts = %v, succ_bits = %v, want f64:4 u2:1, tri:5 and 1:4 2:1",
			st.Aggregate.StoreKinds, st.Aggregate.StoreLayouts, st.Aggregate.SuccBits)
	}
	if st.Graphs != 5 {
		t.Fatalf("router tracks %d placements, want 5", st.Graphs)
	}
	if st.Endpoints["generate"].Requests != 4 {
		t.Fatalf("endpoint counters wrong: %+v", st.Endpoints)
	}
}

// Placement is deterministic and replicated: the router records R
// distinct replicas per fingerprint, agreeing with the ring.
func TestRouterPlacementFollowsRing(t *testing.T) {
	_, rt, _ := newFleet(t, 3, Config{Replicas: 2, ProbeInterval: time.Hour})
	front := httptest.NewServer(rt)
	defer front.Close()

	info := generate(t, front.URL, "grid", 16, 9)
	rt.placeMu.Lock()
	placed := rt.placements[info.Graph]
	rt.placeMu.Unlock()
	want := rt.ring.Replicas(info.Graph, 2)
	if len(placed) != 2 || placed[0] != want[0] || placed[1] != want[1] {
		t.Fatalf("placement %v diverges from ring %v", placed, want)
	}
	// Both replicas actually hold the graph: ask each directly.
	for _, u := range placed {
		status, data := post(t, u, "/query",
			server.QueryRequest{Graph: info.Graph, Pairs: [][2]int{{0, 1}}})
		if status != http.StatusOK {
			t.Fatalf("replica %s does not hold %s: %d %s", u, info.Graph, status, data)
		}
	}
}

// capBody serves h with request bodies capped at limit: a MaxBytesReader
// outside the request layer's own trips first, and the layer answers it
// with its 413 naming limit.
func capBody(h http.Handler, limit int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, int64(limit))
		h.ServeHTTP(w, r)
	})
}

// The router reads every body before it places or forwards it, under
// the backends' limit: over it the answer is 413 and no backend hears of
// the request. The /load body is one byte over and, cut at the limit,
// would still parse — as edge {1,2} at weight 2, not 25 — so the old
// LimitReader placed and served a graph the client never sent.
func TestRouterRefusesOversizedBody(t *testing.T) {
	const body = "n 3\n0 1 2\n1 2 25"
	const limit = len(body) - 1
	_, rt, _ := newFleet(t, 2, Config{Replicas: 2, ProbeInterval: time.Hour})
	front := httptest.NewServer(capBody(rt, limit))
	defer front.Close()
	send := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(front.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if g, err := server.ParseGraphBody([]byte(body[:limit])); err != nil || g.M() != 2 {
		t.Fatalf("test body: its first %d bytes must parse as a graph (%v)", limit, err)
	}
	pad := strings.Repeat(" ", limit)
	for path, req := range map[string]string{
		"/load":     body,
		"/generate": `{"kind":"grid","n":16,"seed":1}` + pad,
		"/query":    `{"graph":"0","pairs":[[0,1]]}` + pad,
		"/reweight": `{"graph":"0","edits":[[0,1,2]]}` + pad,
	} {
		if status := send(path, req); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s over the limit: status %d, want 413", path, status)
		}
	}
	rt.placeMu.Lock()
	placed := len(rt.placements)
	rt.placeMu.Unlock()
	if placed != 0 {
		t.Errorf("oversized bodies left %d placements", placed)
	}
	if status := send("/load", body[:limit]); status != http.StatusOK {
		t.Errorf("/load at the limit: status %d, want 200", status)
	}
}

// TestRouterErrorsMatchDirect: the router refuses a malformed body with
// the status and the bytes a direct apspd gives it, whether the router
// refuses it itself (the shared decoders and body cap) or relays a
// backend's verdict. Bytes after the JSON value, or padding past the
// cap behind it, are refused by both: the whole body is one value. Both
// are held to testdata/router_errors.golden, so a refusal cannot change
// on both sides at once unseen.
func TestRouterErrorsMatchDirect(t *testing.T) {
	const limit = 256
	_, rt, _ := newFleet(t, 2, Config{Replicas: 2, ProbeInterval: time.Hour})
	front := httptest.NewServer(capBody(rt, limit))
	defer front.Close()
	direct := httptest.NewServer(capBody(newBackendServer(t).Config.Handler, limit))
	defer direct.Close()
	fp := generate(t, front.URL, "grid", 16, 1).Graph
	if got := generate(t, direct.URL, "grid", 16, 1).Graph; got != fp {
		t.Fatalf("fingerprints diverge: router %s direct %s", fp, got)
	}
	data, err := os.ReadFile("testdata/router_errors.golden")
	if err != nil {
		t.Fatal(err)
	}
	var golden []struct {
		Name   string `json:"name"`
		Status int    `json:"status"`
		Body   string `json:"body"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	query := `{"graph":"` + fp + `","pairs":[[0,1]]}`
	send := func(url, path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	rows := []struct{ name, path, body string }{
		{"empty query", "/query", ""},
		{"empty generate", "/generate", ""},
		{"empty reweight", "/reweight", ""},
		{"empty load", "/load", ""},
		{"truncated query", "/query", `{"graph":"` + fp},
		{"bytes after query", "/query", query + " x"},
		{"bytes after reweight", "/reweight", `{"graph":"` + fp + `","edits":[[0,1,9]]}{}`},
		{"bytes after generate", "/generate", `{"kind":"grid","n":16,"seed":1} 1`},
		{"padding past the cap", "/query", query + strings.Repeat(" ", limit)},
		{"bad fingerprint", "/query", `{"graph":"zz","pairs":[[0,1]]}`},
		{"no pairs", "/query", `{"graph":"` + fp + `"}`},
		{"pair out of range", "/query", `{"graph":"` + fp + `","pairs":[[0,999]]}`},
		{"unknown graph", "/query", `{"graph":"` + strings.Repeat("ab", 32) + `","pairs":[[0,1]]}`},
		{"non-integer edit", "/reweight", `{"graph":"` + fp + `","edits":[[0.5,1,2]]}`},
		{"zero n", "/generate", `{"kind":"grid","n":0}`},
		{"unknown kind", "/generate", `{"kind":"nope","n":9}`},
		{"JSON array", "/query", `[[0,1]]`},
	}
	if len(golden) != len(rows) {
		t.Fatalf("golden holds %d refusals, the test sends %d", len(golden), len(rows))
	}
	for i, c := range rows {
		want := golden[i]
		if want.Name != c.name {
			t.Fatalf("golden row %d is %q, the test sends %q", i, want.Name, c.name)
		}
		for _, side := range []struct{ name, url string }{{"direct", direct.URL}, {"router", front.URL}} {
			if status, body := send(side.url, c.path, c.body); status != want.Status || body != want.Body {
				t.Errorf("%s: %s answered %d %q, golden %d %q", c.name, side.name, status, body, want.Status, want.Body)
			}
		}
	}
}

// TestRouterUppercaseGraphID: hex digits of either case name one graph
// to a backend, so the router places and caches by the canonical id: an
// upper-case id reaches the one replica that holds the graph and gets
// the direct answer, not a 404 from a backend the raw string hashed to.
func TestRouterUppercaseGraphID(t *testing.T) {
	front, _, _ := newFleet(t, 3, Config{Replicas: 1, ProbeInterval: time.Hour})
	direct := newBackendServer(t)
	var upper []string
	for seed := int64(1); seed <= 4; seed++ {
		info := generate(t, front.URL, "grid", 16, seed)
		generate(t, direct.URL, "grid", 16, seed)
		upper = append(upper, strings.ToUpper(info.Graph))
	}
	for _, id := range upper {
		for _, paths := range []bool{false, true} {
			req := server.QueryRequest{Graph: id, Pairs: [][2]int{{0, 15}, {3, 9}}, Paths: paths}
			wantStatus, want := post(t, direct.URL, "/query", req)
			gotStatus, got := post(t, front.URL, "/query", req)
			if wantStatus != http.StatusOK || gotStatus != wantStatus || !bytes.Equal(got, want) {
				t.Errorf("%s paths=%v: router %d %s, direct %d %s", id, paths, gotStatus, got, wantStatus, want)
			}
		}
	}
}

// TestRouterReadyzDrain: BeginDrain turns the router's /readyz to 503
// with every backend healthy, so whatever balances across routers stops
// sending it work, while /healthz stays 200 (liveness is not readiness).
func TestRouterReadyzDrain(t *testing.T) {
	front, rt, _ := newFleet(t, 2, Config{ProbeInterval: time.Hour})
	if status, data := get(t, front.URL, "/readyz"); status != http.StatusOK {
		t.Fatalf("/readyz before drain: %d %s", status, data)
	}
	rt.BeginDrain()
	if status, data := get(t, front.URL, "/readyz"); status != http.StatusServiceUnavailable || !bytes.Contains(data, []byte("draining")) {
		t.Errorf("/readyz during drain: %d %s, want 503 draining", status, data)
	}
	if status, _ := get(t, front.URL, "/healthz"); status != http.StatusOK {
		t.Errorf("/healthz during drain: %d, want 200", status)
	}
}

// TestRouterStatszGolden: over two sparse backends holding every graph,
// the aggregate registry section of the router's /statsz — every key,
// their order and every value but the durations — matches
// testdata/router_statsz_aggregate.golden, captured while the section
// had its own struct and summing code, and it equals the field-wise sum
// of the per-backend sections it reports beside it.
func TestRouterStatszGolden(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(server.New(sparseapsp.NewOracleRegistry(sparseapsp.Options{Algorithm: sparseapsp.Sparse2D, P: 9}, 1<<20)))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, err := NewRouter(Config{Backends: urls, Replicas: 2, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	a := generate(t, front.URL, "grid", 49, 1)
	generate(t, front.URL, "grid", 49, 2)
	cycle := server.LoadRequest{N: 20}
	for i := 0; i < 20; i++ {
		cycle.Edges = append(cycle.Edges, [3]float64{float64(i), float64((i + 1) % 20), float64(1 + i%9)})
	}
	_, data := post(t, front.URL, "/load", cycle)
	var c server.GraphInfo
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	post(t, front.URL, "/query", server.QueryRequest{Graph: a.Graph, Pairs: [][2]int{{0, 48}, {3, 7}}, Paths: true})
	post(t, front.URL, "/query", server.QueryRequest{Graph: c.Graph, Pairs: [][2]int{{0, 10}}})
	_, data = post(t, front.URL, "/reweight", server.ReweightRequest{Graph: c.Graph, Edits: [][3]float64{{0, 1, 9}, {1, 2, 9}, {2, 3, 9}, {3, 4, 9}, {4, 5, 9}, {5, 6, 9}}})
	var rw server.ReweightResponse
	if err := json.Unmarshal(data, &rw); err != nil || !rw.FellBack {
		t.Fatalf("reweight = %s, want a fallback", data)
	}
	post(t, front.URL, "/query", server.QueryRequest{Graph: rw.Graph, Pairs: [][2]int{{0, 10}}})

	status, body := get(t, front.URL, "/statsz")
	if status != http.StatusOK {
		t.Fatalf("statsz: %d %s", status, body)
	}
	var raw struct {
		Aggregate json.RawMessage `json:"aggregate"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	got := append(regexp.MustCompile(`("[a-z_]+_ms":)[^,}]+`).ReplaceAll(raw.Aggregate, []byte("${1}0")), '\n')
	want, err := os.ReadFile("testdata/router_statsz_aggregate.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("router /statsz aggregate differs from the golden:\ngot  %s\nwant %s", got, want)
	}

	var st RouterStatsz
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	var sum oracle.Stats
	for _, u := range rt.ring.Backends() {
		sum.Add(st.Registries[u])
	}
	if !reflect.DeepEqual(sum, st.Aggregate) {
		t.Errorf("aggregate %+v is not the sum of the backends, %+v", st.Aggregate, sum)
	}
}
