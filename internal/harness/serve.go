package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/fleet"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/oracle"
	"sparseapsp/internal/server"
)

// ServeConfig sets the dimensions of the fleet serving benchmark
// (E21): a family of 2D grid workloads sharded over apspd backends
// behind the fleet router, under a Zipf-distributed hot-pair query
// load.
type ServeConfig struct {
	N          int   // grid workload size per graph (n = side², like the solver sweeps)
	Graphs     int   // distinct graphs in the working set (what sharding spreads)
	Fleet      []int // backend counts to sweep, e.g. [1, 2, 4]
	Replicas   int   // replication factor R for the fleet rows
	Clients    int   // concurrent load-generator clients
	Batches    int   // query batches per client
	BatchPairs int   // pairs per /query batch (one graph per batch)
	PairPool   int   // distinct (src, dst) pairs per graph the workload draws from
	ZipfS      float64
	Seed       int64
	CachePairs int // router hot-pair cache capacity for the cached row
	// ShardConcurrency caps concurrent requests inside each in-process
	// shard, modeling fixed-capacity backends: every shard in this
	// benchmark shares one process (and one machine), so without a cap
	// a single shard would already absorb every core and adding
	// backends could not show up as throughput. The cap is what makes
	// the 1 -> N scaling signal honest: it measures the router's
	// ability to spread the sharded working set over shards of fixed
	// capacity, not the machine's total core count.
	ShardConcurrency int
	// ShardServiceMs adds a fixed service time to every request a
	// shard handles, while it holds one of the ShardConcurrency slots.
	// Together they set each shard's capacity at Concurrency/Service
	// requests per second — without this, an in-process shard serving
	// microsecond map lookups is effectively infinite capacity and no
	// backend count could ever be the bottleneck. Cache hits at the
	// router skip this cost entirely, which is exactly the effect the
	// cached row measures.
	ShardServiceMs float64
}

// DefaultServeConfig returns the committed BENCH_serve.json dimensions.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		N:                256,
		Graphs:           8,
		Fleet:            []int{1, 2, 4},
		Replicas:         2,
		Clients:          16,
		Batches:          150,
		BatchPairs:       16,
		PairPool:         512,
		ZipfS:            1.2,
		Seed:             42,
		CachePairs:       1 << 16,
		ShardConcurrency: 2,
		ShardServiceMs:   2,
	}
}

// serveRegistry builds a backend oracle registry equivalent to apspd's
// (sequential Floyd-Warshall solver keeps every shard bit-identical and
// the benchmark deterministic; incremental repair enabled).
func serveRegistry(seed int64) *oracle.Registry {
	sopts := apsp.SparseOptions{Seed: seed}
	return oracle.NewRegistry(oracle.Config{
		Solve: func(g *graph.Graph) (*apsp.PathResult, error) {
			return apsp.FloydWarshallPaths(g), nil
		},
		Repair: func(g *graph.Graph, prevDist apsp.RowFunc, prevNext *apsp.Successors, edits []apsp.EdgeEdit) (*apsp.PathResult, *graph.Graph, apsp.RepairStats, error) {
			// p=49 matches the root package's repair default.
			return apsp.RepairRowsWithOptions(g, prevDist, prevNext, edits, 49, sopts, 0)
		},
	})
}

// limitConcurrency caps in-flight requests through h at k, each
// costing serviceMs while it holds a slot — together they model a
// fixed-capacity shard of k/serviceMs requests per millisecond (see
// ServeConfig.ShardConcurrency / ShardServiceMs).
func limitConcurrency(h http.Handler, k int, serviceMs float64) http.Handler {
	if k <= 0 && serviceMs <= 0 {
		return h
	}
	var sem chan struct{}
	if k > 0 {
		sem = make(chan struct{}, k)
	}
	delay := time.Duration(serviceMs * float64(time.Millisecond))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sem != nil {
			sem <- struct{}{}
			defer func() { <-sem }()
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		h.ServeHTTP(w, r)
	})
}

// serveClient is the load generator's HTTP client: keep-alive reuse
// sized for the client count, plus a bounded retry loop on 429
// backpressure.
type serveClient struct {
	c         *http.Client
	retry429s atomic.Int64
}

func newServeClient(clients int) *serveClient {
	tr := &http.Transport{MaxIdleConns: 4 * clients, MaxIdleConnsPerHost: 2 * clients}
	return &serveClient{c: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (sc *serveClient) postJSON(url, path string, body interface{}) (int, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	for attempt := 0; ; attempt++ {
		resp, err := sc.c.Post(url+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 200 {
			// Honor the router's backpressure: back off and retry.
			sc.retry429s.Add(1)
			time.Sleep(2 * time.Millisecond)
			continue
		}
		return resp.StatusCode, data, nil
	}
}

// serveGraph is one member of the sharded working set.
type serveGraph struct {
	g     *graph.Graph
	load  server.LoadRequest
	pool  [][2]int           // this graph's hot-pair pool
	want  map[[2]int]float64 // reference distances for the pool
	edits [][3]float64       // reweight edits for the identity gate
}

// serveWorkload is the shared query workload: Graphs grids of the same
// family (different weight seeds, so different fingerprints — the unit
// the ring shards) with a hot-pair pool each.
type serveWorkload struct {
	graphs []serveGraph
}

func buildServeWorkload(cfg ServeConfig) serveWorkload {
	side := 1
	for (side+1)*(side+1) <= cfg.N {
		side++
	}
	var w serveWorkload
	for gi := 0; gi < cfg.Graphs; gi++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(gi)))
		g := graph.Grid2D(side, side, graph.RandomWeights(rng, 1, 10))
		sg := serveGraph{g: g, load: server.LoadRequest{N: g.N()}}
		for _, e := range g.Edges() {
			sg.load.Edges = append(sg.load.Edges, [3]float64{float64(e.U), float64(e.V), e.W})
		}
		sg.pool = make([][2]int, cfg.PairPool)
		for i := range sg.pool {
			sg.pool[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
		}
		// Reference distances, solved locally once: every timed
		// response is checked against these, so the reported numbers
		// can only ever describe correct serving.
		ref := apsp.FloydWarshallPaths(g)
		sg.want = make(map[[2]int]float64, len(sg.pool))
		for _, p := range sg.pool {
			sg.want[p] = ref.Dist.At(p[0], p[1]) // grids are connected: no Inf mapping
		}
		for i, e := range g.Edges() {
			if i >= 4 {
				break
			}
			sg.edits = append(sg.edits, [3]float64{float64(e.U), float64(e.V), e.W * 2})
		}
		w.graphs = append(w.graphs, sg)
	}
	return w
}

// serveRow is one measured topology.
type serveRow struct {
	setup    string
	backends int
	queries  int64
	elapsed  time.Duration
	hitRate  float64
	retries  int64
}

// runServeLoad drives the Zipf workload against url: each batch picks a
// graph uniformly (spreading load over the sharded working set) and
// draws its pairs from that graph's pool Zipf-distributed (hot head).
func runServeLoad(cfg ServeConfig, sc *serveClient, url string, fps []string, w serveWorkload) (int64, time.Duration, error) {
	var wg sync.WaitGroup
	var queries int64
	errc := make(chan error, cfg.Clients)
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
			zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.PairPool-1))
			for b := 0; b < cfg.Batches; b++ {
				gi := rng.Intn(len(fps))
				sg := &w.graphs[gi]
				req := server.QueryRequest{Graph: fps[gi], Pairs: make([][2]int, cfg.BatchPairs)}
				for i := range req.Pairs {
					req.Pairs[i] = sg.pool[zipf.Uint64()]
				}
				status, data, err := sc.postJSON(url, "/query", req)
				if err != nil {
					errc <- err
					return
				}
				if status != http.StatusOK {
					errc <- fmt.Errorf("query status %d: %s", status, data)
					return
				}
				var resp server.QueryResponse
				if err := json.Unmarshal(data, &resp); err != nil || len(resp.Dists) != len(req.Pairs) {
					errc <- fmt.Errorf("malformed query response: %s", data)
					return
				}
				for i, p := range req.Pairs {
					if resp.Dists[i] != sg.want[p] {
						errc <- fmt.Errorf("graph %d: wrong distance for %v: got %g want %g",
							gi, p, resp.Dists[i], sg.want[p])
						return
					}
				}
				atomic.AddInt64(&queries, 1)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return 0, 0, err
	default:
	}
	return queries, elapsed, nil
}

// identityGate asserts that the router answers every graph's pool
// byte-for-byte like the direct reference server, then — when rw is set
// — that a /reweight through the router swaps fingerprints exactly like
// the reference: old fingerprint 404s, new fingerprint answers
// bit-identically. The gate runs before any number is reported; a fleet
// that is fast but wrong fails the benchmark.
func identityGate(sc *serveClient, routerURL, refURL string, fps []string, w serveWorkload, rw bool) error {
	for gi, fp := range fps {
		req := server.QueryRequest{Graph: fp, Pairs: w.graphs[gi].pool}
		_, want, err := sc.postJSON(refURL, "/query", req)
		if err != nil {
			return err
		}
		for pass := 0; pass < 2; pass++ { // pass 2 hits the router cache, if any
			status, got, err := sc.postJSON(routerURL, "/query", req)
			if err != nil {
				return err
			}
			if status != http.StatusOK || !bytes.Equal(got, want) {
				return fmt.Errorf("identity gate: graph %d diverges from direct (pass %d, status %d)", gi, pass, status)
			}
		}
	}
	if !rw {
		return nil
	}
	// Reweight graph 0 through both sides and re-compare.
	fp, sg := fps[0], w.graphs[0]
	req := server.QueryRequest{Graph: fp, Pairs: sg.pool}
	rwReq := server.ReweightRequest{Graph: fp, Edits: sg.edits}
	status, body, err := sc.postJSON(routerURL, "/reweight", rwReq)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("identity gate: router reweight failed: %v status %d %s", err, status, body)
	}
	var rresp server.ReweightResponse
	if err := json.Unmarshal(body, &rresp); err != nil {
		return err
	}
	if status, _, err := sc.postJSON(routerURL, "/query", req); err != nil || status != http.StatusNotFound {
		return fmt.Errorf("identity gate: old fingerprint still answers after reweight (err %v, status %d)", err, status)
	}
	if status, _, err := sc.postJSON(refURL, "/reweight", rwReq); err != nil || status != http.StatusOK {
		return fmt.Errorf("identity gate: reference reweight failed: %v status %d", err, status)
	}
	newReq := server.QueryRequest{Graph: rresp.Graph, Pairs: sg.pool}
	_, wantNew, err := sc.postJSON(refURL, "/query", newReq)
	if err != nil {
		return err
	}
	status, gotNew, err := sc.postJSON(routerURL, "/query", newReq)
	if err != nil || status != http.StatusOK || !bytes.Equal(gotNew, wantNew) {
		return fmt.Errorf("identity gate: post-reweight answer diverges (err %v, status %d)", err, status)
	}
	return nil
}

// ServeBench measures fleet serving throughput (E21): a direct
// single-process baseline, the router over 1..N fixed-capacity shards
// without caching (the sharding + replication scaling signal), and the
// router with the hot-pair cache on a Zipf workload (the cache
// signal). Every topology passes a bit-identity gate — including
// through a /reweight fingerprint swap — before it is timed.
func ServeBench(cfg ServeConfig) (*Table, error) {
	if cfg.N <= 0 || cfg.Graphs <= 0 || cfg.Clients <= 0 || cfg.Batches <= 0 ||
		cfg.BatchPairs <= 0 || cfg.PairPool <= 1 || len(cfg.Fleet) == 0 {
		return nil, fmt.Errorf("serve: empty benchmark dimensions")
	}
	w := buildServeWorkload(cfg)
	sc := newServeClient(cfg.Clients)

	// startShard spins one fixed-capacity in-process backend.
	startShard := func() *httptest.Server {
		reg := serveRegistry(cfg.Seed)
		return httptest.NewServer(limitConcurrency(server.New(reg), cfg.ShardConcurrency, cfg.ShardServiceMs))
	}
	loadAll := func(url string) ([]string, error) {
		fps := make([]string, len(w.graphs))
		for gi := range w.graphs {
			status, data, err := sc.postJSON(url, "/load", w.graphs[gi].load)
			if err != nil {
				return nil, err
			}
			if status != http.StatusOK {
				return nil, fmt.Errorf("load graph %d: status %d: %s", gi, status, data)
			}
			var info server.GraphInfo
			if err := json.Unmarshal(data, &info); err != nil {
				return nil, err
			}
			fps[gi] = info.Graph
		}
		return fps, nil
	}

	var rows []serveRow

	// Row 1: direct — clients straight at one shard, no router.
	{
		shard := startShard()
		fps, err := loadAll(shard.URL)
		if err == nil {
			var q int64
			var el time.Duration
			q, el, err = runServeLoad(cfg, sc, shard.URL, fps, w)
			if err == nil {
				rows = append(rows, serveRow{setup: "direct", backends: 1, queries: q, elapsed: el})
			}
		}
		shard.Close()
		if err != nil {
			return nil, fmt.Errorf("direct: %w", err)
		}
	}

	// Fleet rows: router over B shards, cache off, then the largest B
	// again with the hot-pair cache on.
	type fleetCase struct {
		label  string
		b      int
		cache  int
		gateRW bool
	}
	var cases []fleetCase
	for _, b := range cfg.Fleet {
		cases = append(cases, fleetCase{label: "fleet", b: b, cache: -1})
	}
	maxB := cfg.Fleet[len(cfg.Fleet)-1]
	cases = append(cases, fleetCase{label: "fleet+cache", b: maxB, cache: cfg.CachePairs, gateRW: true})

	for _, fc := range cases {
		var shards []*httptest.Server
		var urls []string
		for i := 0; i < fc.b; i++ {
			s := startShard()
			shards = append(shards, s)
			urls = append(urls, s.URL)
		}
		refSrv := startShard() // direct reference for the identity gate
		rt, err := fleet.NewRouter(fleet.Config{
			Backends:      urls,
			Replicas:      cfg.Replicas,
			CachePairs:    fc.cache,
			ProbeInterval: time.Hour, // static topology: probing is noise here
		})
		if err == nil {
			front := httptest.NewServer(rt)
			var fps, fpsRef []string
			if fps, err = loadAll(front.URL); err == nil {
				if fpsRef, err = loadAll(refSrv.URL); err == nil {
					for gi := range fps {
						if fps[gi] != fpsRef[gi] {
							err = fmt.Errorf("graph %d: fingerprint diverges between router and direct load", gi)
							break
						}
					}
				}
			}
			if err == nil {
				err = identityGate(sc, front.URL, refSrv.URL, fps, w, false)
			}
			var q int64
			var el time.Duration
			var rowRetries int64
			var rowHitRate float64
			if err == nil {
				// The gate warmed the cache; cool it so the timed run
				// measures the Zipf workload's own locality, then count
				// only the run's traffic.
				for _, fp := range fps {
					rt.Cache().Invalidate(fp)
				}
				sc.retry429s.Store(0)
				pre := rt.Cache().Stats()
				q, el, err = runServeLoad(cfg, sc, front.URL, fps, w)
				rowRetries = sc.retry429s.Load()
				post := rt.Cache().Stats()
				rowHitRate = fleet.PairCacheStats{Hits: post.Hits - pre.Hits, Misses: post.Misses - pre.Misses}.HitRate()
			}
			if err == nil && fc.gateRW {
				// The reweight identity gate runs after timing: it
				// retires graph 0's benchmark fingerprint.
				err = identityGate(sc, front.URL, refSrv.URL, fps, w, true)
			}
			if err == nil {
				rows = append(rows, serveRow{
					setup:    fc.label,
					backends: fc.b,
					queries:  q,
					elapsed:  el,
					hitRate:  rowHitRate,
					retries:  rowRetries,
				})
			}
			front.Close()
			rt.Close()
		}
		refSrv.Close()
		for _, s := range shards {
			s.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("%s B=%d: %w", fc.label, fc.b, err)
		}
	}

	t := &Table{
		ID:    "E21",
		Title: "fleet serving throughput (consistent-hash sharding, replication, hot-pair cache)",
		Columns: []string{"setup", "backends", "R", "clients", "queries", "elapsed_s",
			"qps", "mean_ms", "cache_hit_rate", "retried_429s"},
	}
	for _, r := range rows {
		reps := cfg.Replicas
		hit := "-"
		if r.setup == "direct" {
			reps = 1
		}
		if r.setup == "fleet+cache" {
			hit = fmt.Sprintf("%.3f", r.hitRate)
		}
		qps := float64(r.queries) / r.elapsed.Seconds()
		meanMs := r.elapsed.Seconds() * 1e3 * float64(cfg.Clients) / float64(r.queries)
		t.Add(r.setup, r.backends, reps, cfg.Clients, r.queries, r.elapsed.Seconds(), qps, meanMs, hit, r.retries)
	}
	t.Note("%d grid graphs of n=%d sharded with R=%d; %d clients x %d batches x %d pairs, "+
		"Zipf(s=%.2f) over %d hot pairs per graph, seed %d",
		cfg.Graphs, w.graphs[0].g.N(), cfg.Replicas, cfg.Clients, cfg.Batches, cfg.BatchPairs,
		cfg.ZipfS, cfg.PairPool, cfg.Seed)
	t.Note("shards run in-process, modeled as fixed-capacity backends: concurrency %d x %.1fms "+
		"service time = %.0f qps per shard; qps scaling across B measures the router's load "+
		"spreading over that capacity, cache hits skip it entirely",
		cfg.ShardConcurrency, cfg.ShardServiceMs,
		float64(cfg.ShardConcurrency)/(cfg.ShardServiceMs/1e3))
	t.Note("every row passed a bit-identity gate against a direct single-process server before timing " +
		"(cache cooled again afterwards); the cached row's gate also covers a /reweight fingerprint " +
		"swap (old fp 404s, new fp identical)")
	return t, nil
}
