package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"sparseapsp/internal/oracle"
	"sparseapsp/internal/server"
)

// Config configures a Router.
type Config struct {
	// Backends are the base URLs of the apspd shards (http://host:port).
	Backends []string
	// Replicas is the replication factor R: every graph is loaded onto
	// R distinct backends and reads fan out to the least-loaded healthy
	// replica. Capped at len(Backends); default DefaultReplicas.
	Replicas int
	// CachePairs bounds the hot-pair cache in (fingerprint, src, dst)
	// entries; 0 means DefaultCachePairs, negative disables caching.
	CachePairs int
	// MaxInFlight bounds admitted-but-unfinished proxied requests per
	// backend; when every replica of a graph is saturated the router
	// answers 429 + Retry-After instead of queueing. Default
	// DefaultMaxInFlight.
	MaxInFlight int
	// ProbeInterval is the /readyz health-probe period; default
	// DefaultProbeInterval.
	ProbeInterval time.Duration
}

// The defaults of a zero Config field, which apspd's router flags share.
const (
	DefaultReplicas      = 2                      // replication factor R
	DefaultCachePairs    = 1 << 16                // hot-pair cache capacity
	DefaultMaxInFlight   = 256                    // admitted requests per backend
	DefaultProbeInterval = 500 * time.Millisecond // /readyz probe period
)

// ejectAfter is the consecutive probe failures that eject a backend (a
// transport error on live traffic ejects at once); one probe success
// re-admits it.
const ejectAfter = 3

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.Replicas > len(c.Backends) {
		c.Replicas = len(c.Backends)
	}
	if c.CachePairs == 0 {
		c.CachePairs = DefaultCachePairs
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	return c
}

// Router is the fleet coordinator: an http.Handler exposing the same
// wire protocol as a single apspd backend (load / generate / query /
// reweight / statsz / healthz / readyz) over a sharded, replicated
// fleet. Graph fingerprints are placed on the consistent-hash ring,
// writes fan out to all R replicas, reads go to the least-loaded
// healthy replica, hot pairs are served from the PairCache without any
// backend round-trip, and saturation turns into 429 + Retry-After at
// the admission boundary. Requests are read, counted, decoded and
// refused by the same request layer as apspd's (server.API), whose
// ServeHTTP and BeginDrain the router's are.
type Router struct {
	*server.API
	cfg   Config
	ring  *Ring
	byURL map[string]*Backend
	all   []*Backend // ring order (sorted URLs)
	cache *PairCache

	// placements pins fingerprints to replica sets. Fresh loads follow
	// the ring, so the map only diverges from pure hashing after a
	// /reweight: the new fingerprint inherits the replicas that hold
	// the repaired oracle (content moved nowhere — the communication-
	// avoiding choice), which the ring alone cannot know.
	placeMu    sync.Mutex
	placements map[string][]string

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewRouter builds the router and starts one health prober per
// backend. Call Close to stop the probers.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Backends, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		API:        server.NewAPI(),
		cfg:        cfg,
		ring:       ring,
		byURL:      make(map[string]*Backend),
		cache:      NewPairCache(cfg.CachePairs),
		placements: make(map[string][]string),
		stop:       make(chan struct{}),
	}
	for _, u := range ring.Backends() {
		b := newBackend(u, cfg.MaxInFlight)
		rt.byURL[u] = b
		rt.all = append(rt.all, b)
	}
	rt.Handle("load", "POST /load", rt.handleLoad)
	rt.Handle("generate", "POST /generate", rt.handleGenerate)
	rt.Handle("query", "POST /query", rt.handleQuery)
	rt.Handle("reweight", "POST /reweight", rt.handleReweight)
	rt.Handle("statsz", "GET /statsz", rt.handleStatsz)
	rt.Handle("healthz", "GET /healthz", rt.handleHealthz)
	rt.HandleReadyz(rt.handleReadyz)
	for _, b := range rt.all {
		rt.wg.Add(1)
		go rt.probeLoop(b)
	}
	return rt, nil
}

// Close stops the health probers. The router keeps serving (with
// frozen health state) until its http.Server shuts down.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// Cache exposes the hot-pair cache (nil when disabled); the load-test
// harness reads its stats.
func (rt *Router) Cache() *PairCache { return rt.cache }

// probeLoop maintains one backend's health state: ejectAfter
// consecutive /readyz failures eject it, a single success re-admits.
func (rt *Router) probeLoop(b *Backend) {
	defer rt.wg.Done()
	timeout := rt.cfg.ProbeInterval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
		}
		if b.probe(timeout) {
			b.markHealthy()
		} else if b.fails.Add(1) >= ejectAfter {
			b.markUnhealthy()
		}
	}
}

// errSaturated is the admission-control refusal: every routable
// replica is at its in-flight bound.
var errSaturated = server.Errorf(http.StatusTooManyRequests, "all replicas saturated; retry later")

// passthrough relays a backend response verbatim, preserving the
// bit-identical-to-single-process contract for proxied answers.
func passthrough(w http.ResponseWriter, status int, body []byte) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, err := w.Write(body)
	return err
}

// replicasFor resolves a fingerprint to its replica set: the recorded
// placement when one exists (reweighted graphs stay on the backends
// that hold the repaired oracle), else the ring placement.
func (rt *Router) replicasFor(fp string) []*Backend {
	rt.placeMu.Lock()
	urls, ok := rt.placements[fp]
	rt.placeMu.Unlock()
	if !ok {
		urls = rt.ring.Replicas(fp, rt.cfg.Replicas)
	}
	out := make([]*Backend, 0, len(urls))
	for _, u := range urls {
		if b, ok := rt.byURL[u]; ok {
			out = append(out, b)
		}
	}
	return out
}

func (rt *Router) recordPlacement(fp string, replicas []*Backend) {
	urls := make([]string, len(replicas))
	for i, b := range replicas {
		urls[i] = b.URL()
	}
	rt.placeMu.Lock()
	rt.placements[fp] = urls
	rt.placeMu.Unlock()
}

func (rt *Router) dropPlacement(fp string) {
	rt.placeMu.Lock()
	delete(rt.placements, fp)
	rt.placeMu.Unlock()
}

// orderForRead sorts candidate replicas for a read: healthy before
// unhealthy (an ejected backend is a last resort, not a dead end —
// probes may simply not have re-admitted it yet), least-loaded first
// within each class.
func orderForRead(replicas []*Backend) []*Backend {
	out := make([]*Backend, len(replicas))
	copy(out, replicas)
	sort.SliceStable(out, func(i, j int) bool {
		hi, hj := out[i].Healthy(), out[j].Healthy()
		if hi != hj {
			return hi
		}
		return out[i].InFlight() < out[j].InFlight()
	})
	return out
}

// forward sends a request to the best replica: candidates are tried in
// health/load order, admission is claimed per attempt, and a transport
// failure ejects the backend and moves on to the next replica. The
// error is errSaturated when every candidate refused admission, or a
// 502 when every admitted attempt failed.
func (rt *Router) forward(ctx context.Context, replicas []*Backend, method, path, contentType string, body []byte) (int, []byte, error) {
	if len(replicas) == 0 {
		return 0, nil, server.Errorf(http.StatusServiceUnavailable, "no backends available")
	}
	saturated := 0
	var lastErr error
	for _, b := range orderForRead(replicas) {
		if !b.tryAcquire() {
			saturated++
			continue
		}
		status, data, err := b.do(ctx, method, path, contentType, body)
		b.release()
		if err != nil {
			// Transport-level failure after retries: eject now rather
			// than waiting ejectAfter probe periods, and fail over
			// to the next replica.
			b.markUnhealthy()
			lastErr = err
			continue
		}
		return status, data, nil
	}
	if saturated == len(replicas) {
		return 0, nil, errSaturated
	}
	return 0, nil, server.Errorf(http.StatusBadGateway, "all replicas failed: %v", lastErr)
}

// fanout sends a write to every routable replica in parallel and
// returns the first successful (2xx) response plus the success count.
// Unhealthy replicas are skipped — they will miss this write, which
// the placement map and read failover tolerate (degraded, never
// wrong). With zero successes the first definitive backend response
// (if any) is relayed so clients see the real status, not a generic
// 502.
func (rt *Router) fanout(ctx context.Context, replicas []*Backend, method, path, contentType string, body []byte) (status int, data []byte, successes int, err error) {
	type result struct {
		status int
		data   []byte
		err    error
	}
	var routable []*Backend
	for _, b := range replicas {
		if b.Healthy() {
			routable = append(routable, b)
		}
	}
	if len(routable) == 0 {
		routable = replicas // all ejected: try anyway rather than refuse
	}
	if len(routable) == 0 {
		return 0, nil, 0, server.Errorf(http.StatusServiceUnavailable, "no backends available")
	}
	results := make([]result, len(routable))
	var wg sync.WaitGroup
	for i, b := range routable {
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			if !b.tryAcquire() {
				results[i] = result{err: errSaturated}
				return
			}
			defer b.release()
			st, d, err := b.do(ctx, method, path, contentType, body)
			if err != nil {
				b.markUnhealthy()
			}
			results[i] = result{status: st, data: d, err: err}
		}(i, b)
	}
	wg.Wait()
	var firstResp *result
	for i := range results {
		r := &results[i]
		if r.err != nil {
			err = r.err
			continue
		}
		if r.status >= 200 && r.status < 300 {
			successes++
			if firstResp == nil || firstResp.status >= 300 {
				firstResp = r
			}
		} else if firstResp == nil {
			firstResp = r
		}
	}
	if firstResp != nil {
		return firstResp.status, firstResp.data, successes, nil
	}
	if errors.Is(err, errSaturated) {
		return 0, nil, 0, err
	}
	return 0, nil, 0, server.Errorf(http.StatusBadGateway, "all replicas failed: %v", err)
}

// registerBody places a parsed graph: the fingerprint is computed
// router-side (no backend has seen the graph yet — deterministic
// placement is what lets R routers agree without coordination), the
// body is fanned out to all R replicas, and the placement is recorded.
func (rt *Router) registerBody(w http.ResponseWriter, r *http.Request, fp string, contentType string, body []byte) error {
	replicas := rt.replicasFor(fp)
	status, data, successes, err := rt.fanout(r.Context(), replicas, http.MethodPost, r.URL.Path, contentType, body)
	if err != nil {
		return err
	}
	if successes > 0 {
		rt.recordPlacement(fp, replicas)
	}
	return passthrough(w, status, data)
}

// handleLoad parses the graph router-side, under no budget (the
// backends admit it), for the fingerprint that decides placement.
func (rt *Router) handleLoad(w http.ResponseWriter, r *http.Request, body []byte) error {
	g, err := server.ParseGraphBody(body)
	if err != nil {
		return err
	}
	return rt.registerBody(w, r, oracle.FingerprintOf(g).String(), r.Header.Get("Content-Type"), body)
}

func (rt *Router) handleGenerate(w http.ResponseWriter, r *http.Request, body []byte) error {
	req, err := server.DecodeGenerate(body)
	if err != nil {
		return err
	}
	// Generating router-side costs O(n + m) — noise next to the solve —
	// and yields the fingerprint that decides placement.
	g, err := req.Build()
	if err != nil {
		return err
	}
	return rt.registerBody(w, r, oracle.FingerprintOf(g).String(), "application/json", body)
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request, body []byte) error {
	req, _, err := server.DecodeQuery(body)
	if err != nil {
		return err
	}
	replicas := rt.replicasFor(req.Graph)

	// Path queries bypass the pair cache (it holds distances only).
	if rt.cache == nil || req.Paths {
		status, data, err := rt.forward(r.Context(), replicas, http.MethodPost, "/query", "application/json", body)
		if err != nil {
			return err
		}
		return passthrough(w, status, data)
	}

	// Distance-only: serve what the hot-pair cache holds and fetch
	// only the missing pairs. The generation is snapshotted before the
	// backend read so a concurrent reweight invalidation discards the
	// fill (see PairCache).
	gen := rt.cache.Gen()
	dists := make([]float64, len(req.Pairs))
	var missIdx []int
	for i, p := range req.Pairs {
		if d, ok := rt.cache.Get(req.Graph, p[0], p[1]); ok {
			dists[i] = d
		} else {
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) > 0 {
		sub := server.QueryRequest{Graph: req.Graph, Pairs: make([][2]int, len(missIdx))}
		for j, i := range missIdx {
			sub.Pairs[j] = req.Pairs[i]
		}
		subBody, err := json.Marshal(sub)
		if err != nil {
			return err
		}
		status, data, err := rt.forward(r.Context(), replicas, http.MethodPost, "/query", "application/json", subBody)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			// The backend's verdict (404 unknown graph, 400 bad pair)
			// wins over any partial cache content.
			return passthrough(w, status, data)
		}
		var subResp server.QueryResponse
		if err := json.Unmarshal(data, &subResp); err != nil || len(subResp.Dists) != len(missIdx) {
			return server.Errorf(http.StatusBadGateway, "malformed backend query response")
		}
		for j, i := range missIdx {
			dists[i] = subResp.Dists[j]
			rt.cache.Put(req.Graph, gen, req.Pairs[i][0], req.Pairs[i][1], subResp.Dists[j])
		}
	}
	return server.WriteJSON(w, server.QueryResponse{Dists: dists})
}

func (rt *Router) handleReweight(w http.ResponseWriter, r *http.Request, body []byte) error {
	req, _, _, err := server.DecodeReweight(body)
	if err != nil {
		return err
	}
	replicas := rt.replicasFor(req.Graph)
	// The fan-out must complete on every routable replica before the
	// cache invalidation: invalidating while a replica still serves the
	// old fingerprint would let a fresh query re-fill old-fingerprint
	// entries that then outlive the swap.
	status, data, successes, err := rt.fanout(r.Context(), replicas, http.MethodPost, "/reweight", "application/json", body)
	if err != nil {
		return err
	}
	if successes == 0 || status != http.StatusOK {
		return passthrough(w, status, data)
	}
	var resp server.ReweightResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return server.Errorf(http.StatusBadGateway, "malformed backend reweight response")
	}
	// The repaired oracle lives where the old one did — content moved
	// nowhere, so the new fingerprint inherits the old placement
	// rather than rehashing onto backends that never saw the graph.
	rt.recordPlacement(resp.Graph, replicas)
	rt.dropPlacement(req.Graph)
	// The swap is live on the backends: retire the old fingerprint's
	// cached pairs and fence out any in-flight pre-swap fills.
	rt.cache.Invalidate(req.Graph)
	return passthrough(w, status, data)
}

// RouterStatsz is the router's /statsz report: fleet-aggregated
// registry counters, per-backend health and traffic, hot-pair cache
// counters and per-endpoint router traffic (apspd's endpoint record).
type RouterStatsz struct {
	Mode          string  `json:"mode"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Replicas      int     `json:"replicas"`
	VNodes        int     `json:"vnodes"`
	Graphs        int     `json:"graphs"` // placements recorded by this router

	// Aggregate sums the registry sections of every reachable backend;
	// Unreachable lists the backends whose /statsz fetch failed.
	Aggregate   oracle.Stats            `json:"aggregate"`
	Registries  map[string]oracle.Stats `json:"registries"`
	Unreachable []string                `json:"unreachable,omitempty"`

	Backends []BackendStats `json:"backends"`

	Cache        PairCacheStats                     `json:"cache"`
	CacheHitRate float64                            `json:"cache_hit_rate"`
	Endpoints    map[string]server.EndpointSnapshot `json:"endpoints"`
}

func (rt *Router) handleStatsz(w http.ResponseWriter, r *http.Request, _ []byte) error {
	type fetched struct {
		url string
		st  server.StatszResponse
		err error
	}
	results := make([]fetched, len(rt.all))
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, b := range rt.all {
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			results[i].url = b.URL()
			status, data, err := b.do(ctx, http.MethodGet, "/statsz", "", nil)
			if err != nil {
				results[i].err = err
				return
			}
			if status != http.StatusOK {
				results[i].err = fmt.Errorf("status %d", status)
				return
			}
			results[i].err = json.Unmarshal(data, &results[i].st)
		}(i, b)
	}
	wg.Wait()

	rt.placeMu.Lock()
	graphs := len(rt.placements)
	rt.placeMu.Unlock()

	resp := RouterStatsz{
		Mode:          "router",
		UptimeSeconds: rt.Uptime().Seconds(),
		Replicas:      rt.cfg.Replicas,
		VNodes:        DefaultVNodes,
		Graphs:        graphs,
		Registries:    make(map[string]oracle.Stats, len(results)),
		Endpoints:     rt.Endpoints(),
	}
	for _, f := range results {
		if f.err != nil {
			resp.Unreachable = append(resp.Unreachable, f.url)
			continue
		}
		resp.Registries[f.url] = f.st.Registry
		resp.Aggregate.Add(f.st.Registry)
	}
	for _, b := range rt.all {
		resp.Backends = append(resp.Backends, b.Stats())
	}
	resp.Cache = rt.cache.Stats()
	resp.CacheHitRate = resp.Cache.HitRate()
	return server.WriteJSON(w, resp)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request, _ []byte) error {
	return server.WriteJSON(w, map[string]string{"status": "ok", "mode": "router"})
}

// handleReadyz: until BeginDrain, the router is ready while at least
// one backend is routable.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request, _ []byte) error {
	healthy := 0
	for _, b := range rt.all {
		if b.Healthy() {
			healthy++
		}
	}
	if healthy == 0 {
		return server.Errorf(http.StatusServiceUnavailable, "0/%d backends healthy", len(rt.all))
	}
	return server.WriteJSON(w, map[string]string{
		"status":   "ready",
		"backends": fmt.Sprintf("%d/%d healthy", healthy, len(rt.all)),
	})
}

// String describes the fleet topology for logs.
func (rt *Router) String() string {
	return fmt.Sprintf("router over %d backends (R=%d, vnodes=%d, cache=%d pairs): %s",
		len(rt.all), rt.cfg.Replicas, DefaultVNodes, rt.cfg.CachePairs,
		strings.Join(rt.ring.Backends(), ", "))
}
