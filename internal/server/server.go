// Package server is the apspd HTTP front-end over an oracle registry,
// factored out of cmd/apspd so the fleet router, the load-test harness
// and the tests can all spin up real backends in-process. cmd/apspd
// wraps it in a net/http.Server; internal/fleet proxies to it.
//
// The package also owns the wire protocol: the request/response JSON
// types of every endpoint live here and are imported by the router, so
// a single definition decides what travels between router and backends.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/oracle"
)

// MaxBodyBytes bounds request bodies (graphs arrive inline). A longer
// body is refused with 413, never cut short: an edge list truncated at
// a line boundary would parse, and be served, as a smaller graph.
const MaxBodyBytes = 64 << 20

// maxBody is the limit handle applies; a variable only so the tests can
// shrink it.
var maxBody int64 = MaxBodyBytes

// endpointStats counts one endpoint's traffic.
type endpointStats struct {
	Requests   atomic.Int64
	Errors     atomic.Int64
	InFlight   atomic.Int64
	TotalNanos atomic.Int64
	MaxNanos   atomic.Int64
}

// EndpointSnapshot is the per-endpoint section of /statsz.
type EndpointSnapshot struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	InFlight int64   `json:"in_flight"`
	TotalMs  float64 `json:"total_ms"`
	MaxMs    float64 `json:"max_ms"`
}

func (e *endpointStats) snapshot() EndpointSnapshot {
	return EndpointSnapshot{
		Requests: e.Requests.Load(),
		Errors:   e.Errors.Load(),
		InFlight: e.InFlight.Load(),
		TotalMs:  float64(e.TotalNanos.Load()) / 1e6,
		MaxMs:    float64(e.MaxNanos.Load()) / 1e6,
	}
}

// Server is the apspd HTTP handler over an oracle registry.
//
// Liveness and readiness are split: /healthz answers 200 for the whole
// process lifetime (the probe for "restart me"), while /readyz answers
// 200 only while the server wants traffic — it goes 503 the moment
// BeginDrain is called, so a router health-probing /readyz stops
// routing to a draining backend before its listener closes.
type Server struct {
	reg       *oracle.Registry
	mux       *http.ServeMux
	started   time.Time
	endpoints map[string]*endpointStats
	draining  atomic.Bool
}

// New wires the handlers. The registry owns solving and caching; the
// server only parses requests and keeps per-endpoint counters. reg must
// not be nil; the server reports ready as soon as New returns.
func New(reg *oracle.Registry) *Server {
	s := &Server{
		reg:       reg,
		mux:       http.NewServeMux(),
		started:   time.Now(),
		endpoints: make(map[string]*endpointStats),
	}
	s.handle("load", "POST /load", s.handleLoad)
	s.handle("generate", "POST /generate", s.handleGenerate)
	s.handle("query", "POST /query", s.handleQuery)
	s.handle("reweight", "POST /reweight", s.handleReweight)
	s.handle("statsz", "GET /statsz", s.handleStatsz)
	s.handle("healthz", "GET /healthz", s.handleHealthz)
	s.handle("readyz", "GET /readyz", s.handleReadyz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain flips /readyz to 503 without touching /healthz: health
// probes stop sending new traffic while in-flight requests (and the
// registry solves they coalesced into) finish. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// apiError carries an HTTP status through the handler return path.
type apiError struct {
	status int
	err    error
}

func (e *apiError) Error() string { return e.err.Error() }

func badRequest(format string, args ...interface{}) error {
	return &apiError{status: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// bodyError classifies a failed body read or decode: 413 when the body
// ran past the limit, 400 (prefixed with what) otherwise.
func bodyError(what string, err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &apiError{status: http.StatusRequestEntityTooLarge, err: fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)}
	}
	return badRequest("%s: %v", what, err)
}

// decodeJSON decodes the (limited) request body into v.
func decodeJSON(r *http.Request, v interface{}) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return bodyError("bad JSON", err)
	}
	return nil
}

// handle registers a counted handler: requests, errors, in-flight and
// latency are tracked per endpoint and reported by /statsz.
func (s *Server) handle(name, pattern string, h func(w http.ResponseWriter, r *http.Request) error) {
	st := &endpointStats{}
	s.endpoints[name] = st
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		st.Requests.Add(1)
		st.InFlight.Add(1)
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		err := h(w, r)
		nanos := time.Since(start).Nanoseconds()
		st.TotalNanos.Add(nanos)
		for {
			max := st.MaxNanos.Load()
			if nanos <= max || st.MaxNanos.CompareAndSwap(max, nanos) {
				break
			}
		}
		st.InFlight.Add(-1)
		if err != nil {
			st.Errors.Add(1)
			status := http.StatusInternalServerError
			var ae *apiError
			if errors.As(err, &ae) {
				status = ae.status
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		}
	})
}

func writeJSON(w http.ResponseWriter, v interface{}) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// GraphInfo is the response of /load and /generate: the id to query by
// plus basic shape info.
type GraphInfo struct {
	Graph string `json:"graph"`
	N     int    `json:"n"`
	M     int    `json:"m"`
}

// register solves g through the registry (coalesced with any
// concurrent load of the same graph) and returns its id. An oracle
// larger than the registry's whole budget was dropped as soon as it was
// solved, so its id could never be queried: that is a 413, not an id.
func (s *Server) register(w http.ResponseWriter, g *graph.Graph) error {
	if err := s.admit(g.N()); err != nil {
		return err
	}
	o, err := s.reg.Get(g)
	if err != nil {
		return badRequest("solve failed: %v", err)
	}
	if size, budget := o.MemoryBytes(), s.reg.Stats().BudgetBytes; budget > 0 && size > budget {
		return &apiError{status: http.StatusRequestEntityTooLarge,
			err: fmt.Errorf("the solved oracle holds %d bytes, the whole cache budget is %d: raise -budget-mb", size, budget)}
	}
	return writeJSON(w, GraphInfo{Graph: oracle.FingerprintOf(g).String(), N: g.N(), M: g.M()})
}

// admit refuses a graph on n vertices before anything n-sized is built
// or solved when its smallest possible oracle is already over the whole
// budget: n(n+1)/2 distances of one bit each — the u1 triangle — before
// any successor table. Every solver allocates n² float64s, and a
// generator n adjacency lists, so this comes first; a store that turns
// out wider than the floor is caught by the check after the solve.
func (s *Server) admit(n int) error {
	budget := s.reg.Stats().BudgetBytes
	if budget <= 0 {
		return nil
	}
	entries := uint64(math.MaxUint64) // n(n+1)/2, saturated
	if hi, lo := bits.Mul64(uint64(n), uint64(n)+1); hi == 0 {
		entries = lo / 2
	}
	if floor := entries/8 + min(entries%8, 1); floor > uint64(budget) {
		return &apiError{status: http.StatusRequestEntityTooLarge,
			err: fmt.Errorf("an oracle on %d vertices holds at least %d one-bit distances, %d bytes; the whole cache budget is %d: raise -budget-mb",
				n, entries, floor, budget)}
	}
	return nil
}

// LoadRequest is the JSON form of /load; the endpoint also accepts the
// plain-text edge-list format of internal/graph (n header + "u v w"
// lines) when the body does not start with '{'.
type LoadRequest struct {
	N     int          `json:"n"`
	Edges [][3]float64 `json:"edges"` // [u, v, w] triples
}

// ParseGraphBody decodes a /load body — JSON {n, edges} or edge-list
// text — into a graph. The router uses it too: computing the graph
// fingerprint locally is what lets it place a load deterministically
// before any backend has seen the graph.
func ParseGraphBody(body []byte) (*graph.Graph, error) {
	trimmed := strings.TrimSpace(string(body))
	if trimmed == "" {
		return nil, fmt.Errorf("empty body: want JSON {n, edges} or edge-list text")
	}
	if strings.HasPrefix(trimmed, "{") {
		var req LoadRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("bad JSON: %v", err)
		}
		if req.N < 0 {
			return nil, fmt.Errorf("negative vertex count %d", req.N)
		}
		g := graph.New(req.N)
		for i, e := range req.Edges {
			u, v := int(e[0]), int(e[1])
			if float64(u) != e[0] || float64(v) != e[1] || u < 0 || u >= req.N || v < 0 || v >= req.N {
				return nil, fmt.Errorf("edge %d: endpoints (%g,%g) outside [0,%d)", i, e[0], e[1], req.N)
			}
			g.AddEdge(u, v, e[2])
		}
		return g, nil
	}
	g, err := graph.Read(strings.NewReader(trimmed))
	if err != nil {
		return nil, fmt.Errorf("bad edge list: %v", err)
	}
	return g, nil
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) error {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return bodyError("reading body", err)
	}
	g, err := ParseGraphBody(body)
	if err != nil {
		return badRequest("%v", err)
	}
	return s.register(w, g)
}

// GenerateRequest builds one of the named workload families of
// internal/graph (grid, grid3d, path, cycle, tree, gnp, rmat, rgg, ...).
type GenerateRequest struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
	Seed int64  `json:"seed"`
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) error {
	var req GenerateRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	if req.N <= 0 {
		return badRequest("generate needs n > 0, got %d", req.N)
	}
	// A generator builds at most the n it is asked for.
	if err := s.admit(req.N); err != nil {
		return err
	}
	g, err := graph.NamedGenerator(req.Kind, req.N, req.Seed)
	if err != nil {
		return badRequest("%v", err)
	}
	return s.register(w, g)
}

// QueryRequest asks for distances (and optionally full paths) for a
// batch of (source, target) pairs on a loaded graph.
type QueryRequest struct {
	Graph string   `json:"graph"`
	Pairs [][2]int `json:"pairs"`
	Paths bool     `json:"paths"`
}

// QueryResponse answers a /query batch, index-aligned with the request
// pairs. Unreachable distances are encoded as -1 (JSON has no Inf).
type QueryResponse struct {
	Dists []float64 `json:"dists"`
	Paths [][]int   `json:"paths,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	var req QueryRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	if len(req.Pairs) == 0 {
		return badRequest("query needs at least one [u, v] pair")
	}
	fp, err := oracle.ParseFingerprint(req.Graph)
	if err != nil {
		return badRequest("%v", err)
	}
	o, ok, err := s.reg.Lookup(fp)
	if !ok {
		return &apiError{status: http.StatusNotFound,
			err: fmt.Errorf("unknown graph %s: load or generate it first", req.Graph)}
	}
	if err != nil {
		return badRequest("solve failed: %v", err)
	}
	dists, err := o.BatchDist(req.Pairs)
	if err != nil {
		return badRequest("%v", err)
	}
	resp := QueryResponse{Dists: make([]float64, len(dists))}
	for i, d := range dists {
		if math.IsInf(d, 1) {
			resp.Dists[i] = -1
		} else {
			resp.Dists[i] = d
		}
	}
	if req.Paths {
		if resp.Paths, err = o.BatchPath(req.Pairs); err != nil {
			return badRequest("%v", err)
		}
	}
	return writeJSON(w, resp)
}

// ReweightRequest changes the weights of existing edges of a loaded
// graph. Edits are [u, v, w] triples like /load's edges; every edge
// must already exist (reweighting never changes the structure). The
// repaired oracle is installed under the edited graph's fingerprint and
// the old fingerprint stops serving.
type ReweightRequest struct {
	Graph string       `json:"graph"`
	Edits [][3]float64 `json:"edits"`
}

// ReweightResponse reports the new fingerprint to query by plus the
// repair statistics.
type ReweightResponse struct {
	Graph string `json:"graph"`
	N     int    `json:"n"`
	M     int    `json:"m"`

	Edits          int     `json:"edits"`
	Decreases      int     `json:"decreases"`
	Increases      int     `json:"increases"`
	ResetPairs     int     `json:"reset_pairs"`
	AffectedRows   int     `json:"affected_rows"`
	TotalPairs     int     `json:"total_pairs"`
	DamageFraction float64 `json:"damage_fraction"`
	FellBack       bool    `json:"fell_back"`
}

func (s *Server) handleReweight(w http.ResponseWriter, r *http.Request) error {
	var req ReweightRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	if len(req.Edits) == 0 {
		return badRequest("reweight needs at least one [u, v, w] edit")
	}
	fp, err := oracle.ParseFingerprint(req.Graph)
	if err != nil {
		return badRequest("%v", err)
	}
	edits := make([]apsp.EdgeEdit, len(req.Edits))
	for i, e := range req.Edits {
		u, v := int(e[0]), int(e[1])
		if float64(u) != e[0] || float64(v) != e[1] {
			return badRequest("edit %d: endpoints (%g,%g) are not integers", i, e[0], e[1])
		}
		edits[i] = apsp.EdgeEdit{U: u, V: v, W: e[2]}
	}
	newFp, o, st, err := s.reg.Reweight(fp, edits)
	if errors.Is(err, oracle.ErrUnknownGraph) {
		return &apiError{status: http.StatusNotFound,
			err: fmt.Errorf("unknown graph %s: load or generate it first", req.Graph)}
	}
	if err != nil {
		return badRequest("reweight failed: %v", err)
	}
	g := o.Graph()
	return writeJSON(w, ReweightResponse{
		Graph:          newFp.String(),
		N:              g.N(),
		M:              g.M(),
		Edits:          st.Edits,
		Decreases:      st.Decreases,
		Increases:      st.Increases,
		ResetPairs:     st.ResetPairs,
		AffectedRows:   st.AffectedRows,
		TotalPairs:     st.TotalPairs,
		DamageFraction: st.DamageFraction,
		FellBack:       st.FellBack,
	})
}

// StatszResponse is the /statsz report: registry counters plus the
// per-endpoint traffic counters. The fleet router fans this out across
// its backends and sums the registry sections with oracle.Stats.Add.
type StatszResponse struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Registry      oracle.Stats                `json:"registry"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) error {
	resp := StatszResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Registry:      s.reg.Stats(),
		Endpoints:     make(map[string]EndpointSnapshot, len(s.endpoints)),
	}
	for name, ep := range s.endpoints {
		resp.Endpoints[name] = ep.snapshot()
	}
	return writeJSON(w, resp)
}

// handleHealthz is the liveness probe: 200 for the whole process
// lifetime, draining included. Use /readyz to decide routability.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	return writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 until BeginDrain, 503 from
// then on. The fleet router probes this endpoint, so a draining backend
// stops receiving new queries while it finishes in-flight work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) error {
	if s.draining.Load() {
		return &apiError{status: http.StatusServiceUnavailable, err: errors.New("draining")}
	}
	return writeJSON(w, map[string]string{"status": "ready"})
}
