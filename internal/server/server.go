// Package server is the apspd HTTP front-end over an oracle registry,
// factored out of cmd/apspd so the fleet router, the load-test harness
// and the tests can all spin up real backends in-process. cmd/apspd
// wraps it in a net/http.Server; internal/fleet proxies to it.
//
// The package also owns the wire protocol and the request layer: the
// request/response JSON types of every endpoint, the decoder and checks
// of every JSON request, and API — the counted handler, the body cap and
// the JSON error reply — live here. The router registers its handlers
// through the same API and decoders, so a single definition decides
// what travels between router and backends, and a malformed body gets
// the same status and bytes from either.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
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

// maxBody is the limit API applies; a variable only so the tests can
// shrink it.
var maxBody int64 = MaxBodyBytes

// Error is a request failure with the HTTP status it is answered with.
type Error struct {
	Status int
	Err    error
}

func (e *Error) Error() string { return e.Err.Error() }

// Errorf builds an *Error answered with status.
func Errorf(status int, format string, args ...any) error {
	return &Error{Status: status, Err: fmt.Errorf(format, args...)}
}

func badRequest(format string, args ...any) error {
	return Errorf(http.StatusBadRequest, format, args...)
}

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

// Handler serves one request whose body the layer has already read
// whole. A returned error is answered {"error": ...} with its status.
type Handler func(w http.ResponseWriter, r *http.Request, body []byte) error

// API is the request layer apspd and the fleet router both serve
// through: counted endpoints on one mux, every body read whole under
// the cap, every failure answered {"error": ...} with its status, and
// the drain switch behind /readyz.
//
// Liveness and readiness are split: /healthz answers 200 for the whole
// process lifetime (the probe for "restart me"), while /readyz answers
// 200 only while the front-end wants traffic — it goes 503 the moment
// BeginDrain is called, so a router health-probing /readyz stops
// routing to a draining backend before its listener closes.
type API struct {
	mux       *http.ServeMux
	started   time.Time
	endpoints map[string]*endpointStats
	draining  atomic.Bool
}

// NewAPI returns a layer with no endpoints, ready until BeginDrain.
func NewAPI() *API {
	return &API{mux: http.NewServeMux(), started: time.Now(), endpoints: make(map[string]*endpointStats)}
}

func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// BeginDrain flips /readyz to 503 without touching /healthz: health
// probes stop sending new traffic while in-flight requests (and the
// registry solves they coalesced into) finish. Idempotent.
func (a *API) BeginDrain() { a.draining.Store(true) }

// Handle registers h for pattern as the endpoint name: requests,
// errors, in-flight and latency are counted per endpoint and reported by
// Endpoints. The body is read whole before h runs; one over the cap is
// a 413, never cut short. A 429 carries Retry-After.
func (a *API) Handle(name, pattern string, h Handler) {
	st := &endpointStats{}
	a.endpoints[name] = st
	a.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		st.Requests.Add(1)
		st.InFlight.Add(1)
		start := time.Now()
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			err = Errorf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		case err != nil:
			err = badRequest("reading body: %v", err)
		default:
			err = h(w, r, body)
		}
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
			var e *Error
			if errors.As(err, &e) {
				status = e.Status
			}
			w.Header().Set("Content-Type", "application/json")
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		}
	})
}

// HandleReadyz registers the readiness probe: ready answers it until
// BeginDrain, 503 "draining" from then on.
func (a *API) HandleReadyz(ready Handler) {
	a.Handle("readyz", "GET /readyz", func(w http.ResponseWriter, r *http.Request, body []byte) error {
		if a.draining.Load() {
			return Errorf(http.StatusServiceUnavailable, "draining")
		}
		return ready(w, r, body)
	})
}

// Uptime is the time since NewAPI.
func (a *API) Uptime() time.Duration { return time.Since(a.started) }

// Endpoints snapshots every endpoint's counters, the endpoints section of
// /statsz.
func (a *API) Endpoints() map[string]EndpointSnapshot {
	out := make(map[string]EndpointSnapshot, len(a.endpoints))
	for name, st := range a.endpoints {
		out[name] = st.snapshot()
	}
	return out
}

// WriteJSON answers 200 with v encoded as JSON.
func WriteJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// decode unmarshals a request body that must be exactly one JSON value:
// bytes after it are refused, not ignored.
func decode(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return badRequest("bad JSON: %v", err)
	}
	return nil
}

// Server is the apspd HTTP handler over an oracle registry; its
// ServeHTTP and BeginDrain are the request layer's.
type Server struct {
	*API
	reg    *oracle.Registry
	budget int64 // the registry's MemoryBudget, fixed at NewRegistry; <= 0 = unlimited
}

// New wires the handlers. The registry owns solving and caching; the
// server only parses requests. reg must not be nil; the server reports
// ready as soon as New returns.
func New(reg *oracle.Registry) *Server {
	s := &Server{API: NewAPI(), reg: reg, budget: reg.Stats().BudgetBytes}
	s.Handle("load", "POST /load", s.handleLoad)
	s.Handle("generate", "POST /generate", s.handleGenerate)
	s.Handle("query", "POST /query", s.handleQuery)
	s.Handle("reweight", "POST /reweight", s.handleReweight)
	s.Handle("statsz", "GET /statsz", s.handleStatsz)
	s.Handle("healthz", "GET /healthz", s.handleHealthz)
	s.HandleReadyz(s.handleReadyz)
	return s
}

// GraphInfo is the response of /load and /generate: the id to query by
// plus basic shape info.
type GraphInfo struct {
	Graph string `json:"graph"`
	N     int    `json:"n"`
	M     int    `json:"m"`
}

// register solves g through the registry (coalesced with any
// concurrent load of the same graph) and returns its id. The caller has
// admitted g's vertex count. An oracle larger than the registry's whole
// budget was dropped as soon as it was solved, so its id could never be
// queried: that is a 413, not an id.
func (s *Server) register(w http.ResponseWriter, g *graph.Graph) error {
	o, err := s.reg.Get(g)
	if err != nil {
		return badRequest("solve failed: %v", err)
	}
	if size, budget := o.MemoryBytes(), s.budget; budget > 0 && size > budget {
		return Errorf(http.StatusRequestEntityTooLarge,
			"the solved oracle holds %d bytes, the whole cache budget is %d: raise -budget-mb", size, budget)
	}
	return WriteJSON(w, GraphInfo{Graph: oracle.FingerprintOf(g).String(), N: g.N(), M: g.M()})
}

// admit refuses a graph on n vertices before anything n-sized is built
// or solved when its smallest possible oracle is already over the whole
// budget: n(n+1)/2 distances of one bit each — the u1 triangle — before
// any successor table. Every solver allocates n² float64s, graph.New n
// adjacency lists and a generator as many, so this comes first; a store
// that turns out wider than the floor is caught by the check after the
// solve.
func (s *Server) admit(n int) error {
	budget := s.budget
	if budget <= 0 {
		return nil
	}
	entries := uint64(math.MaxUint64) // n(n+1)/2, saturated
	if hi, lo := bits.Mul64(uint64(n), uint64(n)+1); hi == 0 {
		entries = lo / 2
	}
	if floor := entries/8 + min(entries%8, 1); floor > uint64(budget) {
		return Errorf(http.StatusRequestEntityTooLarge,
			"an oracle on %d vertices holds at least %d one-bit distances, %d bytes; the whole cache budget is %d: raise -budget-mb",
			n, entries, floor, budget)
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
	return parseGraphBody(body, func(int) error { return nil })
}

// parseGraphBody is ParseGraphBody with admit run on the vertex count
// the body declares before anything n-sized is built.
func parseGraphBody(body []byte, admit func(n int) error) (*graph.Graph, error) {
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 {
		return nil, badRequest("empty body: want JSON {n, edges} or edge-list text")
	}
	if trimmed[0] == '{' {
		var req LoadRequest
		if err := decode(body, &req); err != nil {
			return nil, err
		}
		if req.N < 0 {
			return nil, badRequest("negative vertex count %d", req.N)
		}
		if err := admit(req.N); err != nil {
			return nil, err
		}
		b := graph.NewBuilder(req.N, len(req.Edges))
		for i, e := range req.Edges {
			u, v := int(e[0]), int(e[1])
			if float64(u) != e[0] || float64(v) != e[1] || u < 0 || u >= req.N || v < 0 || v >= req.N {
				return nil, badRequest("edge %d: endpoints (%g,%g) outside [0,%d)", i, e[0], e[1], req.N)
			}
			b.Add(u, v, e[2])
		}
		return b.Graph(), nil
	}
	g, err := graph.Parse(trimmed, admit)
	var refused *Error
	if errors.As(err, &refused) {
		return nil, err
	}
	if err != nil {
		return nil, badRequest("bad edge list: %v", err)
	}
	return g, nil
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request, body []byte) error {
	g, err := parseGraphBody(body, s.admit)
	if err != nil {
		return err
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

// DecodeGenerate decodes and checks a /generate body.
func DecodeGenerate(body []byte) (req GenerateRequest, err error) {
	if err = decode(body, &req); err == nil && req.N <= 0 {
		err = badRequest("generate needs n > 0, got %d", req.N)
	}
	return req, err
}

// Build runs the requested generator; an unknown kind is a 400.
func (req GenerateRequest) Build() (*graph.Graph, error) {
	g, err := graph.NamedGenerator(req.Kind, req.N, req.Seed)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return g, nil
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request, body []byte) error {
	req, err := DecodeGenerate(body)
	if err != nil {
		return err
	}
	// A generator builds at most the n it is asked for.
	if err := s.admit(req.N); err != nil {
		return err
	}
	g, err := req.Build()
	if err != nil {
		return err
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

// DecodeQuery decodes and checks a /query body: at least one pair and a
// well-formed graph id, returned parsed. Whether the pairs are in range
// is for the oracle that holds the graph to say.
func DecodeQuery(body []byte) (req QueryRequest, fp oracle.Fingerprint, err error) {
	if err = decode(body, &req); err != nil {
		return req, fp, err
	}
	if len(req.Pairs) == 0 {
		return req, fp, badRequest("query needs at least one [u, v] pair")
	}
	fp, err = parseGraphID(&req.Graph)
	return req, fp, err
}

// parseGraphID parses a request's graph id and rewrites it in the
// canonical lowercase form: hex digits of either case name one graph,
// and the router places and caches by the id string.
func parseGraphID(id *string) (oracle.Fingerprint, error) {
	fp, err := oracle.ParseFingerprint(*id)
	if err != nil {
		return fp, badRequest("%v", err)
	}
	*id = fp.String()
	return fp, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, body []byte) error {
	req, fp, err := DecodeQuery(body)
	if err != nil {
		return err
	}
	o, ok, err := s.reg.Lookup(fp)
	if !ok {
		return Errorf(http.StatusNotFound, "unknown graph %s: load or generate it first", req.Graph)
	}
	if err != nil {
		return badRequest("solve failed: %v", err)
	}
	dists, err := o.BatchDist(req.Pairs)
	if err != nil {
		return badRequest("%v", err)
	}
	for i, d := range dists {
		if math.IsInf(d, 1) {
			dists[i] = -1
		}
	}
	resp := QueryResponse{Dists: dists}
	if req.Paths {
		if resp.Paths, err = o.BatchPath(req.Pairs); err != nil {
			return badRequest("%v", err)
		}
	}
	return WriteJSON(w, resp)
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

// DecodeReweight decodes and checks a /reweight body: at least one edit,
// a well-formed graph id and integer endpoints, returned as the parsed
// id and the edits the registry takes. Whether each edge exists is for
// the oracle that holds the graph to say.
func DecodeReweight(body []byte) (req ReweightRequest, fp oracle.Fingerprint, edits []apsp.EdgeEdit, err error) {
	if err = decode(body, &req); err != nil {
		return req, fp, nil, err
	}
	if len(req.Edits) == 0 {
		return req, fp, nil, badRequest("reweight needs at least one [u, v, w] edit")
	}
	if fp, err = parseGraphID(&req.Graph); err != nil {
		return req, fp, nil, err
	}
	edits = make([]apsp.EdgeEdit, len(req.Edits))
	for i, e := range req.Edits {
		u, v := int(e[0]), int(e[1])
		if float64(u) != e[0] || float64(v) != e[1] {
			return req, fp, nil, badRequest("edit %d: endpoints (%g,%g) are not integers", i, e[0], e[1])
		}
		edits[i] = apsp.EdgeEdit{U: u, V: v, W: e[2]}
	}
	return req, fp, edits, nil
}

func (s *Server) handleReweight(w http.ResponseWriter, r *http.Request, body []byte) error {
	req, fp, edits, err := DecodeReweight(body)
	if err != nil {
		return err
	}
	newFp, o, st, err := s.reg.Reweight(fp, edits)
	if errors.Is(err, oracle.ErrUnknownGraph) {
		return Errorf(http.StatusNotFound, "unknown graph %s: load or generate it first", req.Graph)
	}
	if err != nil {
		return badRequest("reweight failed: %v", err)
	}
	g := o.Graph()
	return WriteJSON(w, ReweightResponse{
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

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request, _ []byte) error {
	return WriteJSON(w, StatszResponse{
		UptimeSeconds: s.Uptime().Seconds(),
		Registry:      s.reg.Stats(),
		Endpoints:     s.Endpoints(),
	})
}

// handleHealthz is the liveness probe: 200 for the whole process
// lifetime, draining included. Use /readyz to decide routability.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, _ []byte) error {
	return WriteJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz answers the readiness probe until BeginDrain. The fleet
// router probes this endpoint, so a draining backend stops receiving
// new queries while it finishes in-flight work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request, _ []byte) error {
	return WriteJSON(w, map[string]string{"status": "ready"})
}
