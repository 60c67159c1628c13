package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparseapsp"
	"sparseapsp/internal/comm"
	"sparseapsp/internal/fleet"
	"sparseapsp/internal/oracle"
	"sparseapsp/internal/semiring"
	"sparseapsp/internal/server"
)

// The program is always run with its production defaults: only the
// machine size and the nested-dissection seed are set, every other field
// of sparseapsp.Options stays zero.
const (
	solveSeed = 42
	hotBudget = 64 << 20 // registry budget: a loop of loads evicts instead of accumulating oracles
)

func solveOptions(p int) sparseapsp.Options { return sparseapsp.Options{P: p, Seed: solveSeed} }

func newRegistry(p int) *oracle.Registry {
	return sparseapsp.NewOracleRegistry(solveOptions(p), hotBudget)
}

// swapHandler serves from whichever backend server is current, so a cold
// load can be given a fresh registry and plan cache without a new
// listener or a new connection.
type swapHandler struct {
	p   int
	cur atomic.Pointer[backend]
}

type backend struct {
	reg *oracle.Registry
	srv *server.Server
}

func (h *swapHandler) fresh() *backend {
	reg := newRegistry(h.p)
	b := &backend{reg: reg, srv: server.New(reg)}
	h.cur.Store(b)
	return b
}

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.cur.Load().srv.ServeHTTP(w, r)
}

// stack is what stands behind the URL the clients talk to: one backend
// over loopback HTTP, or a fleet router over two of them.
type stack struct {
	url      string
	backends []*swapHandler
	urls     []string // backend URLs
	router   *fleet.Router
	closers  []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// reg returns the registry of the first backend.
func (s *stack) reg() *oracle.Registry { return s.backends[0].cur.Load().reg }

func startStack(p int, viaRouter bool) (*stack, error) {
	s := &stack{}
	nb := 1
	if viaRouter {
		nb = 2
	}
	for i := 0; i < nb; i++ {
		h := &swapHandler{p: p}
		h.fresh()
		ts := httptest.NewServer(h)
		s.backends = append(s.backends, h)
		s.urls = append(s.urls, ts.URL)
		s.closers = append(s.closers, ts.Close)
	}
	s.url = s.urls[0]
	if viaRouter {
		url, err := s.addRouter(fleet.Config{Backends: s.urls})
		if err != nil {
			s.close()
			return nil, err
		}
		s.url = url
	}
	return s, nil
}

// addRouter puts one more router in front of the stack's backends and
// returns its URL.
func (s *stack) addRouter(cfg fleet.Config) (string, error) {
	rt, err := fleet.NewRouter(cfg)
	if err != nil {
		return "", err
	}
	ts := httptest.NewServer(rt)
	s.closers = append(s.closers, rt.Close, ts.Close)
	if s.router == nil {
		s.router = rt
	}
	return ts.URL, nil
}

// client is one API caller with one keep-alive connection. It writes the
// request and reads the reply on the calling goroutine, so a round trip
// costs the two hand-offs the server needs and none of the load
// generator's own.
type client struct {
	host string
	conn net.Conn
	br   *bufio.Reader
	buf  bytes.Buffer
	head []byte
}

func newClient(url string) *client {
	return &client{host: strings.TrimPrefix(url, "http://")}
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// post sends body and reads the whole reply; the returned bytes are valid
// until the next post.
func (c *client) post(path string, body []byte) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.host)
		if err != nil {
			return 0, nil, err
		}
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 64<<10)
	}
	c.head = append(c.head[:0], "POST "...)
	c.head = append(c.head, path...)
	c.head = append(c.head, " HTTP/1.1\r\nHost: "...)
	c.head = append(c.head, c.host...)
	c.head = append(c.head, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.head = strconv.AppendInt(c.head, int64(len(body)), 10)
	c.head = append(c.head, "\r\n\r\n"...)
	bufs := net.Buffers{c.head, body}
	if _, err := bufs.WriteTo(c.conn); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, c.buf.Bytes(), err
}

// postOK is post for set-up steps, where anything but a 200 is fatal.
func (c *client) postOK(path string, body []byte) ([]byte, error) {
	status, data, err := c.post(path, body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(data))
	}
	return data, nil
}

// graphID reads the fingerprint out of a /load or /reweight reply.
func graphID(reply []byte) (string, error) {
	var info struct {
		Graph string `json:"graph"`
	}
	if err := json.Unmarshal(reply, &info); err != nil || info.Graph == "" {
		return "", fmt.Errorf("reply carries no graph id: %s", bytes.TrimSpace(reply))
	}
	return info.Graph, nil
}

// answer is a decoded /query reply.
type answer struct {
	Dists []float64 `json:"dists"`
	Paths [][]int   `json:"paths"`
}

// checkAnswer is the gate on one /query reply.
func checkAnswer(in *input, pairs [][2]int, want []float64, paths bool, status int, reply []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(reply))
	}
	var a answer
	if err := json.Unmarshal(reply, &a); err != nil {
		return err
	}
	if err := checkDists(a.Dists, want); err != nil {
		return err
	}
	if paths {
		return checkPaths(in, pairs, want, a.Paths)
	}
	return nil
}

// checkMatrix compares entries of a distance matrix with expected wire
// distances (-1 for unreachable).
func checkMatrix(d *semiring.Matrix, pairs [][2]int, want []float64) error {
	got := make([]float64, len(pairs))
	for i, p := range pairs {
		if got[i] = d.At(p[0], p[1]); math.IsInf(got[i], 1) {
			got[i] = -1
		}
	}
	return checkDists(got, want)
}

// modelCounts solves one generated graph through the library and returns
// what the paper's cost model charges for it and what its oracle holds:
// the end-to-end metrics that are exact counts. The graph's weights come
// from the seed; the counts depend on its structure alone, so they repeat
// from seed to seed and any change in them is a change of the algorithm.
func modelCounts(in *input, p int, pairs [][2]int, want []float64) ([]metric, error) {
	g, err := server.ParseGraphBody(in.body)
	if err != nil {
		return nil, err
	}
	pr, err := sparseapsp.SolveWithPathsOptions(g, solveOptions(p))
	if err != nil {
		return nil, err
	}
	if err := checkMatrix(pr.Dist, pairs, want); err != nil {
		return nil, fmt.Errorf("library solve: %w", err)
	}
	return []metric{
		count("comm_words", "words", float64(pr.Report.Critical.Bandwidth)),
		count("comm_msgs", "count", float64(pr.Report.Critical.Latency)),
		count("oracle_bytes_per_pair", "bytes", float64(oracle.FromResult(pr, nil).MemoryBytes())/(float64(in.n)*float64(in.n))),
	}, nil
}

// ---------------------------------------------------------------- ingest

// verifyRows is how many full distance rows are checked after every load.
const verifyRows = 8

// ingestEnv is the set-up product of an ingest workload: a server whose
// registry has already planned the structure, and a supply of bodies with
// fresh weights, each with the answers bench expects.
type ingestEnv struct {
	w      workload
	st     *stack
	cl     *client
	lib    sparseapsp.Options // the library caller's: a plan cache of its own
	rounds []*ingestRound
	next   int
	ensure func(unused int) // prepares more bodies until that many are unused

	pathPairs [][2]int // the first paths:true question asked of every load
	pathTail  []byte   // its body after the graph id
	rowPairs  [][2]int // verifyRows full rows, asked after the clock stopped
	rowTail   []byte
}

type ingestRound struct {
	in       *input
	g        *sparseapsp.Graph // in.body parsed, for the library caller
	wantPath []float64
	wantRows []float64
}

func setupIngest(w workload, seed int64, dur time.Duration) (*ingestEnv, error) {
	rng := rand.New(rand.NewSource(seed))
	es := structure(w.family, w.n)
	e := &ingestEnv{w: w}
	sources := rng.Perm(w.n)[:verifyRows]
	for _, s := range sources {
		for v := 0; v < w.n; v++ {
			e.rowPairs = append(e.rowPairs, [2]int{s, v})
		}
	}
	for i := 0; i < batchPairs; i++ {
		e.pathPairs = append(e.pathPairs, [2]int{sources[rng.Intn(verifyRows)], rng.Intn(w.n)})
	}
	e.pathTail = queryBody("", e.pathPairs, true)[len(`{"graph":"`):]
	e.rowTail = queryBody("", e.rowPairs, false)[len(`{"graph":"`):]
	prepare := func() {
		in := weigh(w.n, es, rng)
		g, err := server.ParseGraphBody(in.body)
		if err != nil {
			panic(err) // bench rendered the body itself
		}
		rc := newRowCache(in)
		e.rounds = append(e.rounds, &ingestRound{in: in, g: g, wantPath: rc.expect(e.pathPairs), wantRows: rc.expect(e.rowPairs)})
	}
	e.ensure = func(unused int) {
		for e.left() < unused {
			prepare()
		}
	}
	e.ensure(1)
	st, err := startStack(w.p, false)
	if err != nil {
		return nil, err
	}
	e.st, e.cl = st, newClient(st.url)
	e.lib = solveOptions(w.p)
	e.lib.Plans = sparseapsp.NewPlanCache()
	// Plan the structure, in the library caller's plan cache and in the
	// registry's: the first timed solve and load then bring new weights to
	// a structure both have seen. These two meet empty plan caches, so no
	// later pair is slower, and their time bounds how many bodies dur can
	// consume.
	start := now()
	if _, _, err := e.solve(); err != nil {
		e.close()
		return nil, fmt.Errorf("first solve: %w", err)
	}
	if _, _, err := e.op(false); err != nil {
		e.close()
		return nil, fmt.Errorf("pre-load: %w", err)
	}
	e.ensure(int(1.5*float64(dur)/float64(time.Since(start))) + 4)
	return e, nil
}

func (e *ingestEnv) close() {
	e.cl.close()
	e.st.close()
}

// left reports how many unused bodies remain.
func (e *ingestEnv) left() int { return len(e.rounds) - e.next }

// solve is the library caller's operation: the next round's graph through
// sparseapsp.Solve, distances only, then eight rows checked. The round is
// left for the load that follows.
func (e *ingestEnv) solve() (ms float64, rep comm.Report, err error) {
	r := e.rounds[e.next]
	start := now()
	res, err := sparseapsp.Solve(r.g, e.lib)
	ms = msSince(start)
	if err != nil {
		return 0, rep, err
	}
	return ms, res.Report, checkMatrix(res.Dist, e.rowPairs, r.wantRows)
}

// op is one ingest operation: edge-list bytes are posted to /load and the
// caller then asks its first paths:true question of the new graph. cold
// gives the server a fresh registry and plan cache first, so the
// structure is new to it. It returns the time to the 200 of /load and the
// time to the last byte of the path answer; err reports a failed check.
func (e *ingestEnv) op(cold bool) (loadMs, totalMs float64, err error) {
	r := e.rounds[e.next]
	e.next++
	if cold {
		e.st.backends[0].fresh()
	}
	start := now()
	status, reply, err := e.cl.post("/load", r.in.body)
	loadMs = msSince(start)
	if err != nil {
		return 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("/load: status %d: %s", status, bytes.TrimSpace(reply))
	}
	fp, err := graphID(reply)
	if err != nil {
		return 0, 0, err
	}
	q := append(append(make([]byte, 0, len(fp)+len(e.pathTail)+16), `{"graph":"`...), fp...)
	status, reply, err = e.cl.post("/query", append(q, e.pathTail...))
	totalMs = msSince(start)
	if err != nil {
		return 0, 0, err
	}
	// The clock has stopped: check the path answer, then eight full rows.
	if err := checkAnswer(r.in, e.pathPairs, r.wantPath, true, status, reply); err != nil {
		return loadMs, totalMs, fmt.Errorf("first path answer: %w", err)
	}
	q = append(append(q[:0], `{"graph":"`...), fp...)
	status, reply, err = e.cl.post("/query", append(q, e.rowTail...))
	if err != nil {
		return 0, 0, err
	}
	if err := checkAnswer(r.in, e.rowPairs, r.wantRows, false, status, reply); err != nil {
		return loadMs, totalMs, fmt.Errorf("row check: %w", err)
	}
	return loadMs, totalMs, nil
}

// ----------------------------------------------------------------- serve

// poolPairs is how many prepared (pair, expected distance) entries each
// resident graph has. A question is 64 of them drawn at random, so whole
// questions practically never repeat while hot pairs do: what reaches the
// router's pair cache is the skew of the pairs, not the size of a pool of
// questions.
const poolPairs = 32768

// pairPool holds the prepared pairs of one version of one resident graph
// with the answers bench expects, and each pair's JSON text back to back
// so that a question is assembled by copying bytes.
type pairPool struct {
	pairs [][2]int
	want  []float64
	text  []byte  // "[u,v]" of every pair
	at    []int32 // text of pair i is text[at[i]:at[i+1]]
	head  []byte  // the body up to the pairs, with the graph's fingerprint
	tail  []byte  // the body after the pairs
}

func newPairPool(in *input, fp string, pairs [][2]int, paths bool) *pairPool {
	p := &pairPool{pairs: pairs, want: newRowCache(in).expect(pairs), at: make([]int32, 1, len(pairs)+1)}
	for _, pr := range pairs {
		p.text = append(p.text, '[')
		p.text = strconv.AppendInt(p.text, int64(pr[0]), 10)
		p.text = append(p.text, ',')
		p.text = strconv.AppendInt(p.text, int64(pr[1]), 10)
		p.text = append(p.text, ']')
		p.at = append(p.at, int32(len(p.text)))
	}
	whole := queryBody(fp, nil, paths)
	cut := bytes.Index(whole, []byte("[]")) + 1
	p.head, p.tail = whole[:cut], whole[cut:]
	return p
}

// question is one /query a client is about to send, with what bench
// expects back. Its slices are the client's own and are overwritten by
// the next draw.
type question struct {
	body  []byte
	pairs [][2]int
	want  []float64
}

// draw assembles a question of k random pairs of the pool.
func (q *question) draw(p *pairPool, k int, rng *rand.Rand) {
	q.body = append(q.body[:0], p.head...)
	q.pairs, q.want = q.pairs[:0], q.want[:0]
	for i := 0; i < k; i++ {
		j := rng.Intn(len(p.pairs))
		if i > 0 {
			q.body = append(q.body, ',')
		}
		q.body = append(q.body, p.text[p.at[j]:p.at[j+1]]...)
		q.pairs = append(q.pairs, p.pairs[j])
		q.want = append(q.want, p.want[j])
	}
	q.body = append(q.body, p.tail...)
}

// resident is one graph kept loaded while clients query it. A graph that
// is reweighted during the run alternates between two versions; mu keeps
// a reader off the graph while its fingerprint changes.
type resident struct {
	mu    sync.RWMutex
	ver   int
	in    [2]*input
	fp    [2]string
	pool  [2]*pairPool
	edits [2][]byte   // the /reweight body that moves version v to the other one
	moves [2][][3]int // the same edits as [u, v, w] triples
}

// serveEnv is the set-up product of a serve workload.
type serveEnv struct {
	w      workload
	st     *stack
	graphs []*resident
}

func (e *serveEnv) close() { e.st.close() }

// residentSeed draws the weights and the edits of the resident graphs in
// the end-to-end pass, whatever the run's seed: how long a path is to
// walk, and above all what a repair costs (from a fifth of a re-solve to
// all of it, depending on which edges are edited), is decided by them. The
// run's seed draws the questions. The traced pass draws both from the
// run's seed, so repairs of other graphs and edits are still checked.
const residentSeed = 1

// setupServe generates the resident graphs (weights and edits from
// graphSeed), the pairs clients ask about (from seed) and the expected
// answers, starts the servers and loads the graphs. toggled residents
// also get a second version and the edits that alternate it.
func setupServe(w workload, graphSeed, seed int64, toggled int) (*serveEnv, error) {
	rng := rand.New(rand.NewSource(graphSeed))
	ask := rand.New(rand.NewSource(seed))
	es := structure(w.family, w.n)
	e := &serveEnv{w: w}
	type draft struct {
		pairs       [][2]int
		there, back [][3]int
	}
	drafts := make([]draft, w.resident)
	for g := 0; g < w.resident; g++ {
		r := &resident{}
		r.in[0] = weigh(w.n, es, rng)
		d := &drafts[g]
		d.pairs = drawPairs(w.n, poolPairs, ask)
		if g < toggled {
			d.there, d.back = toggleEdits(r.in[0], es, rng)
			r.in[1] = r.in[0].reweighted(d.there)
			r.moves = [2][][3]int{d.there, d.back}
		}
		e.graphs = append(e.graphs, r)
	}
	st, err := startStack(w.p, w.fleet)
	if err != nil {
		return nil, err
	}
	e.st = st
	cl := newClient(st.url)
	defer cl.close()
	fail := func(err error) (*serveEnv, error) {
		e.close()
		return nil, err
	}
	for g, r := range e.graphs {
		reply, err := cl.postOK("/load", r.in[0].body)
		if err != nil {
			return fail(err)
		}
		if r.fp[0], err = graphID(reply); err != nil {
			return fail(err)
		}
		if r.in[1] != nil {
			// Walk the toggle once to learn the second fingerprint and to
			// see that undoing the edits leads back to the first.
			d := drafts[g]
			if reply, err = cl.postOK("/reweight", reweightBody(r.fp[0], d.there)); err != nil {
				return fail(err)
			}
			if r.fp[1], err = graphID(reply); err != nil {
				return fail(err)
			}
			r.edits[0] = reweightBody(r.fp[0], d.there)
			r.edits[1] = reweightBody(r.fp[1], d.back)
			if reply, err = cl.postOK("/reweight", r.edits[1]); err != nil {
				return fail(err)
			}
			if fp, _ := graphID(reply); fp != r.fp[0] {
				return fail(fmt.Errorf("undoing the edits gave graph %s, want %s", fp, r.fp[0]))
			}
		}
		for v := 0; v < 2 && r.in[v] != nil; v++ {
			r.pool[v] = newPairPool(r.in[v], r.fp[v], drafts[g].pairs, w.paths)
		}
	}
	return e, nil
}
