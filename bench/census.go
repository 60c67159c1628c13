package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"sparseapsp"
	"sparseapsp/internal/apsp"
	"sparseapsp/internal/comm"
	"sparseapsp/internal/fleet"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/oracle"
	"sparseapsp/internal/partition"
	"sparseapsp/internal/semiring"
	"sparseapsp/internal/server"
)

// The traced pass. It drives the workload's own inputs through every
// layer of the program from outside, stage by stage in the order the
// program performs them, and records a span per call. Every workload
// reports every layer, measured on that workload's graphs and questions
// (the driver asks every workload for every per-layer metric), but spends
// most of the pass on the layers its own traffic exercises: an ingest
// workload on the load pipeline, a serve workload on queries, repairs and
// the router hop. The other side runs its minimum of iterations.
//
// The e2e.* numbers here come from untraced loops inside this pass and
// exist to reconcile the stages with what a caller sees. They are never
// gated.

type census struct {
	w   workload
	cfg config
	tr  *tracer
	p   *pass

	// One solved input of the workload's family, kept for the parts that
	// need a plan, a layout or a result to work on.
	g    *graph.Graph
	plan *apsp.Plan
	ly   *apsp.Layout
	pr   *apsp.PathResult

	loadP50, coldP50 float64 // ms, from the untraced loop

	// How far the ingest-side and the serve-side parts stretch their share
	// of the pass's seconds.
	ingestX, serveX float64
}

func (c *census) emit(ms ...metric) { c.p.Metrics = append(c.p.Metrics, ms...) }

func (c *census) share(f float64) time.Duration { return seconds(c.cfg.seconds * f) }

// spanMs is the median duration of the spans called name, as a metric.
func (c *census) spanMs(metricName, spanName string) metric {
	return timing(metricName, "ms", c.tr.ms(spanName))
}

func tracedPass(w workload, cfg config) (*pass, error) {
	began := now()
	c := &census{w: cfg.shrink(w), cfg: cfg, tr: newTracer(), p: &pass{Workload: w.name, Trace: true}, ingestX: 1.5, serveX: 0.4}
	if !w.ingest {
		c.ingestX, c.serveX = 0.3, 1.7
	}
	for _, part := range []func() error{c.ingest, c.kernels, c.codecs, c.baselines, c.serve} {
		if err := part(); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
	}
	if err := writeJSON("trace-"+w.name+".json", c.tr.finish()); err != nil {
		return nil, err
	}
	c.p.Seconds = time.Since(began).Seconds()
	return c.p, nil
}

// checkResult gates a solved result against a round's expectations: the
// sampled rows bit for bit and the round's paths walked.
func (e *ingestEnv) checkResult(r *ingestRound, pr *apsp.PathResult) error {
	if err := checkMatrix(pr.Dist, e.rowPairs, r.wantRows); err != nil {
		return err
	}
	paths := make([][]int, len(e.pathPairs))
	for i, p := range e.pathPairs {
		paths[i] = pr.Path(p[0], p[1])
	}
	return checkPaths(r.in, e.pathPairs, r.wantPath, paths)
}

// -------------------------------------------------------------- ingest

func (c *census) ingest() error {
	w := c.w
	e, err := setupIngest(w, c.cfg.seed, c.share(0.45*c.ingestX))
	if err != nil {
		return err
	}
	defer e.close()
	runtime.GC()

	// What a caller sees, untraced, and the same load stage by stage, in
	// turns: both kinds of load then meet the same heap and the same host.
	h, err := apsp.HeightForP(w.p)
	if err != nil {
		return err
	}
	var s ingestSamples
	start := now()
	for i := 0; i < 2 || time.Since(start) < c.share(0.32*c.ingestX); i++ {
		e.ensure(4)
		s.run(e, true)
		s.run(e, false)
		for _, cold := range []bool{true, false} {
			r := e.rounds[e.next]
			e.next++
			if err := c.traceLoad(e, r, cold, h); err != nil {
				return err
			}
		}
	}
	c.p.merge(s.tally)
	if len(s.warmLoad) == 0 || len(s.coldLoad) == 0 {
		return fmt.Errorf("no load succeeded: %s", s.FirstFail)
	}
	load, cold := timing("e2e.load_p50_ms", "ms", s.warmLoad), timing("e2e.load_cold_p50_ms", "ms", s.coldLoad)
	c.loadP50, c.coldP50 = load.Value, cold.Value
	c.emit(load, cold, timing("e2e.load_to_path_p50_ms", "ms", s.warmPath))
	st := e.st.reg().Stats()
	c.emit(count("oracle.plan_hit_ratio", "ratio", float64(st.PlanHits)/float64(max(st.PlanHits+st.PlanBuilds, 1))))

	// The paper's cost model, from one more library solve.
	e.ensure(1)
	_, rep, err := e.solve()
	if err != nil {
		return err
	}
	c.emit(timing("e2e.solve_p50_ms", "ms", s.solve))
	r4 := rep.WordsByClass[comm.SendR4Panel] + rep.WordsByClass[comm.SendR4Reduce] + rep.WordsByClass[comm.SendR4Seq]
	c.emit(
		count("comm.flops_critical", "count", float64(rep.Critical.Flops)),
		count("comm.words_total", "words", float64(rep.TotalWords)),
		count("comm.msgs_total", "count", float64(rep.TotalMessages)),
		count("comm.max_mem_words", "words", float64(rep.MaxMemory)),
		count("comm.words_r2", "words", float64(rep.WordsByClass[comm.SendR2])),
		count("comm.words_r3", "words", float64(rep.WordsByClass[comm.SendR3])),
		count("comm.words_r4", "words", float64(r4)),
		count("comm.words_trans", "words", float64(rep.WordsByClass[comm.SendTrans])),
	)

	var w1 []float64
	for i := 0; i < 3; i++ {
		t := now()
		if _, err := c.plan.ExecuteOpts(c.ly, apsp.ExecOpts{Workers: 1}); err != nil {
			return err
		}
		w1 = append(w1, msSince(t))
	}
	return c.ingestMetrics(w1)
}

// traceLoad performs one load the way handleLoad, Registry.Get,
// SolveWithPathsOptions and SparseAPSPWith would, one span per call. The
// spans named after those four functions only group their children. A
// cold load builds the plan; a warm one reuses the last built.
func (c *census) traceLoad(e *ingestEnv, r *ingestRound, cold bool, h int) error {
	t, p := c.tr, c.w.p
	var err error
	fail := func(call string) error { return fmt.Errorf("%s: %w", call, err) }
	t.newOp()
	name := "load"
	if cold {
		name = "load.cold"
	}
	root := t.begin(name)
	var g *graph.Graph
	parse := t.call("server.ParseGraphBody", func() { g, err = server.ParseGraphBody(r.in.body) })
	if err != nil {
		return fail(parse.Name)
	}
	parse.count("body_bytes", float64(len(r.in.body)))
	get := t.begin("oracle.Registry.Get")
	solve := t.begin("sparseapsp.SolveWithPathsOptions")
	sparse := t.begin("apsp.SparseAPSPWith")
	t.call("apsp.StructureFingerprintOf", func() { apsp.StructureFingerprintOf(g, p, solveSeed, 0, 0) })
	var ly *apsp.Layout
	var newLayout *span
	if cold {
		newLayout = t.call("apsp.NewLayout", func() { ly, err = apsp.NewLayout(g, h, solveSeed) })
		if err != nil {
			return fail(newLayout.Name)
		}
		build := t.call("apsp.BuildPlan", func() { c.plan, err = apsp.BuildPlan(ly, p, 0, 0) })
		if err != nil {
			return fail(build.Name)
		}
		build.count("plan_ops", float64(c.plan.OpCount()))
		// Lowering to the dataflow graph happens on a plan's first
		// execute; asking for the node count does it now, so the execute
		// span below is the same work warm and cold.
		var nodes int
		t.call("apsp.Plan.lower", func() { nodes = c.plan.DataflowNodes(0) }).count("dataflow_nodes", float64(nodes))
	} else {
		t.call("apsp.Plan.LayoutFor", func() { ly = c.plan.LayoutFor(g) })
	}
	var res *apsp.DistResult
	execute := t.call("apsp.Plan.ExecuteOpts", func() { res, err = c.plan.ExecuteOpts(ly, apsp.ExecOpts{}) })
	if err != nil {
		return fail(execute.Name)
	}
	execute.count("critical_words", float64(res.Report.Critical.Bandwidth))
	t.end(sparse)
	var pr *apsp.PathResult
	succ := t.call("apsp.SuccessorsFromDist", func() { pr, err = apsp.SuccessorsFromDist(g, res.Dist) })
	if err != nil {
		return fail(succ.Name)
	}
	t.end(solve)
	// Install: Registry.Get around a solver that returns at once.
	reg := oracle.NewRegistry(oracle.Config{Solve: func(*graph.Graph) (*apsp.PathResult, error) { return pr, nil }})
	install := t.call("oracle.install", func() { _, err = reg.Get(g) })
	if err != nil {
		return fail(install.Name)
	}
	t.end(get)
	t.call("oracle.FingerprintOf", func() { oracle.FingerprintOf(g) }) // the graph id in the reply
	t.end(root)

	// Probes: sub-calls repeated outside the load's interval.
	t.probe(install, "oracle.FingerprintOf", func() { oracle.FingerprintOf(g) })
	if cold {
		var nd *partition.Result
		s := t.probe(newLayout, "partition.NestedDissection", func() { nd, err = partition.NestedDissection(g, h, solveSeed) })
		if err != nil {
			return fail(s.Name)
		}
		s.count("separator_size", float64(nd.SeparatorSize()))
	}
	var blocks [][]*semiring.Matrix
	var release func()
	t.probe(execute, "apsp.Layout.BlocksPooled", func() { blocks, release = ly.BlocksPooled() })
	t.probe(execute, "apsp.Layout.AssembleOriginal", func() { ly.AssembleOriginal(blocks) })
	release()

	c.g, c.ly, c.pr = g, ly, pr
	c.p.add(e.checkResult(r, pr))
	return nil
}

// ingestMetrics turns the load spans into layer metrics and reconciles
// their sum with the untraced load.
func (c *census) ingestMetrics(w1 []float64) error {
	t := c.tr
	execute := c.spanMs("apsp.execute_ms", "apsp.Plan.ExecuteOpts")
	install := c.spanMs("oracle.install_us", "oracle.install")
	install.Value, install.Q1, install.Q3, install.Unit = install.Value*1e3, install.Q1*1e3, install.Q3*1e3, "us"
	workers := min(semiring.DefaultPool.Size(), c.w.p)
	layoutFor := c.spanMs("apsp.layoutfor_ms", "apsp.Plan.LayoutFor")
	everyLoad := []metric{
		c.spanMs("graph.parse_ms", "server.ParseGraphBody"),
		c.spanMs("oracle.fingerprint_ms", "oracle.FingerprintOf"), // the graph id in the reply
		c.spanMs("apsp.structfp_ms", "apsp.StructureFingerprintOf"),
		execute,
		c.spanMs("apsp.successors_ms", "apsp.SuccessorsFromDist"),
	}
	symbolic := []metric{
		c.spanMs("apsp.newlayout_ms", "apsp.NewLayout"), // nested dissection included
		c.spanMs("apsp.buildplan_ms", "apsp.BuildPlan"),
		c.spanMs("apsp.lower_ms", "apsp.Plan.lower"),
	}
	c.emit(everyLoad...)
	c.emit(symbolic...)
	c.emit(
		c.spanMs("partition.nd_ms", "partition.NestedDissection"),
		layoutFor,
		install,
		count("graph.body_bytes", "bytes", t.lastCount("server.ParseGraphBody", "body_bytes")),
		count("partition.separator_size", "count", t.lastCount("partition.NestedDissection", "separator_size")),
		count("apsp.plan_ops", "count", t.lastCount("apsp.BuildPlan", "plan_ops")),
		count("apsp.dataflow_nodes", "count", t.lastCount("apsp.Plan.lower", "dataflow_nodes")),
		c.spanMs("apsp.blocks_ms", "apsp.Layout.BlocksPooled"),
		c.spanMs("apsp.assemble_ms", "apsp.Layout.AssembleOriginal"),
		timing("apsp.execute_w1_ms", "ms", w1),
		count("apsp.exec_workers", "count", float64(workers)),
		count("apsp.exec_parallel_eff", "ratio", median(w1)/(float64(workers)*execute.Value)),
	)

	// Reconciliation: the stages a load runs, summed, against the load a
	// caller timed. A warm load lays out for a cached plan; a cold one
	// makes a new layout, builds the plan and lowers it instead.
	everyLoad = append(everyLoad, count("oracle.install_ms", "ms", install.Value/1e3))
	c.reconcile("e2e.load_unaccounted_frac", "load", c.loadP50, append(everyLoad[:len(everyLoad):len(everyLoad)], layoutFor))
	c.reconcile("e2e.load_cold_unaccounted_frac", "cold load", c.coldP50, append(everyLoad[:len(everyLoad):len(everyLoad)], symbolic...))
	c.emit(count("e2e.trace_overhead_frac", "ratio", median(t.ms("load"))/c.loadP50-1))
	return nil
}

// reconcile emits (whole − Σ stages) ÷ whole and notes when it leaves
// ±0.15, naming the largest stage, so the stage table can be trusted to
// add up to the number a caller sees.
func (c *census) reconcile(name, what string, whole float64, stages []metric) {
	sum, largest := 0.0, stages[0]
	for _, s := range stages {
		sum += s.Value
		if s.Value > largest.Value {
			largest = s
		}
	}
	frac := (whole - sum) / whole
	c.emit(count(name, "ratio", frac))
	if math.Abs(frac) > 0.15 {
		c.p.Notes = append(c.p.Notes, fmt.Sprintf("WARNING %s = %+.3f: stages sum to %.3g of a %.3g ms %s; largest stage %s = %.3g ms",
			name, frac, sum, whole, what, largest.Name, largest.Value))
	}
}

// ------------------------------------------------------------- kernels

// repeat calls f until it has run for about budget, in at least three
// samples, and returns the time per call in ms. A sample is as many calls
// as take a fifth of a millisecond, so that a call of a few nanoseconds is
// not timed by a clock of the same resolution.
func repeat(budget time.Duration, f func()) []float64 {
	calls := 1
	for ; calls < 1<<20; calls *= 2 {
		t := now()
		for i := 0; i < calls; i++ {
			f()
		}
		if msSince(t) >= 0.2 {
			break
		}
	}
	var out []float64
	start := now()
	for i := 0; i < 3 || time.Since(start) < budget; i++ {
		t := now()
		for i := 0; i < calls; i++ {
			f()
		}
		out = append(out, msSince(t)/float64(calls))
	}
	return out
}

// window copies the s×s window of d at (r0, c0).
func window(d *semiring.Matrix, r0, c0, s int) *semiring.Matrix {
	m := semiring.NewMatrix(s, s)
	for i := 0; i < s; i++ {
		copy(m.V[i*s:(i+1)*s], d.V[(r0+i)*d.Cols+c0:(r0+i)*d.Cols+c0+s])
	}
	return m
}

// kernels times the min-plus kernels and the payload codec on blocks the
// size of the workload's median supernode: dense windows of the solved
// distance matrix for the arithmetic, and the median supernode's initial
// diagonal block (its edges, everything else Inf) for the codec.
func (c *census) kernels() error {
	sizes := append([]int(nil), c.ly.ND.Sizes[1:]...)
	sort.Ints(sizes)
	s := max(min(sizes[len(sizes)/2], c.w.n/2), 1)
	d := c.pr.Dist
	a, b := window(d, 0, c.w.n-s, s), window(d, c.w.n-s, 0, s)
	acc := window(d, 0, 0, s)
	budget := c.share(0.01)
	var ops int64
	mul := repeat(budget, func() { ops = semiring.MulAddInto(acc, a, b) })
	diag := window(d, 0, 0, s)
	var fwOps int64
	fw := repeat(budget, func() { fwOps = semiring.ClassicalFW(diag) })

	blocks := c.ly.Blocks()
	k := 1
	for i := 1; i < len(c.ly.ND.Sizes); i++ {
		if c.ly.ND.Sizes[i] == sizes[len(sizes)/2] {
			k = i
		}
	}
	blk := blocks[k][k]
	words := float64(max(len(blk.V), 1))
	var payload []float64
	pack := repeat(budget, func() { payload = semiring.PackMatrix(blk) })
	unpack := repeat(budget, func() { semiring.UnpackMatrix(payload, blk.Rows, blk.Cols) })
	c.emit(
		count("semiring.block_edge", "count", float64(s)),
		count("semiring.minplus_gops", "Gop/s", float64(ops)/median(mul)/1e6),
		count("semiring.fw_diag_gops", "Gop/s", float64(fwOps)/median(fw)/1e6),
		count("semiring.pack_ns_per_word", "ns", median(pack)*1e6/words),
		count("semiring.unpack_ns_per_word", "ns", median(unpack)*1e6/words),
		count("semiring.pack_ratio", "ratio", float64(len(payload))/words),
	)
	return nil
}

// codecs times the compressed oracle tier and the plan codec on the
// workload's own result and plan. Neither is on the path of the
// end-to-end pass today (no tier budget, no plan directory).
func (c *census) codecs() error {
	pairs := float64(c.w.n) * float64(c.w.n)
	budget := c.share(0.01)
	var blob []byte
	compress := repeat(budget, func() { blob = oracle.CompressDist(c.pr.Dist) })
	var err error
	var back *semiring.Matrix
	decompress := repeat(budget, func() { back, err = oracle.DecompressDist(blob) })
	if err != nil {
		return err
	}
	var wrong error
	if !back.Equal(c.pr.Dist) {
		wrong = fmt.Errorf("DecompressDist(CompressDist(d)) differs from d")
	}
	c.p.add(wrong)
	var enc []byte
	encode := repeat(budget, func() { enc = c.plan.Encode() })
	decode := repeat(budget, func() { _, err = apsp.DecodePlan(enc) })
	if err != nil {
		return err
	}
	c.emit(
		timing("oracle.compress_ms", "ms", compress),
		timing("oracle.decompress_ms", "ms", decompress),
		count("oracle.compressed_bytes_per_pair", "bytes", float64(len(blob))/pairs),
		count("apsp.plan_encode_us", "us", median(encode)*1e3),
		count("apsp.plan_decode_us", "us", median(decode)*1e3),
		count("apsp.plan_bytes", "bytes", float64(len(enc))),
	)
	return nil
}

// baselines runs the single-threaded solvers on the same graph: the
// equal-n comparison for the sparse solver's solve time.
func (c *census) baselines() error {
	for _, b := range []struct {
		name string
		alg  sparseapsp.Algorithm
	}{{"apsp.superfw_ms", sparseapsp.SeqSuperFW}, {"apsp.johnson_ms", sparseapsp.SeqJohnson}} {
		var ms []float64
		for i := 0; i < 3; i++ {
			t := now()
			res, err := sparseapsp.Solve(c.g, sparseapsp.Options{Algorithm: b.alg, Seed: solveSeed})
			ms = append(ms, msSince(t))
			if err != nil {
				return err
			}
			var wrong error
			if !res.Dist.Equal(c.pr.Dist) {
				wrong = fmt.Errorf("%s disagrees with the sparse solver", b.alg)
			}
			c.p.add(wrong)
		}
		c.emit(timing(b.name, "ms", ms))
	}
	return nil
}

// --------------------------------------------------------------- serve

func (c *census) serve() error {
	w := c.w
	toggled := 1
	if w.writer {
		toggled = w.resident
	}
	env, err := setupServe(w, c.cfg.seed, c.cfg.seed, toggled)
	if err != nil {
		return err
	}
	defer env.close()
	runtime.GC()

	// The workload's own traffic, untraced.
	loop := c.share(0.12 * c.serveX)
	s := runServe(env.st.url, env.graphs, w.paths, w.writer, c.cfg.seed, loop/10, loop)
	c.p.merge(s.tally)
	lat := s.all()
	if len(lat) == 0 {
		return fmt.Errorf("no query succeeded: %s", s.FirstFail)
	}
	p50 := timing("e2e.query_p50_us", "us", lat)
	c.emit(p50, percentile("e2e.query_p90_us", "us", lat, 0.90), percentile("e2e.query_p99_us", "us", lat, 0.99),
		tail("e2e.query_tail_us", "us", lat), pairsPerSecond("e2e.query_pairs_per_s", s.query))

	// Reweights a caller posts: under the workload's read traffic when it
	// has a writer, otherwise alone.
	r0 := env.graphs[0]
	reweights := s.reweight
	cl := newClient(env.st.url)
	defer cl.close()
	for i := 0; !w.writer && i < 6; i++ {
		ms, err := r0.toggle(cl)
		c.p.add(err)
		if err == nil {
			reweights = append(reweights, ms)
		}
	}
	if r0.ver == 1 { // the parts below work on version 0
		_, err := r0.toggle(cl)
		c.p.add(err)
	}
	if len(reweights) == 0 {
		return fmt.Errorf("no reweight succeeded: %s", c.p.FirstFail)
	}
	c.emit(timing("e2e.reweight_p50_ms", "ms", reweights))

	handler, err := c.query(env, r0)
	if err != nil {
		return err
	}
	c.emit(count("e2e.transport_us", "us", p50.Value-handler))
	if err := c.repair(r0); err != nil {
		return err
	}
	return c.hop(env, r0)
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// query re-drives /query on one resident graph inside the process: the
// whole handler on a recorder, then the calls handleQuery makes one by
// one. It returns the handler's median in µs.
func (c *census) query(env *serveEnv, r *resident) (handlerUs float64, err error) {
	t := c.tr
	back := env.st.backends[0].cur.Load()
	rng := rand.New(rand.NewSource(c.cfg.seed))
	var req question
	fp, err := oracle.ParseFingerprint(r.fp[0])
	if err != nil {
		return 0, err
	}
	var respBytes int
	budget := c.share(0.03 * c.serveX)
	start := now()
	for i := 0; i < 50 || time.Since(start) < budget; i++ {
		req.draw(r.pool[0], batchPairs, rng)
		hr := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(req.body))
		rec := httptest.NewRecorder()
		t.newOp()
		t.call("server.Server.ServeHTTP", func() { back.srv.ServeHTTP(rec, hr) })
		respBytes = rec.Body.Len()
		c.p.add(checkAnswer(r.in[0], req.pairs, req.want, c.w.paths, rec.Code, rec.Body.Bytes()))

		t.newOp()
		root := t.begin("query")
		var q server.QueryRequest
		t.call("server.QueryRequest.decode", func() { err = json.Unmarshal(req.body, &q) })
		if err != nil {
			return 0, err
		}
		var o *oracle.Oracle
		t.call("oracle.Registry.Lookup", func() { o, _, err = back.reg.Lookup(fp) })
		if err != nil || o == nil {
			return 0, fmt.Errorf("Registry.Lookup(%s): oracle %v, error %v", r.fp[0], o, err)
		}
		resp := server.QueryResponse{}
		t.call("oracle.Oracle.BatchDist", func() { resp.Dists, err = o.BatchDist(q.Pairs) }).count("pairs", float64(len(q.Pairs)))
		if err != nil {
			return 0, err
		}
		if q.Paths {
			t.call("oracle.Oracle.BatchPath", func() { resp.Paths, err = o.BatchPath(q.Pairs) })
		}
		var out []byte
		t.call("server.QueryResponse.encode", func() {
			for i, d := range resp.Dists { // as handleQuery does: JSON has no Inf
				if math.IsInf(d, 1) {
					resp.Dists[i] = -1
				}
			}
			out, err = json.Marshal(resp)
		}).count("bytes", float64(len(out)))
		t.end(root)
		if err != nil {
			return 0, err
		}
		// Probes: the path walk when the workload asks for distances
		// only, and the unbatched Dist loop, for the per-pair figures.
		if !q.Paths {
			t.probe(root, "oracle.Oracle.BatchPath", func() { _, err = o.BatchPath(q.Pairs) })
		}
		t.probe(root, "oracle.Oracle.Dist.loop", func() {
			for _, p := range q.Pairs {
				o.Dist(p[0], p[1])
			}
		})
	}
	us := func(name, span string, per float64) metric { return timing(name, "us", scale(t.ms(span), 1e3/per)) }
	h := us("server.query_handler_us", "server.Server.ServeHTTP", 1)
	c.emit(h,
		us("server.query_decode_us", "server.QueryRequest.decode", 1),
		us("server.query_encode_us", "server.QueryResponse.encode", 1),
		count("server.resp_bytes_per_pair", "bytes", float64(respBytes)/batchPairs),
		us("oracle.lookup_us", "oracle.Registry.Lookup", 1),
		count("oracle.batchdist_ns_per_pair", "ns", median(t.ms("oracle.Oracle.BatchDist"))*1e6/batchPairs),
		count("oracle.dist_ns_per_pair", "ns", median(t.ms("oracle.Oracle.Dist.loop"))*1e6/batchPairs),
		us("oracle.batchpath_us_per_pair", "oracle.Oracle.BatchPath", batchPairs),
	)
	return h.Value, nil
}

// repair times the reweight path below HTTP on one resident graph: the
// repair engine itself, the warm re-solve it competes with, and the
// registry's swap around it.
func (c *census) repair(r *resident) error {
	w := c.w
	g0, err := server.ParseGraphBody(r.in[0].body)
	if err != nil {
		return err
	}
	opts := solveOptions(w.p)
	opts.Plans = sparseapsp.NewPlanCache()
	prev, err := sparseapsp.SolveWithPathsOptions(g0, opts)
	if err != nil {
		return err
	}
	edits := func(v int) []apsp.EdgeEdit {
		out := make([]apsp.EdgeEdit, len(r.moves[v]))
		for i, e := range r.moves[v] {
			out[i] = apsp.EdgeEdit{U: e[0], V: e[1], W: float64(e[2])}
		}
		return out
	}
	sopts := apsp.SparseOptions{Seed: solveSeed, Plans: opts.Plans}
	g := g0
	var repairMs, resolveMs, resetPairs []float64
	fellBack := 0
	const rounds = 6
	for i := 0; i < rounds; i++ {
		v := i % 2
		var next *apsp.PathResult
		var g2 *graph.Graph
		var st apsp.RepairStats
		c.tr.newOp()
		sp := c.tr.call("apsp.RepairWithOptions", func() { next, g2, st, err = apsp.RepairWithOptions(g, prev, edits(v), w.p, sopts, 0) })
		if err != nil {
			return err
		}
		sp.count("reset_pairs", float64(st.ResetPairs))
		repairMs = append(repairMs, sp.ms())
		resetPairs = append(resetPairs, float64(st.ResetPairs))
		if st.FellBack {
			fellBack++
		}
		want := r.pool[1-v]
		c.p.add(checkMatrix(next.Dist, want.pairs[:1024], want.want[:1024]))
		t := now()
		if _, err := sparseapsp.Solve(g2, opts); err != nil {
			return err
		}
		resolveMs = append(resolveMs, msSince(t))
		g, prev = g2, next
	}

	reg := newRegistry(w.p)
	if _, err := reg.Get(g0); err != nil {
		return err
	}
	fp := oracle.FingerprintOf(g0)
	var reweightMs []float64
	for i := 0; i < rounds; i++ {
		c.tr.newOp()
		sp := c.tr.call("oracle.Registry.Reweight", func() { fp, _, _, err = reg.Reweight(fp, edits(i%2)) })
		if err != nil {
			return err
		}
		reweightMs = append(reweightMs, sp.ms())
		var wrong error
		if want := r.fp[(i+1)%2]; fp.String() != want {
			wrong = fmt.Errorf("Registry.Reweight gave graph %s, want %s", fp, want)
		}
		c.p.add(wrong)
	}
	c.emit(
		timing("apsp.repair_ms", "ms", repairMs),
		count("apsp.repair_fallback_ratio", "ratio", float64(fellBack)/rounds),
		count("apsp.repair_reset_pairs", "count", median(resetPairs)),
		timing("apsp.warm_resolve_ms", "ms", resolveMs),
		timing("oracle.reweight_ms", "ms", reweightMs),
	)
	return nil
}

// hop measures what the fleet router adds: the same questions about one
// graph are asked of a backend directly, through the router, and through
// a router without its pair cache. Whichever of the two stacks the
// workload does not already have is started here with that one graph.
func (c *census) hop(env *serveEnv, r0 *resident) error {
	other := c.w
	other.resident, other.writer, other.fleet = 1, false, !c.w.fleet
	cmp, err := setupServe(other, c.cfg.seed, c.cfg.seed, 0)
	if err != nil {
		return err
	}
	defer cmp.close()
	if cmp.graphs[0].fp[0] != r0.fp[0] {
		return fmt.Errorf("the comparison stack loaded graph %s, want %s", cmp.graphs[0].fp[0], r0.fp[0])
	}
	routed, direct := env, cmp
	if !c.w.fleet {
		routed, direct = cmp, env
	}
	uncached, err := routed.st.addRouter(fleet.Config{Backends: routed.st.urls, CachePairs: -1})
	if err != nil {
		return err
	}
	loop := c.share(0.06 * c.serveX)
	p50 := func(url string, g *resident) (float64, error) {
		s := runServe(url, []*resident{g}, c.w.paths, false, c.cfg.seed, loop/10, loop)
		c.p.merge(s.tally)
		lat := s.all()
		if len(lat) == 0 {
			return 0, fmt.Errorf("no query succeeded: %s", s.FirstFail)
		}
		return median(lat), nil
	}
	d, err := p50(direct.st.url, direct.graphs[0])
	if err != nil {
		return err
	}
	viaRouter, err := p50(routed.st.url, routed.graphs[0])
	if err != nil {
		return err
	}
	stats := routed.st.router.Cache().Stats()
	viaUncached, err := p50(uncached, routed.graphs[0])
	if err != nil {
		return err
	}
	cache := routed.st.router.Cache()
	fp, pool := routed.graphs[0].fp[0], routed.graphs[0].pool[0]
	gets := repeat(c.share(0.005), func() {
		for _, p := range pool.pairs[:batchPairs] {
			cache.Get(fp, p[0], p[1])
		}
	})
	c.emit(
		count("fleet.hop_us", "us", viaRouter-d),
		count("fleet.hop_nocache_us", "us", viaUncached-d),
		count("fleet.paircache_hit_rate", "ratio", stats.HitRate()),
		count("fleet.paircache_get_ns", "ns", median(gets)*1e6/batchPairs),
	)
	return nil
}
