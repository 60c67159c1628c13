// Command apspd is the distance-oracle query server: it keeps solved
// APSP results behind an HTTP JSON API so the expensive solve is paid
// once per graph and amortized over many point/path queries — the
// precompute-once / query-many shape of road-network workloads.
//
// Endpoints (both modes speak the same wire protocol through one request
// layer, internal/server's API: every body is read whole under a 64 MiB
// cap — 413 past it — and a JSON body must be exactly one value, so a
// malformed request gets the same status and bytes in either mode):
//
//	POST /load      edge-list text or JSON {"n": 9, "edges": [[0,1,2.5], ...]}
//	POST /generate  {"kind": "grid", "n": 1024, "seed": 42}
//	POST /query     {"graph": "<id>", "pairs": [[0, 8], ...], "paths": true}
//	POST /reweight  {"graph": "<id>", "edits": [[0, 1, 3.5], ...]}
//	GET  /statsz    registry + per-endpoint requests, errors, in-flight and latency
//	GET  /healthz   liveness probe (process is up)
//	GET  /readyz    readiness probe (willing to take traffic; 503 while draining)
//
// Modes:
//
//   - serve (default): one process, one oracle registry. /load and
//     /generate solve the graph through the shared registry: concurrent
//     requests for the same graph coalesce into exactly one solve, and
//     solved results are retained LRU under -budget-mb; a graph whose
//     declared vertex count cannot fit the budget is refused with 413
//     before it is built. The returned "graph" id is the content
//     fingerprint to pass to /query.
//   - router: the fleet coordinator. No local solves — graph
//     fingerprints are consistent-hash-sharded across -backends with
//     replication factor -replicas, hot (source, target) pairs are
//     served from an LRU cache without any backend round-trip, and
//     per-backend admission control turns saturation into 429 +
//     Retry-After. Backends are health-probed via /readyz and ejected /
//     re-admitted automatically.
//
// SIGINT/SIGTERM drain before exit, in both modes: /readyz flips to 503
// (so load balancers and the router stop sending work), open connections
// finish, and — in serve mode — in-flight solves coalesced in the
// registry are waited for, not just open sockets.
//
// Usage:
//
//	apspd -addr :8080 -algorithm auto -budget-mb 512
//	apspd -addr :8080 -pprof localhost:6060   # live profiling on a side address
//	apspd -mode router -addr :8080 -backends http://s1:8081,http://s2:8082 -replicas 2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on the default mux; served only when -pprof is set
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sparseapsp"
	"sparseapsp/internal/fleet"
	"sparseapsp/internal/server"
)

func main() {
	var (
		mode  = flag.String("mode", "serve", "serve (single-process oracle) or router (fleet coordinator)")
		addr  = flag.String("addr", ":8080", "listen address")
		drain = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")

		// serve-mode flags
		alg      = flag.String("algorithm", "auto", "APSP solver: auto, sparse2d, dc, 2dfw, fw, superfw, johnson")
		p        = flag.Int("p", 0, "simulated machine size for the distributed solvers (0 = sequential auto)")
		seed     = flag.Int64("seed", 42, "nested-dissection seed")
		budgetMB = flag.Int64("budget-mb", 0, "oracle cache memory budget in MiB (0 = unlimited)")
		planDir  = flag.String("plan-dir", "", "persist symbolic plans to this directory: a restarted process reloads them and serves warm solves with zero symbolic rebuilds (empty = memory-only cache)")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this extra address (e.g. localhost:6060); empty disables profiling")

		// router-mode flags
		backends  = flag.String("backends", "", "router: comma-separated backend base URLs (http://host:port)")
		replicas  = flag.Int("replicas", fleet.DefaultReplicas, "router: replication factor R (capped at the backend count)")
		cachePair = flag.Int("cache-pairs", fleet.DefaultCachePairs, "router: hot-pair cache capacity in (graph, src, dst) entries; negative disables")
		maxInFl   = flag.Int("max-inflight", fleet.DefaultMaxInFlight, "router: admitted in-flight requests per backend before 429")
		probeIv   = flag.Duration("probe-interval", fleet.DefaultProbeInterval, "router: backend /readyz probe period")
	)
	flag.Parse()

	var front *server.API                 // either mode's request layer: the handler and the drain switch
	var quiesce func(ctx context.Context) // wait for work the socket close cannot see
	var banner string

	switch *mode {
	case "serve":
		opts := sparseapsp.Options{
			Algorithm: sparseapsp.Algorithm(*alg),
			P:         *p,
			Seed:      *seed,
		}
		// One solve of a one-edge graph checks the configuration before
		// the port is bound: an unknown algorithm or a machine size its
		// solver refuses exits 2, like a bad flag, instead of serving a
		// 400 to every /load. It runs before the plan cache exists, so
		// nothing is counted or written to -plan-dir.
		if _, err := sparseapsp.Solve(sparseapsp.Path(2, sparseapsp.UnitWeights), opts); err != nil {
			fmt.Fprintln(os.Stderr, "apspd:", err)
			os.Exit(2)
		}
		if *planDir != "" {
			plans, err := sparseapsp.NewPlanCacheAt(*planDir)
			if err != nil {
				fatal(err)
			}
			opts.Plans = plans
		}
		reg := sparseapsp.NewOracleRegistry(opts, *budgetMB<<20)
		front = server.New(reg).API
		// Server.Shutdown only waits for open connections; a solve whose
		// originating client disconnected (or whose waiters coalesced in
		// the registry singleflight) keeps running after the socket
		// closes. Quiesce waits for those too, so a SIGTERM never
		// abandons a half-finished solve mid-flight.
		quiesce = func(ctx context.Context) {
			if err := reg.Quiesce(ctx); err != nil {
				log.Printf("apspd: %d solve(s) still in flight at drain deadline: %v",
					reg.ActiveSolves(), err)
			}
		}
		banner = fmt.Sprintf("serving on %s (algorithm=%s budget=%d MiB plan-dir=%q)",
			*addr, *alg, *budgetMB, *planDir)

	case "router":
		urls := splitBackends(*backends)
		if len(urls) == 0 {
			fatal(errors.New("-mode router needs -backends (comma-separated URLs)"))
		}
		rt, err := fleet.NewRouter(fleet.Config{
			Backends:      urls,
			Replicas:      *replicas,
			CachePairs:    *cachePair,
			MaxInFlight:   *maxInFl,
			ProbeInterval: *probeIv,
		})
		if err != nil {
			fatal(err)
		}
		front = rt.API
		quiesce = func(context.Context) { rt.Close() }
		banner = fmt.Sprintf("serving on %s as %s", *addr, rt)

	default:
		fatal(fmt.Errorf("unknown -mode %q: want serve or router", *mode))
	}

	httpSrv := &http.Server{Addr: *addr, Handler: front}

	if *pprofA != "" {
		// Label dataflow node execution with op_kind/phase/level so CPU
		// profiles taken through this endpoint attribute solver time per
		// op class.
		sparseapsp.EnableProfileLabels(true)
		// The pprof handlers live on the default mux, which the query
		// server never serves — profiling stays off the public address.
		go func() {
			log.Printf("apspd: pprof endpoints on http://%s/debug/pprof/", *pprofA)
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				log.Printf("apspd: pprof server: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("apspd: %s", banner)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("apspd: %v", err)
	case <-ctx.Done():
	}

	// Drain sequence: readiness off first (new traffic stops arriving),
	// then close listeners and wait for open connections, then wait for
	// registry work no socket is attached to.
	log.Printf("apspd: shutting down, draining in-flight requests (up to %s)", *drain)
	front.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("apspd: drain incomplete: %v", err)
	}
	quiesce(shutdownCtx)
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("apspd: %v", err)
	}
	log.Printf("apspd: bye")
}

func splitBackends(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, strings.TrimRight(part, "/"))
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apspd:", err)
	os.Exit(1)
}
