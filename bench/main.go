// Command bench is the repository's benchmark: seven workloads that
// follow a graph from "graph bytes arrive" to "query bytes leave", each
// measured end to end over loopback HTTP and, in a second traced pass,
// layer by layer from outside the program. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one set of inputs and one traffic shape.
type workload struct {
	name     string
	family   string // grid, gnp or cycle
	n, p     int    // vertices; simulated machine size of the sparse solver
	ingest   bool   // the operation is a load; otherwise a query batch
	resident int    // graphs kept loaded while queries run
	paths    bool   // queries ask for paths, not only distances
	writer   bool   // one of the two clients posts /reweight instead
	fleet    bool   // clients talk to a fleet router over two backends
}

var workloads = []workload{
	{name: "ingest-grid", family: "grid", n: 1024, p: 49, ingest: true, resident: 1},
	{name: "ingest-gnp", family: "gnp", n: 768, p: 49, ingest: true, resident: 1},
	{name: "ingest-cycle-p961", family: "cycle", n: 800, p: 961, ingest: true, resident: 1},
	{name: "serve-dist", family: "grid", n: 1024, p: 49, resident: 4},
	{name: "serve-path", family: "grid", n: 1024, p: 49, resident: 4, paths: true},
	{name: "serve-reweight", family: "grid", n: 1024, p: 49, resident: 4, writer: true},
	{name: "fleet-dist", family: "grid", n: 1024, p: 49, resident: 4, fleet: true},
}

// metricDef declares a gated end-to-end metric: its unit, direction and
// the share of the parent's median by which it may worsen.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what every workload reports with tracing off and what a
// later change is held to: the set-up time and the three exact counts.
// The timings a caller waits for (README.md, "End-to-end metrics") are
// measured and printed by the same pass under their own names, ungated:
// on this host not one of them repeats within a tenth.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"comm_words", "words", "lower", 0},
	{"comm_msgs", "count", "lower", 0},
	{"oracle_bytes_per_pair", "bytes", "lower", 0},
}

// setups is how many times an end-to-end pass sets up; setup_s is their
// median.
const setups = 3

type config struct {
	seed    int64
	seconds float64
	quick   bool
}

func (c config) shrink(w workload) workload {
	if c.quick {
		w.n, w.p = 64, 9
	}
	return w
}

// pass is the outcome of one pass over one workload.
type pass struct {
	Workload string   `json:"workload"`
	Trace    bool     `json:"trace"`
	Metrics  []metric `json:"metrics"`         // what BENCHMARK.json names
	Extra    []metric `json:"extra,omitempty"` // the end-to-end timings, never gated
	Notes    []string `json:"notes,omitempty"` // reconciliation warnings
	Seconds  float64  `json:"wall_seconds"`    // wall-clock of the whole pass
	tally
}

// endToEndPass measures a workload with tracing off.
func endToEndPass(w workload, cfg config) (*pass, error) {
	began := now()
	p := &pass{Workload: w.name}
	w = cfg.shrink(w)
	dur := seconds(cfg.seconds)
	var setupS []float64
	var ie *ingestEnv
	var se *serveEnv
	closeEnv := func() {}
	n := setups
	if cfg.quick {
		n = 1
	}
	for i := 0; i < n; i++ {
		closeEnv() // only the last set-up is measured on
		start := now()
		var err error
		if w.ingest {
			ie, err = setupIngest(w, cfg.seed, dur)
		} else {
			toggled := 0
			if w.writer {
				toggled = w.resident
			}
			se, err = setupServe(w, residentSeed, cfg.seed, toggled)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if w.ingest {
			closeEnv = ie.close
		} else {
			closeEnv = se.close
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer closeEnv()
	var counts []metric
	var err error
	if w.ingest {
		r := ie.rounds[0]
		counts, err = modelCounts(r.in, w.p, ie.rowPairs, r.wantRows)
	} else {
		r := se.graphs[0]
		counts, err = modelCounts(r.in[0], w.p, r.pool[0].pairs[:1024], r.pool[0].want[:1024])
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	p.add(nil)
	p.Metrics = append([]metric{timing("setup_s", "s", setupS)}, counts...)
	runtime.GC()
	if w.ingest {
		s := runIngest(ie, dur)
		p.merge(s.tally)
		if len(s.warmLoad) == 0 || len(s.coldLoad) == 0 {
			return nil, fmt.Errorf("%s: no load succeeded: %s", w.name, p.FirstFail)
		}
		p.Extra = []metric{
			timing("solve_p50_ms", "ms", s.solve),
			timing("load_p50_ms", "ms", s.warmLoad),
			timing("load_cold_p50_ms", "ms", s.coldLoad),
			timing("load_to_path_p50_ms", "ms", s.warmPath),
		}
	} else {
		s := runServe(se.st.url, se.graphs, w.paths, w.writer, cfg.seed, dur/10, dur)
		p.merge(s.tally)
		lat := s.all()
		if len(lat) == 0 || (w.writer && len(s.reweight) == 0) {
			return nil, fmt.Errorf("%s: no operation succeeded: %s", w.name, p.FirstFail)
		}
		p.Extra = []metric{
			timing("query_p50_us", "us", lat),
			percentile("query_p90_us", "us", lat, 0.90),
			pairsPerSecond("query_pairs_per_s", s.query),
		}
		if w.writer {
			p.Extra = append(p.Extra, timing("reweight_p50_ms", "ms", s.reweight))
		}
	}
	p.Seconds = time.Since(began).Seconds()
	return p, nil
}

// host describes where a result was measured.
type host struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds_per_pass"`
	Quick      bool    `json:"quick"`
}

func hostBlock(cfg config) host {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return host{runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit, cfg.seed, cfg.seconds, cfg.quick}
}

// report is the typed result written to out/result.json and, in one line,
// to the end of standard output. This change defines the benchmark and
// claims no gain, so claim is always null.
type report struct {
	Host   host    `json:"host"`
	Passes []*pass `json:"passes"`
	Claim  *string `json:"claim"`
}

// outDir is bench/out whether the command runs from the repository root
// or from bench/ itself.
func outDir() string {
	if _, err := os.Stat("bench"); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func writeJSON(name string, v interface{}) error {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir(), name), append(data, '\n'), 0o644)
}

func printPass(p *pass) {
	for _, m := range append(append([]metric(nil), p.Metrics...), p.Extra...) {
		line := fmt.Sprintf("%s %s %.6g %s", p.Workload, m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g", m.N, m.Q1, m.Q3)
		}
		fmt.Println(line)
	}
	fmt.Printf("%s %s %.6g ratio\n", p.Workload, map[bool]string{false: "fail_ratio", true: "trace.fail_ratio"}[p.Trace], float64(p.Failed)/float64(max(p.Attempted, 1)))
	for _, n := range p.Notes {
		fmt.Printf("%s note: %s\n", p.Workload, n)
	}
	if p.FirstFail != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed, first: %s\n", p.Workload, p.Failed, p.Attempted, p.FirstFail)
	}
}

// driverLine is the one-object result the benchmark contract asks for.
func driverLine(p *pass) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{p.Failed == 0, max(p.Attempted, 1), p.Failed, map[string]value{}}
	for _, m := range p.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only a NaN or Inf value can do this, and that is a bug
	}
	return string(b)
}

func find(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var cfg config
	name := flag.String("workload", "", "run one workload (default: all seven)")
	trace := flag.Int("trace", -1, "0: end-to-end pass only, 1: traced per-layer pass only (default: both)")
	aa := flag.Bool("aa", false, "run the end-to-end pass twice and compare the two against the bounds")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "measured seconds per pass")
	flag.BoolVar(&cfg.quick, "quick", false, "n=64, p=9: a smoke run, not a measurement")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, ok := find(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	if *aa {
		os.Exit(selfAgreement(selected, cfg))
	}
	rep := report{Host: hostBlock(cfg)}
	failed := false
	for _, tr := range []int{0, 1} {
		if *trace >= 0 && *trace != tr {
			continue
		}
		for _, w := range selected {
			var p *pass
			var err error
			if tr == 0 {
				p, err = endToEndPass(w, cfg)
			} else {
				p, err = tracedPass(w, cfg)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			printPass(p)
			rep.Passes = append(rep.Passes, p)
			failed = failed || p.Failed > 0
		}
	}
	if err := writeJSON("result.json", rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *name != "" && *trace >= 0 {
		// The driver's form: one workload, one pass, one object.
		fmt.Println(driverLine(rep.Passes[0]))
		return
	}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	if failed {
		os.Exit(1)
	}
}

// selfAgreement runs the end-to-end pass of every workload twice, the
// second time in reverse workload order, and prints for every metric of
// every workload how far the two runs differ, the gated ones next to their
// bound. Each pass is a process of its own, as the driver runs it: in one
// process the later passes inherit a grown heap and come out up to a fifth
// faster. It returns the exit code: 1 if a gated difference exceeds its
// bound.
func selfAgreement(selected []workload, cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// values of one run: workload -> metric -> value, and the metric names
	// in the order printed.
	runs := [2]map[string]map[string]float64{{}, {}}
	order := map[string][]string{}
	for r := 0; r < 2; r++ {
		for i := range selected {
			w := selected[i]
			if r == 1 {
				w = selected[len(selected)-1-i]
			}
			cmd := exec.Command(self, "-workload", w.name, "-trace", "0", "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds), fmt.Sprintf("-quick=%v", cfg.quick))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct{ Correct bool }
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s: no correct result: %s\n", w.name, lines[len(lines)-1])
				return 1
			}
			vals := map[string]float64{}
			var names []string
			for _, line := range lines[:len(lines)-1] {
				var name string
				var v float64
				if n, _ := fmt.Sscanf(line, w.name+" %s %g", &name, &v); n == 2 {
					vals[name] = v
					names = append(names, name)
				}
			}
			runs[r][w.name], order[w.name] = vals, names
		}
	}
	bounds := map[string]metricDef{}
	for _, def := range endToEnd {
		bounds[def.name] = def
	}
	code := 0
	fmt.Println("workload metric run1 run2 differ_by bound")
	for _, w := range selected {
		for _, name := range order[w.name] {
			x, y := runs[0][w.name][name], runs[1][w.name][name]
			differ := 0.0
			if x != y {
				differ = math.Abs(x-y) / min(x, y) // the worse of the two taken as the child
			}
			def, gated := bounds[name]
			switch {
			case !gated:
				fmt.Printf("%s %s %.6g %.6g %.3f none ungated\n", w.name, name, x, y, differ)
			case differ > def.bound:
				code = 1
				fmt.Printf("%s %s %.6g %.6g %.3f %.2f EXCEEDS\n", w.name, name, x, y, differ, def.bound)
			default:
				fmt.Printf("%s %s %.6g %.6g %.3f %.2f ok\n", w.name, name, x, y, differ, def.bound)
			}
		}
	}
	return code
}
