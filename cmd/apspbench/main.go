// Command apspbench regenerates the reproduction experiments of
// DESIGN.md: the Table 2 comparisons (memory, bandwidth, latency), the
// Section 5.5 reduction factors, the Section 5.4.4 preprocessing cost,
// the sparsity crossover, the operation-count checks and the Figure 1
// reordering demo.
//
// Every table is a model count of the simulated machine and no column
// is wall-clock, so the output is a pure function of the flags: the
// stdout of "-exp all" is committed as docs/experiments-output.txt and
// checked byte for byte.
//
// Usage:
//
//	apspbench -exp all
//	apspbench -exp table2-latency -sides 16,24,32 -ps 9,49,225
//	apspbench -exp comm,fig1 -json tables.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/harness"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, or a comma-separated list of "+strings.Join(experiments, ", "))
		sides   = flag.String("sides", "16,24,32", "comma-separated 2D grid sides (n = side²)")
		ps      = flag.String("ps", "9,49,225,961", "comma-separated machine sizes (sparse algorithm needs (2^h-1)²)")
		seed    = flag.Int64("seed", 42, "nested-dissection seed")
		cyc     = flag.Int("cyclic", 4, "DC-APSP block-cyclic factor")
		xn      = flag.Int("crossover-n", 576, "crossover experiment graph size")
		xp      = flag.Int("crossover-p", 49, "crossover experiment machine size")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut = flag.String("json", "", "also write all experiment tables as machine-readable JSON to this file")
		wire    = flag.String("wire", "pruned", "sparse-solver payload encoding: pruned (structure-aware demand keep-lists, the default) or dense (ablation baseline)")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	wf, err := apsp.ParseWireFormat(*wire)
	if err != nil {
		fatal(err)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// Label dataflow node execution with op_kind/phase/level so the
		// profile attributes kernel time per op class.
		apsp.EnableProfileLabels(true)
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}()
	}

	cfg := harness.Config{
		GridSides:    parseInts(*sides),
		Ps:           parseInts(*ps),
		Seed:         *seed,
		CyclicFactor: *cyc,
		Wire:         wf,
	}

	names, needSuite, err := resolveExperiments(*exp)
	if err != nil {
		fatal(err)
	}

	var suite *harness.Suite
	if needSuite {
		fmt.Fprintf(os.Stderr, "running sweep: sides=%v ps=%v ...\n", cfg.GridSides, cfg.Ps)
		var err error
		suite, err = harness.NewSuite(cfg)
		if err != nil {
			fatal(err)
		}
	}

	var collected []*harness.Table
	show := func(name string, t *harness.Table, err error) {
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		collected = append(collected, t)
		if *csv {
			fmt.Printf("# %s: %s\n", t.ID, t.Title)
			if err := t.WriteCSV(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
			return
		}
		t.Fprint(os.Stdout)
	}

	run := func(name string) {
		switch name {
		case "table2-memory":
			show(name, suite.Table2Memory(), nil)
		case "table2-bandwidth":
			show(name, suite.Table2Bandwidth(), nil)
		case "table2-latency":
			show(name, suite.Table2Latency(), nil)
			t, err := suite.CriticalChains()
			show(name, t, err)
		case "factors":
			show(name, suite.ReductionFactors(), nil)
		case "lower":
			show(name, suite.LowerBounds(), nil)
		case "sepcost":
			t, err := harness.SeparatorCost(cfg)
			show(name, t, err)
		case "crossover":
			t, err := harness.Crossover(cfg, *xn, *xp)
			show(name, t, err)
		case "comm":
			t, err := harness.CommBreakdown(cfg, *xn, *xp)
			show(name, t, err)
		case "opcount":
			t, err := harness.OperationCounts(cfg)
			show(name, t, err)
		case "balance":
			side := 1
			for (side+1)*(side+1) <= *xn {
				side++
			}
			t, err := harness.LoadBalance(cfg, side, *xp)
			show(name, t, err)
		case "weak":
			t, err := harness.WeakScaling(cfg)
			show(name, t, err)
		case "strong":
			side := 1
			for (side+1)*(side+1) <= *xn {
				side++
			}
			t, err := harness.StrongScaling(cfg, side)
			show(name, t, err)
		case "perlevel":
			side := 1
			for (side+1)*(side+1) <= *xn {
				side++
			}
			t, err := harness.PerLevel(cfg, side, *xp)
			show(name, t, err)
		case "fig1":
			t, err := harness.Figure1(*seed)
			show(name, t, err)
		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
	}

	for _, name := range names {
		run(name)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := harness.WriteJSON(f, collected); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d experiment tables to %s\n", len(collected), *jsonOut)
	}
}

// experiments lists every -exp name in the order "all" runs them; the
// first suiteExperiments of them read the shared sweep of
// harness.NewSuite.
var experiments = []string{"table2-memory", "table2-bandwidth", "table2-latency", "factors", "lower",
	"sepcost", "crossover", "comm", "opcount", "perlevel",
	"balance", "weak", "strong", "fig1"}

const suiteExperiments = 5

// resolveExperiments expands the -exp value — "all" or a
// comma-separated list — into the experiments to run, in order, and
// reports whether any of them needs the suite. An unknown name is an
// error naming the valid ones, before anything runs.
func resolveExperiments(exp string) (names []string, needSuite bool, err error) {
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(name)
		switch name {
		case "":
		case "all":
			names = append(names, experiments...)
			needSuite = true
		default:
			i := slices.Index(experiments, name)
			if i < 0 {
				return nil, false, fmt.Errorf("unknown experiment %q (valid: all, %s)", name, strings.Join(experiments, ", "))
			}
			names = append(names, name)
			needSuite = needSuite || i < suiteExperiments
		}
	}
	return names, needSuite, nil
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			fatal(fmt.Errorf("bad integer %q", part))
		}
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apspbench:", err)
	os.Exit(1)
}
