package sparseapsp

// The benchmark harness regenerates every table and figure of the
// reproduction (see DESIGN.md §5). Each benchmark runs the experiment
// and reports the headline measured quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the full reproduction sweep. Wall-clock numbers measure the
// *simulation*, not the modelled machine — the modelled costs are the
// latency_msgs / bandwidth_words / mem_words metrics.

import (
	"math/rand"
	"sync"
	"testing"

	"sparseapsp/internal/apsp"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/harness"
	"sparseapsp/internal/partition"
)

var (
	suiteOnce sync.Once
	suiteVal  *harness.Suite
	suiteErr  error
)

// sharedSuite runs the Table 2 sweep once for all Table 2 benchmarks.
func sharedSuite(b *testing.B) *harness.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = harness.NewSuite(harness.DefaultConfig())
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteVal
}

// reportPoint exposes the largest-machine measurement of a suite table
// as benchmark metrics.
func reportLast(b *testing.B, s *harness.Suite) {
	pt := s.Points[len(s.Points)-1]
	b.ReportMetric(float64(pt.Sparse.Critical.Latency), "sparse_latency_msgs")
	b.ReportMetric(float64(pt.Sparse.Critical.Bandwidth), "sparse_bandwidth_words")
	b.ReportMetric(float64(pt.Sparse.MaxMemory), "sparse_mem_words")
	b.ReportMetric(float64(pt.DenseDC.Critical.Latency), "dc_latency_msgs")
	b.ReportMetric(float64(pt.DenseDC.Critical.Bandwidth), "dc_bandwidth_words")
}

// BenchmarkTable2Memory regenerates Table 2 row 1 (E1).
func BenchmarkTable2Memory(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		_ = s.Table2Memory().String()
	}
	b.Log("\n" + s.Table2Memory().String())
	reportLast(b, s)
}

// BenchmarkTable2Bandwidth regenerates Table 2 row 2 (E2).
func BenchmarkTable2Bandwidth(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		_ = s.Table2Bandwidth().String()
	}
	b.Log("\n" + s.Table2Bandwidth().String())
	reportLast(b, s)
}

// BenchmarkTable2Latency regenerates Table 2 row 3 (E3).
func BenchmarkTable2Latency(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		_ = s.Table2Latency().String()
	}
	b.Log("\n" + s.Table2Latency().String())
	reportLast(b, s)
}

// BenchmarkReductionFactors regenerates the Section 5.5 factors (E8).
func BenchmarkReductionFactors(b *testing.B) {
	s := sharedSuite(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = s.ReductionFactors().String()
	}
	b.Log("\n" + out)
}

// BenchmarkLowerBounds regenerates the Section 6 comparison (E10).
func BenchmarkLowerBounds(b *testing.B) {
	s := sharedSuite(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = s.LowerBounds().String()
	}
	b.Log("\n" + out)
}

// BenchmarkSeparatorCost regenerates the Section 5.4.4 check (E9).
func BenchmarkSeparatorCost(b *testing.B) {
	cfg := harness.DefaultConfig()
	var out string
	for i := 0; i < b.N; i++ {
		t, err := harness.SeparatorCost(cfg)
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	b.Log("\n" + out)
}

// BenchmarkCrossover regenerates the sparsity crossover sweep (E11).
func BenchmarkCrossover(b *testing.B) {
	cfg := harness.DefaultConfig()
	var out string
	for i := 0; i < b.N; i++ {
		t, err := harness.Crossover(cfg, 576, 49)
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	b.Log("\n" + out)
}

// BenchmarkSuperFWOps regenerates the operation-count table (E12 +
// Lemma 6.4).
func BenchmarkSuperFWOps(b *testing.B) {
	cfg := harness.DefaultConfig()
	var out string
	for i := 0; i < b.N; i++ {
		t, err := harness.OperationCounts(cfg)
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	b.Log("\n" + out)
}

// BenchmarkFigure1Reordering regenerates the Fig. 1 demo (E4).
func BenchmarkFigure1Reordering(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		t, err := harness.Figure1(1)
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	b.Log("\n" + out)
}

// --- Per-solver wall-clock benchmarks on the standard grid workload ---

func benchGraph(side int) *Graph {
	rng := rand.New(rand.NewSource(11))
	return Grid2D(side, side, RandomWeights(rng, 1, 10))
}

func BenchmarkSparseAPSP(b *testing.B) {
	for _, p := range []int{9, 49, 225} {
		b.Run(benchName("p", p), func(b *testing.B) {
			g := benchGraph(24)
			b.ResetTimer()
			var rep Report
			for i := 0; i < b.N; i++ {
				r, err := apsp.SparseAPSPWith(g, p, apsp.SparseOptions{Seed: 11})
				if err != nil {
					b.Fatal(err)
				}
				rep = r.Report
			}
			b.ReportMetric(float64(rep.Critical.Latency), "latency_msgs")
			b.ReportMetric(float64(rep.Critical.Bandwidth), "bandwidth_words")
			b.ReportMetric(float64(rep.MaxMemory), "mem_words")
		})
	}
}

func BenchmarkDCAPSP(b *testing.B) {
	for _, p := range []int{9, 49, 225} {
		b.Run(benchName("p", p), func(b *testing.B) {
			g := benchGraph(24)
			b.ResetTimer()
			var rep Report
			for i := 0; i < b.N; i++ {
				r, err := apsp.DCAPSP(g, p, 4)
				if err != nil {
					b.Fatal(err)
				}
				rep = r.Report
			}
			b.ReportMetric(float64(rep.Critical.Latency), "latency_msgs")
			b.ReportMetric(float64(rep.Critical.Bandwidth), "bandwidth_words")
		})
	}
}

func BenchmarkDist2DFW(b *testing.B) {
	for _, p := range []int{9, 49, 225} {
		b.Run(benchName("p", p), func(b *testing.B) {
			g := benchGraph(24)
			b.ResetTimer()
			var rep Report
			for i := 0; i < b.N; i++ {
				r, err := apsp.Dist2DFW(g, p)
				if err != nil {
					b.Fatal(err)
				}
				rep = r.Report
			}
			b.ReportMetric(float64(rep.Critical.Latency), "latency_msgs")
			b.ReportMetric(float64(rep.Critical.Bandwidth), "bandwidth_words")
		})
	}
}

func BenchmarkSequentialSolvers(b *testing.B) {
	g := benchGraph(16)
	b.Run("FloydWarshall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apsp.FloydWarshall(g)
		}
	})
	b.Run("Johnson", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := apsp.Johnson(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SuperFW", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := apsp.SuperFW(g, 3, 11); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLayoutAblation sweeps the DC-APSP block-cyclic factor —
// the layout discussion of Section 5.1: larger factors improve balance
// during the recursion but inflate the latency cost.
func BenchmarkLayoutAblation(b *testing.B) {
	g := benchGraph(24)
	for _, cyc := range []int{1, 2, 4, 8} {
		b.Run(benchName("cyc", cyc), func(b *testing.B) {
			var rep Report
			for i := 0; i < b.N; i++ {
				r, err := apsp.DCAPSP(g, 49, cyc)
				if err != nil {
					b.Fatal(err)
				}
				rep = r.Report
			}
			b.ReportMetric(float64(rep.Critical.Latency), "latency_msgs")
			b.ReportMetric(float64(rep.Critical.Bandwidth), "bandwidth_words")
			b.ReportMetric(float64(rep.Critical.Flops), "critical_flops")
		})
	}
}

// BenchmarkNestedDissection measures the sequential preprocessing.
func BenchmarkNestedDissection(b *testing.B) {
	for _, side := range []int{16, 32, 48} {
		b.Run(benchName("side", side), func(b *testing.B) {
			g := benchGraph(side)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := partition.NestedDissection(g, 4, 11); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributedND measures the replayed preprocessing cost.
func BenchmarkDistributedND(b *testing.B) {
	g := benchGraph(32)
	for _, p := range []int{9, 49, 225} {
		b.Run(benchName("p", p), func(b *testing.B) {
			var rep Report
			for i := 0; i < b.N; i++ {
				r, err := partition.DistributedNDCost(g, p, 11)
				if err != nil {
					b.Fatal(err)
				}
				rep = r
			}
			b.ReportMetric(float64(rep.Critical.Latency), "latency_msgs")
			b.ReportMetric(float64(rep.Critical.Bandwidth), "bandwidth_words")
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Graph generator micro-benchmarks ---

func BenchmarkGenerators(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.Run("grid-32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.Grid2D(32, 32, graph.UnitWeights)
		}
	})
	b.Run("gnp-1024", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.RandomGNP(1024, 4.0/1024, graph.UnitWeights, rng)
		}
	})
	b.Run("rmat-10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.RMAT(10, 8, graph.UnitWeights, rng)
		}
	})
}

// BenchmarkR4Ablation compares the paper's one-to-one unit mapping
// (Corollary 5.5) with the Section 5.2.2 "trivial strategy": identical
// results, very different latency.
func BenchmarkR4Ablation(b *testing.B) {
	g := benchGraph(24)
	for _, strat := range []struct {
		name string
		s    apsp.R4Strategy
	}{{"mapped", apsp.R4Mapped}, {"sequential", apsp.R4Sequential}} {
		b.Run(strat.name, func(b *testing.B) {
			var rep Report
			for i := 0; i < b.N; i++ {
				r, err := apsp.SparseAPSPWith(g, 225, apsp.SparseOptions{Seed: 11, R4Strategy: strat.s})
				if err != nil {
					b.Fatal(err)
				}
				rep = r.Report
			}
			b.ReportMetric(float64(rep.Critical.Latency), "latency_msgs")
			b.ReportMetric(float64(rep.Critical.Bandwidth), "bandwidth_words")
		})
	}
}

// BenchmarkPerLevel regenerates the Lemma 5.6/5.8/5.9 per-level
// decomposition (E13).
func BenchmarkPerLevel(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		t, err := harness.PerLevel(harness.DefaultConfig(), 24, 225)
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	b.Log("\n" + out)
}

// BenchmarkDistributedNDReal measures the real distributed partitioner
// (vs BenchmarkDistributedND, the cited-cost replay).
func BenchmarkDistributedNDReal(b *testing.B) {
	g := benchGraph(32)
	for _, tc := range []struct{ p, h int }{{9, 2}, {49, 3}, {225, 4}} {
		b.Run(benchName("p", tc.p), func(b *testing.B) {
			var rep Report
			for i := 0; i < b.N; i++ {
				_, r, err := partition.DistributedND(g, tc.p, tc.h, 11)
				if err != nil {
					b.Fatal(err)
				}
				rep = r
			}
			b.ReportMetric(float64(rep.Critical.Latency), "latency_msgs")
			b.ReportMetric(float64(rep.Critical.Bandwidth), "bandwidth_words")
		})
	}
}
