package main

import (
	"math"
	"sort"
)

// metric is one reported number. Timings carry the sample count and the
// quartiles of the samples behind the reported value; counts leave them
// zero.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// quantile interpolates linearly in a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// percentile reports one quantile of samples (already in the reported
// unit).
func percentile(name, unit string, samples []float64, q float64) metric {
	s := sorted(samples)
	return metric{Name: name, Value: quantile(s, q), Unit: unit, N: len(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// timing reports the median of samples.
func timing(name, unit string, samples []float64) metric { return percentile(name, unit, samples, 0.5) }

// tail reports the highest percentile that still has ten samples beyond
// it: with few samples that is well below p99, and the count says so.
func tail(name, unit string, samples []float64) metric {
	return percentile(name, unit, samples, 1-10/float64(max(len(samples)-1, 10)))
}

func count(name, unit string, v float64) metric { return metric{Name: name, Value: v, Unit: unit} }

// pairsPerSecond is the closed-loop throughput of clients that each wait
// for the reply: clients × pairs per question ÷ mean latency. latencies
// are in µs, one sequence per client.
func pairsPerSecond(name string, perClient [][]float64) metric {
	sum, n := 0.0, 0
	for _, seq := range perClient {
		n += len(seq)
		for _, us := range seq {
			sum += us
		}
	}
	return metric{Name: name, Value: float64(len(perClient)) * batchPairs * 1e6 * float64(n) / sum, Unit: "1/s", N: n}
}
