package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"testing"
)

// manifest is the part of BENCHMARK.json the smoke test checks.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// sameNames reports the names present on one side only.
func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	seen := make(map[string]int)
	for _, n := range got {
		seen[n] |= 1
	}
	for _, n := range want {
		seen[n] |= 2
	}
	for n, where := range seen {
		switch where {
		case 1:
			t.Errorf("%s: %q is printed but BENCHMARK.json does not name it", what, n)
		case 2:
			t.Errorf("%s: BENCHMARK.json names %q but it is not printed", what, n)
		}
	}
}

// TestSmoke runs both passes of every workload at n=64, p=9 with no
// timing assertions, and holds the names and units printed against
// BENCHMARK.json in both directions.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	cfg := config{seed: 7, seconds: 0.3, quick: true}

	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range m.Workloads {
		listed = append(listed, w.Name)
	}
	sameNames(t, "workloads", names, listed)

	if len(m.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, bench declares %d", len(m.EndToEnd), len(endToEnd))
	}
	declared := make(map[string]metricDef)
	for _, d := range endToEnd {
		declared[d.name] = d
	}
	for _, e := range m.EndToEnd {
		if d, ok := declared[e.Name]; !ok || d.unit != e.Unit || d.better != e.Better || d.bound != e.Bound {
			t.Errorf("end-to-end metric %+v in BENCHMARK.json, %+v in bench", e, d)
		}
	}
	layerUnit := make(map[string]string)
	var layers []string
	for _, l := range m.PerLayer {
		layerUnit[l.Name] = l.Unit
		layers = append(layers, l.Name)
	}

	for _, w := range workloads {
		for _, run := range []func(workload, config) (*pass, error){endToEndPass, tracedPass} {
			p, err := run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if p.Failed > 0 || p.Attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d operations failed: %s", w.name, p.Trace, p.Failed, p.Attempted, p.FirstFail)
			}
			var printed []string
			for _, mt := range p.Metrics {
				printed = append(printed, mt.Name)
				want := layerUnit[mt.Name]
				if !p.Trace {
					want = declared[mt.Name].unit
				}
				if mt.Unit != want {
					t.Errorf("%s: %s is printed in %q, BENCHMARK.json says %q", w.name, mt.Name, mt.Unit, want)
				}
			}
			if p.Trace {
				sameNames(t, w.name+" per-layer metrics", printed, append([]string(nil), layers...))
			} else {
				var want []string
				for _, d := range endToEnd {
					want = append(want, d.name)
				}
				sameNames(t, w.name+" end-to-end metrics", printed, want)
				if len(p.Extra) == 0 {
					t.Errorf("%s: the end-to-end pass printed none of its ungated timings", w.name)
				}
				for _, mt := range p.Extra {
					if !(mt.Value > 0) || mt.N == 0 {
						t.Errorf("%s: %s = %v over %d samples", w.name, mt.Name, mt.Value, mt.N)
					}
				}
			}
			if line := driverLine(p); !json.Valid([]byte(line)) {
				t.Errorf("%s: driver line is not JSON: %s", w.name, line)
			}
		}
	}
}

// TestGateCountsWrongAnswers feeds the gate one reply with a corrupted
// distance and one with a broken path: both must count as failed
// operations, and the untouched reply must not.
func TestGateCountsWrongAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := weigh(16, structure("grid", 16), rng)
	pairs := [][2]int{{0, 15}, {3, 12}}
	want := newRowCache(in).expect(pairs)

	// A correct reply, built from bench's own Dijkstra tree.
	good := answer{Dists: want}
	for _, p := range pairs {
		good.Paths = append(good.Paths, walk(in, p[0], p[1]))
	}
	reply := func(a answer) []byte {
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var tl tally
	tl.add(checkAnswer(in, pairs, want, true, http.StatusOK, reply(good)))
	if tl.Failed != 0 {
		t.Fatalf("a correct reply was counted as failed: %s", tl.FirstFail)
	}

	corrupted := answer{Dists: append([]float64(nil), want...), Paths: good.Paths}
	corrupted.Dists[1]++
	tl.add(checkAnswer(in, pairs, want, true, http.StatusOK, reply(corrupted)))

	broken := answer{Dists: want, Paths: [][]int{good.Paths[0], {3, 12}}} // 3-12 is no edge of a 4x4 grid
	tl.add(checkAnswer(in, pairs, want, true, http.StatusOK, reply(broken)))

	tl.add(checkAnswer(in, pairs, want, true, http.StatusNotFound, []byte(`{"error":"unknown graph"}`)))
	if tl.Attempted != 4 || tl.Failed != 3 {
		t.Errorf("gate counted %d of %d replies as failed, want 3 of 4", tl.Failed, tl.Attempted)
	}
}

// walk returns a shortest u→v path by descending bench's own distances.
func walk(in *input, u, v int) []int {
	to := dijkstra(in, v)
	path := []int{u}
	for u != v {
		for _, h := range in.adj[u] {
			if h.w+to[h.to] == to[u] {
				u = h.to
				break
			}
		}
		path = append(path, u)
	}
	return path
}
