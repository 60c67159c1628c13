package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

func now() time.Time                  { return time.Now() }
func msSince(t time.Time) float64     { return float64(time.Since(t).Nanoseconds()) / 1e6 }
func usSince(t time.Time) float64     { return float64(time.Since(t).Nanoseconds()) / 1e3 }
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// tally counts operations and keeps the first failure for the report.
type tally struct {
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	FirstFail string `json:"first_failure,omitempty"`
}

func (t *tally) add(err error) {
	t.Attempted++
	if err != nil {
		t.Failed++
		if t.FirstFail == "" {
			t.FirstFail = err.Error()
		}
	}
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	if t.FirstFail == "" {
		t.FirstFail = o.FirstFail
	}
}

// ingestSamples are the latencies of one ingest loop, in ms. Warm loads
// bring new weights to a planned structure, cold loads meet a fresh
// registry and plan cache.
type ingestSamples struct {
	solve              []float64 // the library caller: warm-plan Solve, distances only
	warmLoad, warmPath []float64 // to the 200 of /load; to the first path answer
	coldLoad, coldPath []float64
	tally
}

// run solves the next graph through the library, then loads the same
// graph over HTTP, and files the times.
func (s *ingestSamples) run(e *ingestEnv, cold bool) {
	solveMs, _, err := e.solve()
	s.add(err)
	if err == nil {
		s.solve = append(s.solve, solveMs)
	}
	loadMs, totalMs, err := e.op(cold)
	s.add(err)
	switch {
	case err != nil:
	case cold:
		s.coldLoad, s.coldPath = append(s.coldLoad, loadMs), append(s.coldPath, totalMs)
	default:
		s.warmLoad, s.warmPath = append(s.warmLoad, loadMs), append(s.warmPath, totalMs)
	}
}

// runIngest is the sequential closed loop of one client: every second
// load is cold, until dur has passed or the prepared bodies run out.
func runIngest(e *ingestEnv, dur time.Duration) ingestSamples {
	var s ingestSamples
	start := now()
	for i := 0; e.left() > 0 && (time.Since(start) < dur || i < 2); i++ {
		s.run(e, i%2 == 1)
	}
	if e.st.reg().Len() == 0 {
		s.add(fmt.Errorf("registry is empty after the loop"))
	}
	return s
}

// serveSamples are the latencies of one serve loop.
type serveSamples struct {
	query    [][]float64 // µs, per reading client, in completion order
	reweight []float64   // ms
	tally
}

// all returns the query latencies of every client.
func (s *serveSamples) all() []float64 {
	var out []float64
	for _, seq := range s.query {
		out = append(out, seq...)
	}
	return out
}

// runServe drives the closed loop against the resident graphs for warm +
// dur and keeps the samples of the last dur. Two clients each wait for
// their reply before sending the next question; with a writer, one of
// the two posts /reweight round-robin instead and the reader keeps to the
// graphs the writer does not hold. Every reply is checked after its
// clock stopped.
func runServe(url string, graphs []*resident, paths, writer bool, seed int64, warm, dur time.Duration) serveSamples {
	readers := 2
	if writer {
		readers = 1
	}
	out := serveSamples{query: make([][]float64, readers)}
	begin := now().Add(warm)
	end := begin.Add(dur)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(url)
			defer cl.close()
			rng := rand.New(rand.NewSource(seed + int64(c) + 1))
			var lat []float64
			var t tally
			var q question
			for {
				r := graphs[rng.Intn(len(graphs))]
				for !r.mu.TryRLock() {
					r = graphs[rng.Intn(len(graphs))]
				}
				q.draw(r.pool[r.ver], batchPairs, rng)
				start := now()
				if !start.Before(end) {
					r.mu.RUnlock()
					break
				}
				status, reply, err := cl.post("/query", q.body)
				us := usSince(start)
				if err == nil {
					err = checkAnswer(r.in[r.ver], q.pairs, q.want, paths, status, reply)
				}
				r.mu.RUnlock()
				t.add(err)
				if err == nil && !start.Before(begin) {
					lat = append(lat, us)
				}
			}
			mu.Lock()
			out.query[c] = lat
			out.merge(t)
			mu.Unlock()
		}(c)
	}
	if writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(url)
			defer cl.close()
			var lat []float64
			var t tally
			for i := 0; ; i++ {
				r := graphs[i%len(graphs)]
				r.mu.Lock()
				start := now()
				if !start.Before(end) {
					r.mu.Unlock()
					break
				}
				ms, err := r.toggle(cl)
				r.mu.Unlock()
				t.add(err)
				if err == nil && !start.Before(begin) {
					lat = append(lat, ms)
				}
			}
			mu.Lock()
			out.reweight = lat
			out.merge(t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// toggle posts the edits that move the graph to its other version and
// checks that the program now serves it under the expected fingerprint.
// The caller holds r.mu for writing.
func (r *resident) toggle(cl *client) (ms float64, err error) {
	start := now()
	status, reply, err := cl.post("/reweight", r.edits[r.ver])
	ms = msSince(start)
	if err != nil {
		return ms, err
	}
	if status != http.StatusOK {
		return ms, fmt.Errorf("/reweight: status %d: %s", status, reply)
	}
	fp, err := graphID(reply)
	if err != nil {
		return ms, err
	}
	r.ver = 1 - r.ver
	if fp != r.fp[r.ver] {
		return ms, fmt.Errorf("/reweight gave graph %s, want %s", fp, r.fp[r.ver])
	}
	return ms, nil
}
