package comm

import (
	"testing"
	"time"
)

func TestSendRecvDeliversPayload(t *testing.T) {
	m := NewMachine(2)
	err := m.Run(func(c *Ctx) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
				t.Errorf("rank 1 got %v, want [1 2 3]", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatchingIsFIFOPerSourceAndTag(t *testing.T) {
	m := NewMachine(2)
	err := m.Run(func(c *Ctx) {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, []float64{10})
			c.Send(1, 2, []float64{20})
			c.Send(1, 1, []float64{11})
		case 1:
			// Receive out of send order across tags, in order within a tag.
			if got := c.Recv(0, 2); got[0] != 20 {
				t.Errorf("tag 2: got %v, want [20]", got)
			}
			if got := c.Recv(0, 1); got[0] != 10 {
				t.Errorf("tag 1 first: got %v, want [10]", got)
			}
			if got := c.Recv(0, 1); got[0] != 11 {
				t.Errorf("tag 1 second: got %v, want [11]", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A chain of k sequential messages has critical-path latency k (each
// hop's receive extends the chain by one message).
func TestCriticalPathChainLatency(t *testing.T) {
	const p = 8
	m := NewMachine(p)
	err := m.Run(func(c *Ctx) {
		r := c.Rank()
		if r > 0 {
			c.Recv(r-1, 0)
		}
		if r < p-1 {
			c.Send(r+1, 0, []float64{1})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	got := m.CriticalPath().Latency
	if got != p-1 {
		t.Errorf("chain critical latency = %d, want %d", got, p-1)
	}
}

// Messages between disjoint pairs at the same time are counted once
// (assumption 3: independent links).
func TestCriticalPathParallelPairsCountOnce(t *testing.T) {
	const pairs = 16
	m := NewMachine(2 * pairs)
	err := m.Run(func(c *Ctx) {
		r := c.Rank()
		if r%2 == 0 {
			c.Send(r+1, 0, []float64{1, 2})
		} else {
			c.Recv(r-1, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cp := m.CriticalPath()
	if cp.Latency != 1 {
		t.Errorf("parallel pairs critical latency = %d, want 1", cp.Latency)
	}
	if cp.Bandwidth != 2 {
		t.Errorf("parallel pairs critical bandwidth = %d, want 2", cp.Bandwidth)
	}
}

// A single rank sending k messages serializes them (assumption 2).
func TestCriticalPathSenderSerializes(t *testing.T) {
	const p = 9
	m := NewMachine(p)
	err := m.Run(func(c *Ctx) {
		if c.Rank() == 0 {
			for dst := 1; dst < p; dst++ {
				c.Send(dst, 0, []float64{1})
			}
		} else {
			c.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CriticalPath().Latency; got != p-1 {
		t.Errorf("fan-out critical latency = %d, want %d", got, p-1)
	}
}

// A single rank receiving k messages serializes them too.
func TestCriticalPathReceiverSerializes(t *testing.T) {
	const p = 9
	m := NewMachine(p)
	err := m.Run(func(c *Ctx) {
		if c.Rank() == 0 {
			for src := 1; src < p; src++ {
				c.Recv(src, 0)
			}
		} else {
			c.Send(0, 0, []float64{1})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CriticalPath().Latency; got != p-1 {
		t.Errorf("fan-in critical latency = %d, want %d", got, p-1)
	}
}

func TestFlopsPropagateThroughMessages(t *testing.T) {
	m := NewMachine(2)
	err := m.Run(func(c *Ctx) {
		if c.Rank() == 0 {
			c.AddFlops(100)
			c.Send(1, 0, []float64{1})
		} else {
			c.Recv(0, 0)
			c.AddFlops(50)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CriticalPath().Flops; got != 150 {
		t.Errorf("critical flops = %d, want 150 (dependent work adds up)", got)
	}
}

func TestIndependentFlopsDoNotAddUp(t *testing.T) {
	m := NewMachine(4)
	err := m.Run(func(c *Ctx) {
		c.AddFlops(int64(10 * (c.Rank() + 1)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CriticalPath().Flops; got != 40 {
		t.Errorf("critical flops = %d, want 40 (max over independent ranks)", got)
	}
}

func TestMemoryPeakTracking(t *testing.T) {
	m := NewMachine(3)
	err := m.Run(func(c *Ctx) {
		c.SetMemory(int64(100 * (c.Rank() + 1)))
		c.AddMemory(-50)
		c.AddMemory(10)
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if rep.MaxMemory != 300 {
		t.Errorf("max memory = %d, want 300", rep.MaxMemory)
	}
	if rep.PeakWords[0] != 100 {
		t.Errorf("rank 0 peak = %d, want 100", rep.PeakWords[0])
	}
}

func TestRunReportsPanics(t *testing.T) {
	m := NewMachine(1)
	err := m.Run(func(c *Ctx) {
		panic("boom")
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestRunReportsUnreceivedMessages(t *testing.T) {
	m := NewMachine(2)
	err := m.Run(func(c *Ctx) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1})
		}
	})
	if err == nil {
		t.Fatal("expected error for unreceived message")
	}
}

func TestResetClearsState(t *testing.T) {
	m := NewMachine(2)
	if err := m.Run(func(c *Ctx) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2, 3})
		} else {
			c.Recv(0, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	cp := m.CriticalPath()
	if cp.Latency != 0 || cp.Bandwidth != 0 || cp.Flops != 0 {
		t.Errorf("after reset critical path = %v, want zero", cp)
	}
}

// TestResetClearsWatchCounters is the regression test for the Reset
// bug where the taken/blocked watch counters survived a reset: the
// watchdog samples those counters to detect progress, so stale values
// from a previous run skew its deadlock verdicts on the next one.
func TestResetClearsWatchCounters(t *testing.T) {
	m := NewMachine(2)
	if err := m.Run(func(c *Ctx) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2, 3})
		} else {
			c.Recv(0, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.ws.taken.Load(); got == 0 {
		t.Fatal("test program should have taken at least one message")
	}
	m.Reset()
	if got := m.ws.taken.Load(); got != 0 {
		t.Errorf("after reset taken = %d, want 0", got)
	}
	if got := m.ws.blocked.Load(); got != 0 {
		t.Errorf("after reset blocked = %d, want 0", got)
	}
	if got := m.ws.delivered.Load(); got != 0 {
		t.Errorf("after reset delivered = %d, want 0", got)
	}
	if got := m.ws.finished.Load(); got != 0 {
		t.Errorf("after reset finished = %d, want 0", got)
	}
	if m.ws.poisoned.Load() {
		t.Error("after reset poisoned = true, want false")
	}
	// The reused machine must still run (and its watchdog must still
	// tolerate) a message-heavy program.
	if err := m.Run(func(c *Ctx) {
		for i := 0; i < 50; i++ {
			if c.Rank() == 0 {
				c.Send(1, i, []float64{float64(i)})
			} else {
				c.Recv(0, i)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalCountersAggregate(t *testing.T) {
	m := NewMachine(3)
	if err := m.Run(func(c *Ctx) {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, []float64{1, 2})
			c.Send(2, 0, []float64{3})
		case 1:
			c.Recv(0, 0)
		case 2:
			c.Recv(0, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if rep.TotalMessages != 2 {
		t.Errorf("total messages = %d, want 2", rep.TotalMessages)
	}
	if rep.TotalWords != 3 {
		t.Errorf("total words = %d, want 3", rep.TotalWords)
	}
}

func TestGridRoundTrip(t *testing.T) {
	g, err := NewSquareGrid(49)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != 7 || g.Cols != 7 {
		t.Fatalf("grid = %dx%d, want 7x7", g.Rows, g.Cols)
	}
	for r := 0; r < 49; r++ {
		i, j := g.Coords(r)
		if g.Rank(i, j) != r {
			t.Errorf("coords/rank mismatch at %d", r)
		}
	}
	if _, err := NewSquareGrid(10); err == nil {
		t.Error("expected error for non-square p")
	}
	row := g.RowRanks(2)
	if len(row) != 7 || row[0] != 14 || row[6] != 20 {
		t.Errorf("row 2 ranks = %v", row)
	}
	col := g.ColRanks(3)
	if len(col) != 7 || col[0] != 3 || col[6] != 45 {
		t.Errorf("col 3 ranks = %v", col)
	}
}

func TestCostHelpers(t *testing.T) {
	a := Cost{Latency: 1, Bandwidth: 5, Flops: 10}
	b := Cost{Latency: 3, Bandwidth: 2, Flops: 10}
	sum := Add(a, b)
	if sum != (Cost{Latency: 4, Bandwidth: 7, Flops: 20}) {
		t.Errorf("Add = %v", sum)
	}
}

// A deliberate deadlock (everyone receives, nobody sends) must be
// detected by the watchdog and surfaced as an error, not a hang.
func TestDeadlockDetected(t *testing.T) {
	m := NewMachine(3)
	done := make(chan error, 1)
	go func() {
		done <- m.Run(func(c *Ctx) {
			c.Recv((c.Rank()+1)%3, 99)
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("deadlocked run returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog did not fire within 10s")
	}
}

// A slow-but-progressing program must NOT be killed by the watchdog.
func TestWatchdogToleratesSlowProgress(t *testing.T) {
	m := NewMachine(2)
	err := m.Run(func(c *Ctx) {
		for round := 0; round < 3; round++ {
			if c.Rank() == 0 {
				time.Sleep(30 * time.Millisecond)
				c.Send(1, round, []float64{1})
			} else {
				c.Recv(0, round)
			}
		}
	})
	if err != nil {
		t.Fatalf("watchdog killed a live run: %v", err)
	}
}

// Mismatched collectives (one rank broadcasts to a group another rank
// never joins) are a classic SPMD bug; the watchdog must catch it.
func TestDeadlockMismatchedCollective(t *testing.T) {
	m := NewMachine(4)
	err := m.Run(func(c *Ctx) {
		if c.Rank() < 2 {
			c.Bcast([]int{0, 1, 2}, 0, 5, []float64{1}) // rank 2 never shows up
		}
	})
	if err == nil {
		t.Fatal("mismatched collective not detected")
	}
}

func TestTrafficMatrix(t *testing.T) {
	m := NewMachine(3)
	if err := m.Run(func(c *Ctx) {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, []float64{1, 2})
			c.Send(2, 0, []float64{3, 4, 5})
		case 1:
			c.Recv(0, 0)
			c.Send(2, 1, []float64{6})
		case 2:
			c.Recv(0, 0)
			c.Recv(1, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	tr := m.Traffic()
	if tr[0][1] != 2 || tr[0][2] != 3 || tr[1][2] != 1 {
		t.Errorf("traffic = %v", tr)
	}
	if tr[2][0] != 0 || tr[1][0] != 0 {
		t.Error("phantom traffic recorded")
	}
}

// Critical-path sanity: the critical path dominates every rank's own
// local cost and is dominated by the aggregate totals.
func TestCriticalPathSandwich(t *testing.T) {
	m := NewMachine(6)
	if err := m.Run(func(c *Ctx) {
		r := c.Rank()
		c.AddFlops(int64(r * 5))
		if r > 0 {
			c.Recv(r-1, 0)
		}
		if r < 5 {
			c.Send(r+1, 0, make([]float64, r+1))
		}
	}); err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	for r, c := range rep.PerRank {
		if rep.Critical.Flops < rep.LocalFlops[r] {
			t.Errorf("critical flops %d below rank %d local %d", rep.Critical.Flops, r, rep.LocalFlops[r])
		}
		_ = c
	}
	if rep.Critical.Bandwidth > rep.TotalWords*2 {
		t.Errorf("critical bandwidth %d above send+recv total %d", rep.Critical.Bandwidth, rep.TotalWords*2)
	}
	if rep.Critical.Latency > rep.TotalMessages*2 {
		t.Errorf("critical latency %d above message total %d", rep.Critical.Latency, rep.TotalMessages*2)
	}
}
