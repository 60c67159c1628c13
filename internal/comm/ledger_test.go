package comm

import (
	"reflect"
	"testing"
)

// TestMachineChargesGolden runs a small program and checks every
// observable — report, critical path, phases — against values worked out
// by hand from the clock rule. The program exercises the order-sensitive
// part of the model: max-merge-then-add across two receives with
// different sender clocks, where swapping the receive order changes the
// result.
func TestMachineChargesGolden(t *testing.T) {
	m := NewMachine(3)
	if err := m.Run(func(c *Ctx) {
		switch c.Rank() {
		case 0:
			c.AddFlops(10)
			c.SetMemory(100)
			c.Send(2, 0, []float64{1, 2})
			c.Mark("a")
			c.AddMemory(-40)
			c.Mark("b")
		case 1:
			c.SetMemory(5)
			c.Send(2, 1, []float64{3})
			c.Mark("a")
			c.Mark("b")
		case 2:
			c.SetMemory(7)
			c.Recv(0, 0) // sender clock {0,0,10}: merge before charging
			c.Recv(1, 1) // sender clock {0,0,0}
			c.AddFlops(4)
			c.Mark("a")
			c.Send(0, 2, []float64{9})
			c.Mark("b")
		}
		if c.Rank() == 0 {
			c.Recv(2, 2)
		}
	}); err != nil {
		t.Fatal(err)
	}
	end := Cost{Latency: 3, Bandwidth: 4, Flops: 14}
	want := Report{
		P:             3,
		Critical:      end,
		TotalMessages: 3,
		TotalWords:    4,
		MaxMemory:     100,
		PerRank:       []Cost{end, {Latency: 1, Bandwidth: 1}, end},
		PeakWords:     []int64{100, 5, 7},
		LocalFlops:    []int64{10, 0, 4},
		LocalSent:     []int64{2, 1, 1},
		WordsByClass:  [NumSendClasses]int64{SendOther: 4},
	}
	if got := m.Report(); !reflect.DeepEqual(got, want) {
		t.Errorf("report = %+v, want %+v", got, want)
	}
	if got := m.CriticalPath(); got != end {
		t.Errorf("critical path = %v, want %v", got, end)
	}
	phases, err := m.PhaseCosts()
	if err != nil {
		t.Fatal(err)
	}
	a := Cost{Latency: 2, Bandwidth: 3, Flops: 14}
	b := Cost{Latency: 1, Bandwidth: 1}
	if wantPhases := []PhaseCost{{"a", a, a}, {"b", b, b}}; !reflect.DeepEqual(phases, wantPhases) {
		t.Errorf("phases = %+v, want %+v", phases, wantPhases)
	}
}

// TestLedgerRecvOrderMatters pins the property that makes receive order
// load-bearing: two receives whose order is swapped yield a different
// clock, so an executor must charge receives in each rank's program
// order, not in arrival order.
func TestLedgerRecvOrderMatters(t *testing.T) {
	var a, b rankState
	a.recv(Cost{Latency: 10}, 2)
	a.recv(Cost{}, 1)
	b.recv(Cost{}, 1)
	b.recv(Cost{Latency: 10}, 2)
	if a.clock == b.clock {
		t.Fatalf("swapped receive order produced identical clocks %v; the counterexample should distinguish them", a.clock)
	}
}
