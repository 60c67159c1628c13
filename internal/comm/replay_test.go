package comm

import (
	"reflect"
	"testing"
)

// TestReplayMatchesMachineCharges replays a small program's charge
// sequence on a Replay ledger and checks every observable — report,
// critical path, phases — against the Machine executing the
// same program. The program exercises the order-sensitive part of the
// model: max-merge-then-add across two receives with different sender
// clocks, where swapping the receive order changes the result.
func TestReplayMatchesMachineCharges(t *testing.T) {
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

	r := NewReplay(3)
	// Rank 0 prefix.
	r.AddFlops(0, 10)
	r.SetMemory(0, 100)
	snap02 := r.ChargeSend(0, 2)
	r.Mark(0, "a")
	r.AddMemory(0, -40)
	r.Mark(0, "b")
	// Rank 1.
	r.SetMemory(1, 5)
	snap12 := r.ChargeSend(1, 1)
	r.Mark(1, "a")
	r.Mark(1, "b")
	// Rank 2, receives in the machine's order.
	r.SetMemory(2, 7)
	r.ChargeRecv(2, snap02, 2)
	r.ChargeRecv(2, snap12, 1)
	r.AddFlops(2, 4)
	r.Mark(2, "a")
	snap20 := r.ChargeSend(2, 1)
	r.Mark(2, "b")
	// Rank 0 suffix.
	r.ChargeRecv(0, snap20, 1)

	if got, want := r.Report(), m.Report(); !reflect.DeepEqual(got, want) {
		t.Errorf("replay report = %+v, machine report = %+v", got, want)
	}
	if got, want := r.CriticalPath(), m.CriticalPath(); got != want {
		t.Errorf("replay critical path = %v, machine = %v", got, want)
	}
	rp, err := r.PhaseCosts()
	if err != nil {
		t.Fatal(err)
	}
	mp, err := m.PhaseCosts()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rp, mp) {
		t.Errorf("replay phases = %+v, machine phases = %+v", rp, mp)
	}
}

// TestReplayRecvOrderMatters pins the property that makes replay order
// load-bearing: two receives whose order is swapped yield a different
// clock, so a dataflow executor must charge receives in the machine's
// per-rank program order, not in arrival order.
func TestReplayRecvOrderMatters(t *testing.T) {
	a := NewReplay(3)
	a.ChargeRecv(2, Cost{Latency: 10}, 2)
	a.ChargeRecv(2, Cost{}, 1)
	b := NewReplay(3)
	b.ChargeRecv(2, Cost{}, 1)
	b.ChargeRecv(2, Cost{Latency: 10}, 2)
	if a.Clock(2) == b.Clock(2) {
		t.Fatalf("swapped receive order produced identical clocks %v; the counterexample should distinguish them", a.Clock(2))
	}
}
