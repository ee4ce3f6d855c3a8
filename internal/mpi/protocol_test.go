package mpi

import (
	"math"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/sim"
)

func TestEffInterpolation(t *testing.T) {
	p := &Personality{Efficiency: []EffPoint{
		{Size: 1 << 10, Eff: 0.8},
		{Size: 4 << 10, Eff: 0.4},
		{Size: 16 << 10, Eff: 0.6},
	}}
	// Clamping at the ends.
	if p.Eff(1) != 0.8 || p.Eff(1<<20) != 0.6 {
		t.Errorf("end clamping wrong: %v %v", p.Eff(1), p.Eff(1<<20))
	}
	// Exact points.
	if p.Eff(4<<10) != 0.4 {
		t.Errorf("exact point wrong: %v", p.Eff(4<<10))
	}
	// Log-midpoint between 1K and 4K is 2K: halfway between 0.8 and 0.4.
	if got := p.Eff(2 << 10); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("log midpoint: got %v want 0.6", got)
	}
	// Empty curve means perfect.
	empty := &Personality{}
	if empty.Eff(123) != 1.0 {
		t.Error("empty curve should be 1.0")
	}
}

// Messages between one rank pair must complete in FIFO order even when
// issued back to back (per-peer data serialisation).
func TestPairFIFOOrdering(t *testing.T) {
	spec := cluster.Mini(2, 1)
	var order []int
	_, err := Run(spec, OpenMPI(), func(p *Proc) {
		c := p.W.World()
		const k = 6
		switch c.Rank(p) {
		case 0:
			var reqs []*Request
			for i := 0; i < k; i++ {
				reqs = append(reqs, c.Isend(p, Phantom(100<<10), 1, i))
			}
			p.Wait(reqs...)
		case 1:
			reqs := make([]*Request, k)
			for i := 0; i < k; i++ {
				i := i
				reqs[i] = c.Irecv(p, Phantom(100<<10), 0, i)
				reqs[i].Done().OnFire(sim.Func(func() { order = append(order, i) }), 0)
			}
			p.Wait(reqs...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completions out of order: %v", order)
		}
	}
}

// Rendezvous adds a round trip: just above the eager threshold a message
// must cost at least one extra latency versus just below it, beyond the
// pure bandwidth difference.
func TestRendezvousRoundTripVisible(t *testing.T) {
	spec := cluster.Mini(2, 1)
	pers := OpenMPI()
	pers.Efficiency = nil // flat bandwidth so the protocol term is isolated
	timeFor := func(n int) sim.Time {
		var dur sim.Time
		_, err := Run(spec, pers, func(p *Proc) {
			c := p.W.World()
			switch c.Rank(p) {
			case 0:
				c.Send(p, Phantom(n), 1, 0)
			case 1:
				t0 := p.Now()
				c.Recv(p, Phantom(n), 0, 0)
				dur = p.Now() - t0
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return dur
	}
	below := timeFor(pers.EagerThreshold)
	above := timeFor(pers.EagerThreshold + 1)
	bwDelta := sim.Time(1.0 / spec.NICBandwidth) // one extra byte
	extra := above - below - bwDelta
	rtt := sim.Time(spec.InterLatency + pers.SoftLatency)
	if extra < rtt {
		t.Errorf("rendezvous round trip not visible: extra=%v, want >= %v", extra, rtt)
	}
}

// Eager messages can complete the send before any recv is posted; a
// rendezvous send cannot.
func TestRendezvousWaitsForReceiver(t *testing.T) {
	spec := cluster.Mini(2, 1)
	pers := OpenMPI()
	var eagerDone, rndvDone, recvPosted sim.Time
	_, err := Run(spec, pers, func(p *Proc) {
		c := p.W.World()
		switch c.Rank(p) {
		case 0:
			r1 := c.Isend(p, Phantom(64), 1, 1) // eager
			p.Wait(r1)
			eagerDone = p.Now()
			r2 := c.Isend(p, Phantom(1<<20), 1, 2) // rendezvous
			p.Wait(r2)
			rndvDone = p.Now()
		case 1:
			p.Sim.Sleep(0.05)
			recvPosted = p.Now()
			c.Recv(p, Phantom(64), 0, 1)
			c.Recv(p, Phantom(1<<20), 0, 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if eagerDone >= recvPosted {
		t.Errorf("eager send should complete before the late recv: %v >= %v", eagerDone, recvPosted)
	}
	if rndvDone <= recvPosted {
		t.Errorf("rendezvous send must wait for the receiver: %v <= %v", rndvDone, recvPosted)
	}
}

func TestDupCommIsolatesTraffic(t *testing.T) {
	spec := cluster.Mini(1, 2)
	var first byte
	_, err := Run(spec, OpenMPI(), func(p *Proc) {
		w := p.W
		c := w.World()
		dup := c.Sub("dup", []int{0, 1})
		switch c.Rank(p) {
		case 0:
			dup.Send(p, Bytes([]byte{1}), 1, 5)
			c.Send(p, Bytes([]byte{2}), 1, 5)
		case 1:
			b := make([]byte, 1)
			c.Recv(p, Bytes(b), 0, 5) // same tag, different context
			first = b[0]
			dup.Recv(p, Bytes(b), 0, 5)
			if b[0] != 1 {
				t.Errorf("dup comm got %d", b[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 {
		t.Fatalf("context isolation failed: world comm got %d", first)
	}
}

func TestRecvBufferOverflowPanics(t *testing.T) {
	spec := cluster.Mini(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on oversized message")
		}
	}()
	_, _ = Run(spec, OpenMPI(), func(p *Proc) {
		c := p.W.World()
		switch c.Rank(p) {
		case 0:
			c.Send(p, Phantom(100), 1, 0)
		case 1:
			c.Recv(p, Phantom(10), 0, 0)
		}
	})
}

func TestSelfSendDelivers(t *testing.T) {
	spec := cluster.Mini(1, 1)
	var got byte
	_, err := Run(spec, OpenMPI(), func(p *Proc) {
		c := p.W.World()
		sreq := c.Isend(p, Bytes([]byte{77}), 0, 0)
		b := make([]byte, 1)
		rreq := c.Irecv(p, Bytes(b), 0, 0)
		p.Wait(sreq, rreq)
		got = b[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Fatalf("self send got %d", got)
	}
}
