package mpi

import (
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/sim"
)

func TestBarrierSizeOne(t *testing.T) {
	_, err := Run(cluster.Mini(1, 1), OpenMPI(), func(p *Proc) {
		p.W.World().Barrier(p) // must not deadlock or panic
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierNonPowerOfTwo(t *testing.T) {
	for _, shape := range [][2]int{{1, 3}, {3, 3}, {1, 7}} {
		spec := cluster.Mini(shape[0], shape[1])
		count := 0
		_, err := Run(spec, OpenMPI(), func(p *Proc) {
			for i := 0; i < 3; i++ { // repeated barriers must not cross-match
				p.W.World().Barrier(p)
			}
			count++
		})
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if count != spec.Ranks() {
			t.Fatalf("%v: only %d ranks finished", shape, count)
		}
	}
}

func TestNextSeqAgreesAcrossRanks(t *testing.T) {
	spec := cluster.Mini(2, 2)
	seqs := make([][]int, spec.Ranks())
	_, err := Run(spec, OpenMPI(), func(p *Proc) {
		c := p.W.World()
		me := c.Rank(p)
		for i := 0; i < 4; i++ {
			seqs[me] = append(seqs[me], c.NextSeq(p))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < spec.Ranks(); r++ {
		for i := range seqs[0] {
			if seqs[r][i] != seqs[0][i] {
				t.Fatalf("rank %d seq %d = %d, rank 0 has %d", r, i, seqs[r][i], seqs[0][i])
			}
		}
	}
}

func TestCommAccessors(t *testing.T) {
	spec := cluster.Mini(2, 3)
	_, err := Run(spec, OpenMPI(), func(p *Proc) {
		c := p.W.World()
		if c.Size() != 6 || c.RankOfWorld(5) != 5 || c.RankOfWorld(6) != -1 {
			t.Error("world comm accessors wrong")
		}
		if c.WorldRank(4) != 4 || c.RankOfWorld(4) != 4 || c.RankOfWorld(99) != -1 {
			t.Error("rank translation wrong")
		}
		lc := p.W.LeaderComm()
		if lc.RankOfWorld(3) != 1 || lc.RankOfWorld(1) != -1 {
			t.Error("leader comm translation wrong")
		}
		if lc.Ctx() == c.Ctx() {
			t.Error("contexts must differ")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The three-level hierarchy looks its socket and socket-leader communicators
// up on every rank of every call: once made, a lookup allocates nothing.
func TestSocketCommLookupAllocatesNothing(t *testing.T) {
	spec := cluster.Mini(2, 6)
	spec.SocketsPerNode = 2
	_, w := newTestWorld(spec)
	lookup := func() {
		for n := 0; n < spec.Nodes; n++ {
			for s := 0; s < spec.SocketsPerNode; s++ {
				w.SocketComm(n, s)
			}
			w.SocketLeaderComm(n)
		}
	}
	lookup()
	if allocs := testing.AllocsPerRun(100, lookup); allocs != 0 {
		t.Errorf("a warm lookup of every socket communicator allocates %v objects, want 0", allocs)
	}
	if c := w.SocketComm(1, 1); c.Size() != 3 || c.WorldRank(0) != 9 || w.SocketLeaderComm(1).WorldRank(1) != 9 {
		t.Errorf("socket 1 of node 1 holds %d ranks from %d", c.Size(), c.WorldRank(0))
	}
}

func TestDupCreatesFreshContext(t *testing.T) {
	spec := cluster.Mini(1, 2)
	_, err := Run(spec, OpenMPI(), func(p *Proc) {
		c := p.W.World()
		if p.Rank == 0 {
			d := c.Dup()
			if d.Ctx() == c.Ctx() || d.Size() != c.Size() {
				t.Error("Dup must copy the group with a fresh context")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateWorldRankPanics(t *testing.T) {
	spec := cluster.Mini(1, 2)
	eng, w := newTestWorld(spec)
	_ = eng
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate ranks")
		}
	}()
	w.NewComm([]int{0, 0})
}

func newTestWorld(spec cluster.Spec) (*cluster.Machine, *World) {
	m := cluster.NewMachine(sim.New(), spec)
	return m, NewWorld(m, OpenMPI())
}
