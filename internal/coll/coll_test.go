package coll

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// pattern fills a deterministic payload.
func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + salt
	}
	return b
}

// runBcast runs a broadcast with the given module on a world-sized comm and
// verifies every rank ends with the root's payload.
func runBcast(t *testing.T, spec cluster.Spec, mod Module, n, root int, pr Params) sim.Time {
	t.Helper()
	want := pattern(n, 3)
	var last sim.Time
	_, err := mpi.Run(spec, mpi.OpenMPI(), func(p *mpi.Proc) {
		c := p.W.World()
		buf := make([]byte, n)
		if c.Rank(p) == root {
			copy(buf, want)
		}
		p.Wait(mod.Ibcast(p, c, mpi.Bytes(buf), root, pr))
		if p.Now() > last {
			last = p.Now()
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("rank %d: bcast payload wrong (mod=%s alg=%v)", c.Rank(p), mod.Name(), pr.Alg)
		}
	})
	if err != nil {
		t.Fatalf("mod=%s alg=%v: %v", mod.Name(), pr.Alg, err)
	}
	return last
}

func TestBcastAllModulesAllAlgs(t *testing.T) {
	interSpec := cluster.Mini(3, 2)
	intraSpec := cluster.Mini(1, 5)
	cases := []struct {
		spec cluster.Spec
		mod  Module
	}{
		{interSpec, NewLibnbc()},
		{interSpec, NewAdapt()},
		{interSpec, NewTuned()},
		{intraSpec, NewSM()},
		{intraSpec, NewSOLO()},
	}
	for _, tc := range cases {
		for _, alg := range tc.mod.Algs(Bcast) {
			for _, n := range []int{1, 17, 4096, 100 << 10} {
				for root := 0; root < tc.spec.Ranks(); root += tc.spec.Ranks() - 1 {
					name := fmt.Sprintf("%s/%v/n=%d/root=%d", tc.mod.Name(), alg, n, root)
					t.Run(name, func(t *testing.T) {
						runBcast(t, tc.spec, tc.mod, n, root, Params{Alg: alg, Seg: 8 << 10})
					})
					if tc.spec.Ranks() == 1 {
						break
					}
				}
			}
		}
	}
}

// runReduce verifies an integer sum reduction lands correctly at the root.
func runReduce(t *testing.T, spec cluster.Spec, mod Module, elems, root int, pr Params) {
	t.Helper()
	ranks := spec.Ranks()
	_, err := mpi.Run(spec, mpi.OpenMPI(), func(p *mpi.Proc) {
		c := p.W.World()
		me := c.Rank(p)
		vals := make([]float64, elems)
		for i := range vals {
			vals[i] = float64(me + i)
		}
		sbuf := mpi.Bytes(mpi.EncodeFloat64s(vals))
		rbuf := mpi.Bytes(make([]byte, sbuf.N))
		p.Wait(mod.Ireduce(p, c, sbuf, rbuf, mpi.OpSum, mpi.Float64, root, pr))
		if me == root {
			got := mpi.DecodeFloat64s(rbuf.B)
			for i := range got {
				want := float64(ranks*i) + float64(ranks*(ranks-1))/2
				if got[i] != want {
					t.Errorf("mod=%s alg=%v elem %d: got %v want %v", mod.Name(), pr.Alg, i, got[i], want)
					break
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("mod=%s alg=%v: %v", mod.Name(), pr.Alg, err)
	}
}

func TestReduceAllModulesAllAlgs(t *testing.T) {
	interSpec := cluster.Mini(3, 2)
	intraSpec := cluster.Mini(1, 5)
	cases := []struct {
		spec cluster.Spec
		mod  Module
	}{
		{interSpec, NewLibnbc()},
		{interSpec, NewAdapt()},
		{interSpec, NewTuned()},
		{intraSpec, NewSM()},
		{intraSpec, NewSOLO()},
	}
	for _, tc := range cases {
		for _, alg := range tc.mod.Algs(Reduce) {
			for _, elems := range []int{1, 100, 5000} {
				name := fmt.Sprintf("%s/%v/elems=%d", tc.mod.Name(), alg, elems)
				t.Run(name, func(t *testing.T) {
					runReduce(t, tc.spec, tc.mod, elems, tc.spec.Ranks()-1, Params{Alg: alg, Seg: 4 << 10})
				})
			}
		}
	}
}

func TestAllreduceAllModules(t *testing.T) {
	interSpec := cluster.Mini(3, 2) // 6 ranks, non-power-of-two on purpose
	intraSpec := cluster.Mini(1, 5)
	cases := []struct {
		spec cluster.Spec
		mod  Module
	}{
		{interSpec, NewLibnbc()},
		{interSpec, NewAdapt()},
		{interSpec, NewTuned()},
		{intraSpec, NewSM()},
		{intraSpec, NewSOLO()},
	}
	for _, tc := range cases {
		for _, alg := range append(tc.mod.Algs(Allreduce), AlgDefault) {
			for _, elems := range []int{1, 33, 4000} {
				ranks := tc.spec.Ranks()
				name := fmt.Sprintf("%s/%v/elems=%d", tc.mod.Name(), alg, elems)
				t.Run(name, func(t *testing.T) {
					_, err := mpi.Run(tc.spec, mpi.OpenMPI(), func(p *mpi.Proc) {
						c := p.W.World()
						me := c.Rank(p)
						vals := make([]float64, elems)
						for i := range vals {
							vals[i] = float64(me + i)
						}
						sbuf := mpi.Bytes(mpi.EncodeFloat64s(vals))
						rbuf := mpi.Bytes(make([]byte, sbuf.N))
						p.Wait(tc.mod.Iallreduce(p, c, sbuf, rbuf, mpi.OpSum, mpi.Float64, Params{Alg: alg}))
						got := mpi.DecodeFloat64s(rbuf.B)
						for i := range got {
							want := float64(ranks*i) + float64(ranks*(ranks-1))/2
							if got[i] != want {
								t.Errorf("rank %d elem %d: got %v want %v", me, i, got[i], want)
								return
							}
						}
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

func TestGatherScatterAllgather(t *testing.T) {
	interSpec := cluster.Mini(2, 2)
	intraSpec := cluster.Mini(1, 4)
	cases := []struct {
		spec cluster.Spec
		mod  Module
	}{
		{interSpec, NewLibnbc()},
		{interSpec, NewTuned()},
		{intraSpec, NewSM()},
		{intraSpec, NewSOLO()},
	}
	const blk = 64
	for _, tc := range cases {
		n := tc.spec.Ranks()
		t.Run(tc.mod.Name()+"/gather", func(t *testing.T) {
			_, err := mpi.Run(tc.spec, mpi.OpenMPI(), func(p *mpi.Proc) {
				c := p.W.World()
				me := c.Rank(p)
				sbuf := mpi.Bytes(pattern(blk, byte(me)))
				rbuf := mpi.Bytes(make([]byte, n*blk))
				p.Wait(tc.mod.Igather(p, c, sbuf, rbuf, 0, Params{}))
				if me == 0 {
					for r := 0; r < n; r++ {
						if !bytes.Equal(rbuf.B[r*blk:(r+1)*blk], pattern(blk, byte(r))) {
							t.Errorf("gather block %d wrong", r)
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		t.Run(tc.mod.Name()+"/scatter", func(t *testing.T) {
			_, err := mpi.Run(tc.spec, mpi.OpenMPI(), func(p *mpi.Proc) {
				c := p.W.World()
				me := c.Rank(p)
				var sbuf mpi.Buf
				if me == 0 {
					all := make([]byte, n*blk)
					for r := 0; r < n; r++ {
						copy(all[r*blk:], pattern(blk, byte(r)))
					}
					sbuf = mpi.Bytes(all)
				} else {
					sbuf = mpi.Phantom(n * blk)
				}
				rbuf := mpi.Bytes(make([]byte, blk))
				p.Wait(tc.mod.Iscatter(p, c, sbuf, rbuf, 0, Params{}))
				if !bytes.Equal(rbuf.B, pattern(blk, byte(me))) {
					t.Errorf("rank %d scatter block wrong", me)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		if !tc.mod.Supports(Allgather) {
			continue
		}
		t.Run(tc.mod.Name()+"/allgather", func(t *testing.T) {
			_, err := mpi.Run(tc.spec, mpi.OpenMPI(), func(p *mpi.Proc) {
				c := p.W.World()
				me := c.Rank(p)
				sbuf := mpi.Bytes(pattern(blk, byte(me)))
				rbuf := mpi.Bytes(make([]byte, n*blk))
				p.Wait(tc.mod.Iallgather(p, c, sbuf, rbuf, Params{}))
				for r := 0; r < n; r++ {
					if !bytes.Equal(rbuf.B[r*blk:(r+1)*blk], pattern(blk, byte(r))) {
						t.Errorf("rank %d allgather block %d wrong", me, r)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// timeIntraBcast returns the completion time of an intra-node broadcast.
func timeIntraBcast(t *testing.T, mod Module, n int) sim.Time {
	t.Helper()
	spec := cluster.Mini(1, 12)
	var end sim.Time
	_, err := mpi.Run(spec, mpi.OpenMPI(), func(p *mpi.Proc) {
		c := p.W.World()
		p.Wait(mod.Ibcast(p, c, mpi.Phantom(n), 0, Params{}))
		if p.Now() > end {
			end = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// The paper: "SM has better performance for small messages while SOLO
// performs significantly better as the communication size increases."
func TestSMBeatsSOLOSmallAndLosesLarge(t *testing.T) {
	smSmall := timeIntraBcast(t, NewSM(), 256)
	soloSmall := timeIntraBcast(t, NewSOLO(), 256)
	if smSmall >= soloSmall {
		t.Errorf("small bcast: SM (%v) should beat SOLO (%v)", smSmall, soloSmall)
	}
	smLarge := timeIntraBcast(t, NewSM(), 4<<20)
	soloLarge := timeIntraBcast(t, NewSOLO(), 4<<20)
	if soloLarge >= smLarge {
		t.Errorf("large bcast: SOLO (%v) should beat SM (%v)", soloLarge, smLarge)
	}
}

// Root congestion: a linear bcast from one root to many nodes must be
// slower than a binomial for large messages (root NIC serialises flows).
func TestLinearSlowerThanBinomialAcrossNodes(t *testing.T) {
	spec := cluster.Mini(8, 1)
	mod := NewLibnbc()
	timeOf := func(alg Alg) sim.Time {
		var end sim.Time
		_, err := mpi.Run(spec, mpi.OpenMPI(), func(p *mpi.Proc) {
			c := p.W.World()
			p.Wait(mod.Ibcast(p, c, mpi.Phantom(4<<20), 0, Params{Alg: alg}))
			if p.Now() > end {
				end = p.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	lin, bin := timeOf(AlgLinear), timeOf(AlgBinomial)
	if lin <= bin {
		t.Errorf("linear (%v) should be slower than binomial (%v) for 4MB over 8 nodes", lin, bin)
	}
}

// Segmentation: for a long chain, ADAPT's pipelined chain should beat an
// unsegmented libnbc binomial on large payloads.
func TestAdaptChainPipelinesLargeMessages(t *testing.T) {
	spec := cluster.Mini(8, 1)
	timeOf := func(mod Module, pr Params) sim.Time {
		var end sim.Time
		_, err := mpi.Run(spec, mpi.OpenMPI(), func(p *mpi.Proc) {
			c := p.W.World()
			p.Wait(mod.Ibcast(p, c, mpi.Phantom(8<<20), 0, pr))
			if p.Now() > end {
				end = p.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	chain := timeOf(NewAdapt(), Params{Alg: AlgChain, Seg: 128 << 10})
	nbc := timeOf(NewLibnbc(), Params{Alg: AlgBinomial})
	if chain >= nbc {
		t.Errorf("segmented chain (%v) should beat unsegmented binomial (%v) for 8MB", chain, nbc)
	}
}

func TestUnsupportedPanics(t *testing.T) {
	spec := cluster.Mini(1, 2)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic for unsupported collective")
		}
	}()
	_, _ = mpi.Run(spec, mpi.OpenMPI(), func(p *mpi.Proc) {
		mod := NewAdapt() // ADAPT does not implement Gather
		p.Wait(mod.Igather(p, p.W.World(), mpi.Phantom(8), mpi.Phantom(16), 0, Params{}))
	})
}

func TestSegmentsHelper(t *testing.T) {
	if got := segments(0, 10); got.len() != 0 {
		t.Fatalf("segments(0) has %d chunks", got.len())
	}
	s := segments(25, 10)
	if lo, hi := s.at(2); s.len() != 3 || lo != 20 || hi != 25 {
		t.Fatalf("segments(25,10) = %+v, last chunk [%d, %d)", s, lo, hi)
	}
	s1 := segments(5, 0)
	if _, hi := s1.at(0); s1.len() != 1 || hi != 5 {
		t.Fatalf("segments(5,0) = %+v", s1)
	}
}

// Property: binomial/binary/chain trees are well-formed spanning trees —
// every non-root has exactly one parent, parent/children relations are
// mutual, and all nodes are reachable from the root.
func TestQuickTreesAreSpanning(t *testing.T) {
	shapes := map[string]treeFn{
		"binomial": binomialTree,
		"binary":   binaryTree,
		"chain":    chainTree,
		"linear":   linearTree,
	}
	for name, tree := range shapes {
		f := func(rawSize uint8) bool {
			size := int(rawSize%64) + 1
			// parent/child mutuality
			for v := 0; v < size; v++ {
				parent, children := tree(v, size, nil)
				if v == 0 && parent != -1 {
					return false
				}
				if v != 0 && (parent < 0 || parent >= size) {
					return false
				}
				for _, ch := range children {
					if ch <= v || ch >= size {
						return false
					}
					cp, _ := tree(ch, size, nil)
					if cp != v {
						return false
					}
				}
			}
			// reachability
			seen := make([]bool, size)
			var visit func(v int)
			visit = func(v int) {
				if seen[v] {
					return
				}
				seen[v] = true
				_, children := tree(v, size, nil)
				for _, ch := range children {
					visit(ch)
				}
			}
			visit(0)
			for _, s := range seen {
				if !s {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// Property: bcast delivers the payload for random sizes, algorithms, and
// roots on the libnbc module.
func TestQuickBcastCorrect(t *testing.T) {
	spec := cluster.Mini(2, 3)
	algs := []Alg{AlgLinear, AlgBinomial}
	f := func(rawN uint16, rawAlg, rawRoot uint8) bool {
		n := int(rawN%5000) + 1
		alg := algs[int(rawAlg)%len(algs)]
		root := int(rawRoot) % spec.Ranks()
		mod := NewLibnbc()
		want := pattern(n, 9)
		ok := true
		_, err := mpi.Run(spec, mpi.OpenMPI(), func(p *mpi.Proc) {
			c := p.W.World()
			buf := make([]byte, n)
			if c.Rank(p) == root {
				copy(buf, want)
			}
			p.Wait(mod.Ibcast(p, c, mpi.Bytes(buf), root, Params{Alg: alg}))
			if !bytes.Equal(buf, want) {
				ok = false
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
