package rivals_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/hanrepro/han/internal/bench"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/rivals"
	"github.com/hanrepro/han/internal/sim"
)

func allLibs() []rivals.Lib {
	return []rivals.Lib{rivals.OpenMPIDefault, rivals.CrayMPI, rivals.IntelMPI, rivals.MVAPICH2}
}

func TestPersonalitiesDistinctAndValid(t *testing.T) {
	seen := map[string]bool{}
	for _, l := range allLibs() {
		p := l.Personality()
		if seen[p.Name] {
			t.Errorf("duplicate personality name %s", p.Name)
		}
		seen[p.Name] = true
		for _, n := range []int{1, 1 << 10, 64 << 10, 1 << 20, 128 << 20} {
			e := p.Eff(n)
			if e <= 0 || e > 1 {
				t.Errorf("%s: Eff(%d) = %v out of range", p.Name, n, e)
			}
		}
	}
}

// Fig 11's key shape: Cray MPI achieves clearly better efficiency than Open
// MPI in the 16KB..512KB band, and both converge at multi-MB sizes.
func TestCrayBeatsOpenMPIMidSizes(t *testing.T) {
	cray, ompi := rivals.CrayMPI.Personality(), rivals.OpenMPIDefault.Personality()
	for _, n := range []int{16 << 10, 64 << 10, 256 << 10} {
		if cray.Eff(n) <= ompi.Eff(n)*1.2 {
			t.Errorf("at %d: cray %.2f should clearly beat ompi %.2f", n, cray.Eff(n), ompi.Eff(n))
		}
	}
	big := 64 << 20
	if d := cray.Eff(big) - ompi.Eff(big); d > 0.05 || d < -0.05 {
		t.Errorf("peaks should converge: cray %.2f vs ompi %.2f", cray.Eff(big), ompi.Eff(big))
	}
}

// runLib runs fn on every rank of a new world of spec, each rank a
// goroutine calling the library's blocking collectives.
func runLib(t *testing.T, l rivals.Lib, spec cluster.Spec, fn func(ops bench.Ops, p *mpi.Proc)) {
	t.Helper()
	sys := bench.RivalSystem(l)
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), sys.Pers)
	ops := sys.Setup(w)
	w.Start(func(p *mpi.Proc) { fn(ops, p) })
	if err := eng.Run(); err != nil {
		t.Fatalf("%v: %v", l, err)
	}
}

// pattern is rank's n bytes, different for every rank.
func pattern(rank, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rank*7 + i*3)
	}
	return b
}

func TestAllRivalsBcastDeliver(t *testing.T) {
	spec := cluster.Mini(3, 4)
	for _, l := range allLibs() {
		for _, root := range []int{0, 5} {
			for _, n := range []int{64, 100 << 10} {
				t.Run(fmt.Sprintf("%v/root%d/n%d", l, root, n), func(t *testing.T) {
					want := pattern(0, n)
					runLib(t, l, spec, func(ops bench.Ops, p *mpi.Proc) {
						buf := make([]byte, n)
						if p.Rank == root {
							copy(buf, want)
						}
						ops.Bcast(p, mpi.Bytes(buf), root)
						if !bytes.Equal(buf, want) {
							t.Errorf("rank %d: wrong payload", p.Rank)
						}
					})
				})
			}
		}
	}
}

// allreduceCheck sums elems float64s per rank on Mini(2,3) and checks every
// element on every rank.
func allreduceCheck(t *testing.T, l rivals.Lib, elems int) {
	spec := cluster.Mini(2, 3)
	ranks := spec.Ranks()
	runLib(t, l, spec, func(ops bench.Ops, p *mpi.Proc) {
		vals := make([]float64, elems)
		for i := range vals {
			vals[i] = float64(p.Rank + 2*i)
		}
		sbuf := mpi.Bytes(mpi.EncodeFloat64s(vals))
		rbuf := mpi.Bytes(make([]byte, sbuf.N))
		ops.Allreduce(p, sbuf, rbuf, mpi.OpSum, mpi.Float64)
		got := mpi.DecodeFloat64s(rbuf.B)
		for i := range got {
			want := float64(ranks*(ranks-1))/2 + float64(2*i*ranks)
			if got[i] != want {
				t.Errorf("rank %d elem %d: got %v want %v", p.Rank, i, got[i], want)
				return
			}
		}
	})
}

func TestAllRivalsAllreduceCorrect(t *testing.T) {
	for _, l := range allLibs() {
		t.Run(l.String(), func(t *testing.T) { allreduceCheck(t, l, 40) })
	}
}

// At 1 MiB the hierarchical rivals reduce on solo and broadcast on sm.
func TestAllRivalsAllreduceLargeCorrect(t *testing.T) {
	for _, l := range allLibs() {
		t.Run(l.String(), func(t *testing.T) { allreduceCheck(t, l, (1<<20)/8) })
	}
}

func TestRivalsSingleNode(t *testing.T) {
	spec := cluster.Mini(1, 4)
	for _, l := range allLibs() {
		t.Run(l.String(), func(t *testing.T) {
			runLib(t, l, spec, func(ops bench.Ops, p *mpi.Proc) {
				buf := make([]byte, 128)
				if p.Rank == 0 {
					for i := range buf {
						buf[i] = byte(i)
					}
				}
				ops.Bcast(p, mpi.Bytes(buf), 0)
				if buf[100] != 100 {
					t.Errorf("rank %d: single-node bcast wrong", p.Rank)
				}
			})
		})
	}
}

func TestAllRivalsReduceCorrect(t *testing.T) {
	spec := cluster.Mini(2, 3)
	ranks := spec.Ranks()
	for _, l := range allLibs() {
		for _, root := range []int{0, 4} {
			t.Run(fmt.Sprintf("%v/root%d", l, root), func(t *testing.T) {
				runLib(t, l, spec, func(ops bench.Ops, p *mpi.Proc) {
					vals := []float64{float64(p.Rank), 7}
					sbuf := mpi.Bytes(mpi.EncodeFloat64s(vals))
					rbuf := mpi.Bytes(make([]byte, sbuf.N))
					ops.Reduce(p, sbuf, rbuf, mpi.OpSum, mpi.Float64, root)
					if p.Rank == root {
						got := mpi.DecodeFloat64s(rbuf.B)
						want0 := float64(ranks*(ranks-1)) / 2
						if got[0] != want0 || got[1] != 7*float64(ranks) {
							t.Errorf("got %v, want [%v %v]", got, want0, 7*float64(ranks))
						}
					}
				})
			})
		}
	}
}

// Gather, Allgather and Scatter, which every rival runs flat: every rank's
// block lands, in rank order, where the kind delivers it.
func TestAllRivalsBlocksCorrect(t *testing.T) {
	spec := cluster.Mini(2, 3)
	ranks, n := spec.Ranks(), 24
	var all []byte
	for r := 0; r < ranks; r++ {
		all = append(all, pattern(r, n)...)
	}
	for _, l := range allLibs() {
		for _, root := range []int{0, 4} {
			t.Run(fmt.Sprintf("%v/root%d", l, root), func(t *testing.T) {
				runLib(t, l, spec, func(ops bench.Ops, p *mpi.Proc) {
					mine := mpi.Bytes(pattern(p.Rank, n))
					got := mpi.Bytes(make([]byte, ranks*n))
					ops.Gather(p, mine, got, root)
					if p.Rank == root && !bytes.Equal(got.B, all) {
						t.Errorf("gather: root %d holds the wrong blocks", root)
					}
					got = mpi.Bytes(make([]byte, ranks*n))
					ops.Allgather(p, mine, got)
					if !bytes.Equal(got.B, all) {
						t.Errorf("allgather: rank %d holds the wrong blocks", p.Rank)
					}
					src, block := mpi.Bytes(make([]byte, ranks*n)), mpi.Bytes(make([]byte, n))
					if p.Rank == root {
						copy(src.B, all)
					}
					ops.Scatter(p, src, block, root)
					if !bytes.Equal(block.B, mine.B) {
						t.Errorf("scatter: rank %d got the wrong block", p.Rank)
					}
				})
			})
		}
	}
}
