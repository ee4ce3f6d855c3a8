package han

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*13 + salt
	}
	return b
}

// runWorld builds a world on spec and runs fn with a shared HAN instance.
func runWorld(t *testing.T, spec cluster.Spec, fn func(h *HAN, p *mpi.Proc)) sim.Time {
	t.Helper()
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	h := New(w)
	w.Start(func(p *mpi.Proc) { fn(h, p) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng.Now()
}

func TestBcastCorrectAcrossConfigs(t *testing.T) {
	spec := cluster.Mini(3, 4)
	configs := []Config{
		{}, // decision function
		{FS: 1 << 10, IMod: "libnbc", SMod: "sm", IBAlg: coll.AlgBinomial},
		{FS: 2 << 10, IMod: "adapt", SMod: "solo", IBAlg: coll.AlgChain, IBS: 512},
		{FS: 1 << 20, IMod: "adapt", SMod: "sm", IBAlg: coll.AlgBinary, IBS: 4 << 10},
		{FS: 1 << 10, IMod: "libnbc", SMod: "sm", SBMod: "solo"},
		{Top: TopFlat},
	}
	for ci, cfg := range configs {
		for _, root := range []int{0, 1, 5, 11} { // leader and non-leader roots
			for _, n := range []int{1, 1000, 10 << 10} {
				name := fmt.Sprintf("cfg%d/root%d/n%d", ci, root, n)
				t.Run(name, func(t *testing.T) {
					want := pattern(n, byte(root))
					runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
						buf := make([]byte, n)
						if p.Rank == root {
							copy(buf, want)
						}
						h.Bcast(p, mpi.Bytes(buf), root, cfg)
						if !bytes.Equal(buf, want) {
							t.Errorf("rank %d: wrong payload after Bcast", p.Rank)
						}
					})
				})
			}
		}
	}
}

func TestBcastSingleNode(t *testing.T) {
	spec := cluster.Mini(1, 6)
	want := pattern(5000, 1)
	runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		buf := make([]byte, len(want))
		if p.Rank == 3 {
			copy(buf, want)
		}
		h.Bcast(p, mpi.Bytes(buf), 3, Config{FS: 1 << 10})
		if !bytes.Equal(buf, want) {
			t.Errorf("rank %d wrong", p.Rank)
		}
	})
}

func TestAllreduceCorrect(t *testing.T) {
	spec := cluster.Mini(3, 4)
	ranks := spec.Ranks()
	configs := []Config{
		{},
		{FS: 512, IMod: "libnbc", SMod: "sm"},
		{FS: 2 << 10, IMod: "adapt", SMod: "solo", IBAlg: coll.AlgBinary, IBS: 1 << 10, IRS: 1 << 10},
		{FS: 512, IMod: "libnbc", SMod: "solo", SBMod: "sm", IRAlg: coll.AlgRing, Top: TopFused},
		{FS: 2 << 10, IMod: "adapt", SMod: "sm", Top: TopFused},
		{Top: TopFlat},
	}
	for ci, cfg := range configs {
		for _, elems := range []int{1, 10, 700} {
			t.Run(fmt.Sprintf("cfg%d/elems%d", ci, elems), func(t *testing.T) {
				runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
					vals := make([]float64, elems)
					for i := range vals {
						vals[i] = float64(p.Rank + i)
					}
					sbuf := mpi.Bytes(mpi.EncodeFloat64s(vals))
					rbuf := mpi.Bytes(make([]byte, sbuf.N))
					h.Allreduce(p, sbuf, rbuf, mpi.OpSum, mpi.Float64, cfg)
					got := mpi.DecodeFloat64s(rbuf.B)
					for i := range got {
						want := float64(ranks*i) + float64(ranks*(ranks-1))/2
						if got[i] != want {
							t.Errorf("rank %d elem %d: got %v want %v", p.Rank, i, got[i], want)
							return
						}
					}
				})
			})
		}
	}
}

func TestReduceCorrectLeaderAndNonLeaderRoots(t *testing.T) {
	spec := cluster.Mini(2, 3)
	ranks := spec.Ranks()
	for _, root := range []int{0, 4} {
		t.Run(fmt.Sprintf("root%d", root), func(t *testing.T) {
			runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
				elems := 50
				vals := make([]float64, elems)
				for i := range vals {
					vals[i] = float64(p.Rank*10 + i)
				}
				sbuf := mpi.Bytes(mpi.EncodeFloat64s(vals))
				rbuf := mpi.Bytes(make([]byte, sbuf.N))
				h.Reduce(p, sbuf, rbuf, mpi.OpSum, mpi.Float64, root, Config{FS: 128})
				if p.Rank == root {
					got := mpi.DecodeFloat64s(rbuf.B)
					for i := range got {
						want := float64(ranks*i) + 10*float64(ranks*(ranks-1))/2
						if got[i] != want {
							t.Errorf("elem %d: got %v want %v", i, got[i], want)
							return
						}
					}
				}
			})
		})
	}
}

func TestGatherScatterAllgather(t *testing.T) {
	spec := cluster.Mini(2, 3)
	n := spec.Ranks()
	const blk = 96
	for _, root := range []int{0, 4} {
		t.Run(fmt.Sprintf("gather/root%d", root), func(t *testing.T) {
			runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
				sbuf := mpi.Bytes(pattern(blk, byte(p.Rank)))
				rbuf := mpi.Bytes(make([]byte, n*blk))
				degradedOK(t, p, "Gather", h.Gather(p, sbuf, rbuf, root, Config{}))
				if p.Rank == root {
					for r := 0; r < n; r++ {
						if !bytes.Equal(rbuf.B[r*blk:(r+1)*blk], pattern(blk, byte(r))) {
							t.Errorf("gather block %d wrong", r)
						}
					}
				}
			})
		})
		t.Run(fmt.Sprintf("scatter/root%d", root), func(t *testing.T) {
			runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
				var sbuf mpi.Buf
				if p.Rank == root {
					all := make([]byte, n*blk)
					for r := 0; r < n; r++ {
						copy(all[r*blk:], pattern(blk, byte(r+1)))
					}
					sbuf = mpi.Bytes(all)
				} else {
					sbuf = mpi.Phantom(n * blk)
				}
				rbuf := mpi.Bytes(make([]byte, blk))
				degradedOK(t, p, "Scatter", h.Scatter(p, sbuf, rbuf, root, Config{}))
				if !bytes.Equal(rbuf.B, pattern(blk, byte(p.Rank+1))) {
					t.Errorf("rank %d scatter block wrong", p.Rank)
				}
			})
		})
	}
	t.Run("allgather", func(t *testing.T) {
		runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
			sbuf := mpi.Bytes(pattern(blk, byte(p.Rank)))
			rbuf := mpi.Bytes(make([]byte, n*blk))
			degradedOK(t, p, "Allgather", h.Allgather(p, sbuf, rbuf, Config{}))
			for r := 0; r < n; r++ {
				if !bytes.Equal(rbuf.B[r*blk:(r+1)*blk], pattern(blk, byte(r))) {
					t.Errorf("rank %d allgather block %d wrong", p.Rank, r)
				}
			}
		})
	})
}

// A Gather holds the world's blocks in two places, the root's rbuf and, for
// a root that is not a node leader, its leader's landing buffer; every other
// leader holds its node's. Every leader used to allocate a landing buffer of
// the world's extent, nodes x world bytes in all — 16 extents more than the
// 6.6 this run allocates, which besides the buffers above covers the ranks'
// sbufs, the shared-memory snapshots and the simulator itself.
func TestGatherAllocatesWorldExtentOnlyAtRoot(t *testing.T) {
	spec := cluster.Mini(16, 2)
	const blk, root = 32 << 10, 1
	world := spec.Ranks() * blk
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		var rbuf mpi.Buf
		if p.Rank == root {
			rbuf = mpi.Bytes(make([]byte, world))
		}
		degradedOK(t, p, "Gather", h.Gather(p, mpi.Bytes(make([]byte, blk)), rbuf, root, Config{}))
	})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8*uint64(world) {
		t.Errorf("a Gather of %d-byte blocks on %d nodes allocated %d bytes, %.1f times the world's extent: want at most 8",
			blk, spec.Nodes, got, float64(got)/float64(world))
	}
}

// timeBcast measures a HAN broadcast completion time with phantom payloads.
func timeBcast(t *testing.T, spec cluster.Spec, n int, cfg Config) sim.Time {
	t.Helper()
	return runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		h.Bcast(p, mpi.Phantom(n), 0, cfg)
	})
}

// Pipelining ablation: for large messages, segmenting must beat a single
// segment (fs = m) thanks to ib/sb overlap — the core claim of Fig 1.
func TestSegmentationBeatsNoPipelineForLargeBcast(t *testing.T) {
	spec := cluster.Mini(4, 8)
	n := 8 << 20
	piped := timeBcast(t, spec, n, Config{FS: 512 << 10, IMod: "adapt", SMod: "solo", IBAlg: coll.AlgBinary, IBS: 64 << 10})
	mono := timeBcast(t, spec, n, Config{FS: n, IMod: "adapt", SMod: "solo", IBAlg: coll.AlgBinary, IBS: 64 << 10})
	if piped >= mono {
		t.Errorf("pipelined bcast (%v) should beat unsegmented (%v)", piped, mono)
	}
}

// HAN vs default Open MPI (tuned module, flat): the headline comparison of
// Figs 10/12. On a hierarchical machine HAN must win for both a small and a
// large message.
func TestHANBeatsTunedFlat(t *testing.T) {
	spec := cluster.Mini(4, 8)
	tuned := coll.NewTuned()
	timeTuned := func(n int) sim.Time {
		var end sim.Time
		_, err := mpi.Run(spec, mpi.OpenMPI(), func(p *mpi.Proc) {
			c := p.W.World()
			p.Wait(tuned.Ibcast(p, c, mpi.Phantom(n), 0, coll.Params{}))
			if p.Now() > end {
				end = p.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	for _, n := range []int{64 << 10, 8 << 20} {
		hanT := timeBcast(t, spec, n, Config{})
		flatT := timeTuned(n)
		if hanT >= flatT {
			t.Errorf("n=%d: HAN (%v) should beat flat tuned (%v)", n, hanT, flatT)
		}
	}
}

// Property: HAN Bcast delivers for random sizes/segment sizes/roots.
func TestQuickBcastAlwaysDelivers(t *testing.T) {
	spec := cluster.Mini(2, 3)
	f := func(rawN uint16, rawFS uint16, rawRoot uint8) bool {
		n := int(rawN%4000) + 1
		fs := int(rawFS%2048) + 1
		root := int(rawRoot) % spec.Ranks()
		want := pattern(n, byte(root+7))
		ok := true
		eng := sim.New()
		w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
		h := New(w)
		w.Start(func(p *mpi.Proc) {
			buf := make([]byte, n)
			if p.Rank == root {
				copy(buf, want)
			}
			h.Bcast(p, mpi.Bytes(buf), root, Config{FS: fs})
			if !bytes.Equal(buf, want) {
				ok = false
			}
		})
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: HAN Allreduce equals the sequential reduction for random
// float64 inputs.
func TestQuickAllreduceMatchesSequential(t *testing.T) {
	spec := cluster.Mini(2, 2)
	ranks := spec.Ranks()
	f := func(rawE uint8, rawFS uint16) bool {
		elems := int(rawE%60) + 1
		fs := (int(rawFS%512) + 1) * 8
		ok := true
		eng := sim.New()
		w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
		h := New(w)
		w.Start(func(p *mpi.Proc) {
			vals := make([]float64, elems)
			for i := range vals {
				vals[i] = float64((p.Rank + 1) * (i + 1))
			}
			sbuf := mpi.Bytes(mpi.EncodeFloat64s(vals))
			rbuf := mpi.Bytes(make([]byte, sbuf.N))
			h.Allreduce(p, sbuf, rbuf, mpi.OpSum, mpi.Float64, Config{FS: fs})
			got := mpi.DecodeFloat64s(rbuf.B)
			for i := range got {
				var want float64
				for r := 1; r <= ranks; r++ {
					want += float64(r * (i + 1))
				}
				if got[i] != want {
					ok = false
					return
				}
			}
		})
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigStringAndSizeString(t *testing.T) {
	c := Config{FS: 512 << 10, IMod: "adapt", SMod: "solo", IBAlg: coll.AlgBinary, IRAlg: coll.AlgBinary, IBS: 64 << 10, IRS: 1 << 20}
	s := c.String()
	for _, want := range []string{"fs=512KB", "imod=adapt", "smod=solo", "ibalg=binary", "ibs=64KB", "irs=1MB"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("Config.String() = %q missing %q", s, want)
		}
	}
	if SizeString(12) != "12B" || SizeString(1<<10) != "1KB" || SizeString(3<<20) != "3MB" {
		t.Errorf("SizeString wrong: %s %s %s", SizeString(12), SizeString(1<<10), SizeString(3<<20))
	}
}

func TestDefaultDecisionHeuristics(t *testing.T) {
	small := DefaultDecision(coll.Bcast, 4<<10)
	if small.SMod != "sm" {
		t.Errorf("small messages should use SM, got %s", small.SMod)
	}
	large := DefaultDecision(coll.Bcast, 4<<20)
	if large.SMod != "solo" {
		t.Errorf("large messages should use SOLO (>512KB heuristic), got %s", large.SMod)
	}
}
