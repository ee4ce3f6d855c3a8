package autotune

import (
	"bytes"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

func onlineSpace() Space {
	return Space{
		Msgs:  []int{1 << 20},
		FS:    []int{256 << 10, 1 << 20},
		IMods: []string{"libnbc", "adapt"},
		SMods: []string{"sm"},
		IBS:   []int{64 << 10},
	}
}

// runOnline runs `calls` broadcasts of size m under the online tuner and
// returns the per-call durations (max across ranks) plus the tuner.
func runOnline(t *testing.T, spec cluster.Spec, m, calls int) ([]float64, *OnlineTuner) {
	t.Helper()
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	h := han.New(w)
	tuner := NewOnlineTuner(h, onlineSpace())
	durs := make([]float64, calls)
	w.Start(func(p *mpi.Proc) {
		c := w.World()
		for i := 0; i < calls; i++ {
			c.Barrier(p)
			t0 := p.Now()
			tuner.Bcast(p, mpi.Phantom(m), 0)
			if d := float64(p.Now() - t0); d > durs[i] {
				durs[i] = d
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return durs, tuner
}

func TestOnlineTunerConvergesToGoodConfig(t *testing.T) {
	spec := cluster.Mini(4, 4)
	m := 1 << 20
	env := NewEnv(spec, mpi.OpenMPI())
	cands := onlineSpace().Expand(coll.Bcast, m, true, spec.Nodes)
	calls := len(cands)*2 + 6
	durs, tuner := runOnline(t, spec, m, calls)
	if !tuner.Converged(coll.Bcast, m) {
		t.Fatal("tuner did not converge")
	}
	chosen := tuner.Chosen(coll.Bcast, m)
	// The chosen config must measure within 25% of the best candidate.
	meter := &Meter{}
	best := -1.0
	for _, cand := range cands {
		d := env.MeasureCollective(coll.Bcast, m, cand.Cfg, 2, meter)
		if best < 0 || d < best {
			best = d
		}
	}
	got := env.MeasureCollective(coll.Bcast, m, chosen, 2, meter)
	if got > best*1.25 {
		t.Errorf("online pick %v measures %.3g, best %.3g", chosen, got, best)
	}
	// Post-convergence calls must be no slower than the average trial call
	// (the convergence period is the cost of online tuning).
	trial := 0.0
	for _, d := range durs[:len(cands)*2] {
		trial += d
	}
	trial /= float64(len(cands) * 2)
	settled := durs[len(durs)-1]
	if settled > trial {
		t.Errorf("settled call %.3g slower than average trial call %.3g", settled, trial)
	}
}

func TestOnlineTunerDeliversDataDuringTrials(t *testing.T) {
	// Correctness must hold from call one, long before convergence.
	spec := cluster.Mini(2, 3)
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	h := han.New(w)
	tuner := NewOnlineTuner(h, onlineSpace())
	payload := make([]byte, 2000)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	w.Start(func(p *mpi.Proc) {
		for i := 0; i < 5; i++ {
			buf := make([]byte, len(payload))
			if p.Rank == 0 {
				copy(buf, payload)
			}
			tuner.Bcast(p, mpi.Bytes(buf), 0)
			if !bytes.Equal(buf, payload) {
				t.Errorf("call %d rank %d: payload corrupted", i, p.Rank)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
