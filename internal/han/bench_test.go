package han

import (
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// BenchmarkAllreducePipeline runs 64 eight-segment allreduces on one
// Mini(4,4) world per iteration, so the han layer's own cost — above all
// its allocations per call — shows without a 1024-rank run: the world is
// built outside the timer and the traffic under the pipeline is 16 ranks'
// worth. The step loop, stage table and request scratch allocate nothing;
// what remains per call is the submodules' and the runtime's.
func BenchmarkAllreducePipeline(b *testing.B) {
	const calls, n = 64, 512 << 10
	cfg := stepCfg() // 64 KiB segments: u = 8
	b.ReportAllocs()
	var end sim.Time
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.New()
		w := mpi.NewWorld(cluster.NewMachine(eng, cluster.Mini(4, 4)), mpi.OpenMPI())
		h := New(w)
		w.Start(func(p *mpi.Proc) {
			for c := 0; c < calls; c++ {
				if err := h.Allreduce(p, mpi.Phantom(n), mpi.Phantom(n), mpi.OpSum, mpi.Float64, cfg); err != nil {
					b.Errorf("rank %d: %v", p.Rank, err)
				}
			}
		})
		b.StartTimer()
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		end = eng.Now()
	}
	b.ReportMetric(float64(end)*1e6/calls, "sim-us/call")
}
