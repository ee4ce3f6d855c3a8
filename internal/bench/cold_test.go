package bench

import (
	"runtime"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// coldMallocs counts the objects one barrier and one HAN Bcast cost on a new
// world of spec, its build included: IMB's loop at one case and no timed
// iteration, on step ranks.
func coldMallocs(t *testing.T, spec cluster.Spec, size int) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	ops := HANSystem(nil).Setup(w)
	mpi.NewIMBLoop(w.World(), []int{0}, func(p *mpi.Proc, _ int) sim.Stepper {
		return ops.start(p, coll.Bcast, size)
	}).StartSteps()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// A cold world allocates per chunk, not per record: its machine, world,
// pools, events, pair records, helpers and their step arrays are carved from
// chunks, and no pool slot builds a closure, so the ranks a world has beyond
// another's cost it a small constant each — a share of chunks and of the few
// queues that outgrow their inline slot.
func TestColdWorldAllocatesPerChunk(t *testing.T) {
	const size = 256 << 10
	coldMallocs(t, cluster.Mini(16, 32), size) // grow the heap and the runtime's own tables first
	small := coldMallocs(t, cluster.Mini(16, 32), size)
	large := coldMallocs(t, cluster.Mini(32, 32), size)
	per := (float64(large) - float64(small)) / 512
	t.Logf("512 ranks: %d objects; 1024 ranks: %d; %.2f per extra rank", small, large, per)
	if per >= 3 {
		t.Errorf("%.2f objects per extra rank, want < 3", per)
	}
}
