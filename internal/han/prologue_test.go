package han

import (
	"errors"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/mpi"
)

// The tests of the shared prologue: what every entry point does before
// (and after) its pipeline, checked over all of them at once.

// entryPoints calls each pipelined entry point with an n-byte buffer from
// world rank root; the Comm forms run on a sub-communicator holding every
// rank (a distinct communicator, so they do not alias the world forms).
var entryPoints = []struct {
	name string
	call func(h *HAN, p *mpi.Proc, n, root int) error
}{
	{"Bcast", func(h *HAN, p *mpi.Proc, n, root int) error { return h.Bcast(p, mpi.Phantom(n), root, Config{}) }},
	{"BcastComm", func(h *HAN, p *mpi.Proc, n, root int) error {
		return h.BcastComm(p, everyone(h), mpi.Phantom(n), root, Config{})
	}},
	{"Bcast3", func(h *HAN, p *mpi.Proc, n, root int) error { return h.Bcast3(p, mpi.Phantom(n), root, Config{}) }},
	{"BcastGPU", func(h *HAN, p *mpi.Proc, n, root int) error { return h.BcastGPU(p, mpi.Phantom(n), root, Config{}) }},
	{"Allreduce", func(h *HAN, p *mpi.Proc, n, root int) error {
		return h.Allreduce(p, mpi.Phantom(n), mpi.Phantom(n), mpi.OpSum, mpi.Float64, Config{})
	}},
	{"AllreduceComm", func(h *HAN, p *mpi.Proc, n, root int) error {
		return h.AllreduceComm(p, everyone(h), mpi.Phantom(n), mpi.Phantom(n), mpi.OpSum, mpi.Float64, Config{})
	}},
	{"Allreduce3", func(h *HAN, p *mpi.Proc, n, root int) error {
		return h.Allreduce3(p, mpi.Phantom(n), mpi.Phantom(n), mpi.OpSum, mpi.Float64, Config{})
	}},
	{"AllreduceGPU", func(h *HAN, p *mpi.Proc, n, root int) error {
		return h.AllreduceGPU(p, mpi.Phantom(n), mpi.Phantom(n), mpi.OpSum, mpi.Float64, Config{})
	}},
	{"Reduce", func(h *HAN, p *mpi.Proc, n, root int) error {
		return h.Reduce(p, mpi.Phantom(n), mpi.Phantom(n), mpi.OpSum, mpi.Float64, root, Config{})
	}},
	// The block collectives: n is the rank's block.
	{"Gather", func(h *HAN, p *mpi.Proc, n, root int) error {
		return h.Gather(p, mpi.Phantom(n), mpi.Phantom(n*h.W.Size()), root, Config{})
	}},
	{"Scatter", func(h *HAN, p *mpi.Proc, n, root int) error {
		return h.Scatter(p, mpi.Phantom(n*h.W.Size()), mpi.Phantom(n), root, Config{})
	}},
	{"Allgather", func(h *HAN, p *mpi.Proc, n, root int) error {
		return h.Allgather(p, mpi.Phantom(n), mpi.Phantom(n*h.W.Size()), Config{})
	}},
}

// survives reports whether an entry point has a survivor form: under Shrink
// the broadcasts and allreduces complete on the survivors, the others fail
// as under Abort.
func survives(name string) bool {
	return strings.HasPrefix(name, "Bcast") || strings.HasPrefix(name, "Allreduce")
}

func everyone(h *HAN) *mpi.Comm {
	all := make([]int, h.W.Size())
	for i := range all {
		all[i] = i
	}
	return h.W.World().Sub("test:everyone", all)
}

// A call that moves nothing returns nil before any degradation is
// considered: an empty broadcast from a non-leader root on a machine with
// neither sockets nor GPUs used to come back from Bcast3/BcastGPU as a
// *FallbackError and count a fallback, and so did a one-rank world.
func TestNoOpCallsReturnNilWithoutFallback(t *testing.T) {
	for _, world := range []struct {
		name    string
		spec    cluster.Spec
		n, root int
	}{
		{"empty buffer", cluster.Mini(2, 2), 0, 1},
		{"single rank", cluster.Mini(1, 1), 1 << 10, 0},
	} {
		for _, ep := range entryPoints {
			t.Run(world.name+"/"+ep.name, func(t *testing.T) {
				h, _, err := runCrashHAN(t, world.spec, 1, fault.Plan{}, Abort, func(h *HAN, p *mpi.Proc) {
					if err := ep.call(h, p, world.n, world.root); err != nil {
						t.Errorf("rank %d: %v, want nil", p.Rank, err)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, fam := range h.W.Metrics().Families() {
					if fam == "han_fallbacks" || fam == "han_collectives" {
						t.Errorf("a no-op call registered %s", fam)
					}
				}
			})
		}
	}
}

// The buffer that holds every rank's block is checked against the world's
// extent, on every rank of an Allgather.
func TestAllgatherBufferMismatch(t *testing.T) {
	runWorld(t, cluster.Mini(2, 2), func(h *HAN, p *mpi.Proc) {
		err := h.Allgather(p, mpi.Phantom(100), mpi.Phantom(300), Config{})
		var be *BufferSizeError
		if !errors.As(err, &be) || be.Got != 300 || be.Want != 400 {
			t.Errorf("rank %d: err = %v, want *BufferSizeError{Got:300, Want:400}", p.Rank, err)
		}
	})
}
