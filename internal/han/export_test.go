package han

import (
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
)

// Test-only exports for the external golden test (package han_test, which
// may import autotune without an import cycle).
var (
	NumaSpec = numaSpec
	GPUSpec  = gpuSpec
	StepCfg  = stepCfg
)

// StartComm is Start on communicator c for a broadcast or an allreduce: the
// call BcastComm or AllreduceComm runs, as a routine.
func (h *HAN) StartComm(p *mpi.Proc, c *mpi.Comm, kind coll.Kind, sbuf, rbuf mpi.Buf, root int, cfg Config) *Call {
	if c == h.W.World() {
		return h.Start(p, kind, sbuf, rbuf, mpi.OpSum, mpi.Float64, root, cfg)
	}
	span := "han.AllreduceComm"
	if kind == coll.Bcast {
		span = "han.BcastComm"
	}
	return h.start(p, &call{span: span, kind: kind, comm: c, src: sbuf, dst: rbuf, op: mpi.OpSum, dt: mpi.Float64, root: root}, &cfg)
}
