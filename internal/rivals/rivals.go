// Package rivals models the competitor MPI libraries of the paper's
// evaluation: Cray MPI 7.7.0 (Shaheen II), Intel MPI 18.0.2 and
// MVAPICH2 2.3.1 (Stampede2), plus "default Open MPI 4.0.0" (the flat tuned
// module HAN is compared against on both machines).
//
// Closed-source libraries cannot be reimplemented faithfully; the paper
// itself characterises them through two observables — their point-to-point
// performance (the Netpipe curves of Fig 11) and their end-to-end
// collective times (Figs 10, 12, 13, 14). Each rival here is therefore a
// *personality* (per-message overheads, software latency and a
// size-dependent bandwidth-efficiency curve matching the published P2P
// behaviour) plus a *strategy*, the collective structure the library is
// known to use, written as a HAN decision (Decide) over modules with the
// library's AVX flag. Default Open MPI runs every kind flat on tuned. Cray
// MPI, Intel MPI and MVAPICH2 run Gather, Allgather and Scatter flat, and
// the other three as hierarchical, non-pipelined HAN tables of one segment:
// a node-level reduce (sm, solo from 512 KB) and an sm broadcast around a
// libnbc stage among the node leaders — a binomial tree for Bcast and
// Reduce, one fused allreduce for Allreduce (recursive doubling below
// 512 KB and a ring above; MVAPICH2's is a ring at every size). The intent
// is to preserve the comparison's shape — who wins, roughly by how much,
// and where the crossovers fall — not the authors' absolute numbers.
package rivals

import (
	"fmt"

	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
)

// Lib identifies an MPI implementation in the comparison set.
type Lib int

// The comparison set of the paper's evaluation section.
const (
	// OpenMPIDefault is Open MPI 4.0.0 with its default (tuned, flat)
	// collective module.
	OpenMPIDefault Lib = iota
	// CrayMPI is the system MPI of Shaheen II.
	CrayMPI
	// IntelMPI is Intel MPI 18.0.2 on Stampede2.
	IntelMPI
	// MVAPICH2 is MVAPICH2 2.3.1 on Stampede2.
	MVAPICH2
)

// String returns the library's display name.
func (l Lib) String() string {
	switch l {
	case OpenMPIDefault:
		return "OpenMPI-default"
	case CrayMPI:
		return "CrayMPI"
	case IntelMPI:
		return "IntelMPI"
	case MVAPICH2:
		return "MVAPICH2"
	}
	return fmt.Sprintf("lib(%d)", int(l))
}

// Personality returns the library's P2P character. The efficiency curves
// encode Fig 11: Open MPI dips between 16 KB and 512 KB where Cray MPI
// stays near peak; both converge to the same peak for multi-megabyte
// messages.
func (l Lib) Personality() *mpi.Personality {
	switch l {
	case OpenMPIDefault:
		return mpi.OpenMPI()
	case CrayMPI:
		return &mpi.Personality{
			Name:           "CrayMPI",
			SendOverhead:   0.25e-6,
			RecvOverhead:   0.25e-6,
			SoftLatency:    0.15e-6,
			EagerThreshold: 8 << 10,
			Efficiency: []mpi.EffPoint{
				{Size: 1, Eff: 0.93}, {Size: 4 << 10, Eff: 0.90},
				{Size: 16 << 10, Eff: 0.86}, {Size: 64 << 10, Eff: 0.85},
				{Size: 512 << 10, Eff: 0.90}, {Size: 2 << 20, Eff: 0.95},
				{Size: 64 << 20, Eff: 0.98},
			},
		}
	case IntelMPI:
		return &mpi.Personality{
			Name:           "IntelMPI",
			SendOverhead:   0.3e-6,
			RecvOverhead:   0.3e-6,
			SoftLatency:    0.2e-6,
			EagerThreshold: 16 << 10,
			Efficiency: []mpi.EffPoint{
				{Size: 1, Eff: 0.91}, {Size: 4 << 10, Eff: 0.86},
				{Size: 16 << 10, Eff: 0.75}, {Size: 64 << 10, Eff: 0.72},
				{Size: 512 << 10, Eff: 0.82}, {Size: 2 << 20, Eff: 0.92},
				{Size: 64 << 20, Eff: 0.97},
			},
		}
	case MVAPICH2:
		return &mpi.Personality{
			Name:           "MVAPICH2",
			SendOverhead:   0.35e-6,
			RecvOverhead:   0.35e-6,
			SoftLatency:    0.25e-6,
			EagerThreshold: 8 << 10,
			Efficiency: []mpi.EffPoint{
				{Size: 1, Eff: 0.90}, {Size: 4 << 10, Eff: 0.84},
				{Size: 16 << 10, Eff: 0.68}, {Size: 64 << 10, Eff: 0.66},
				{Size: 512 << 10, Eff: 0.78}, {Size: 2 << 20, Eff: 0.90},
				{Size: 64 << 20, Eff: 0.97},
			},
		}
	}
	panic("rivals: unknown library")
}

// AVX reports whether the library ships AVX-enabled reduction loops in
// its tuned, libnbc and sm modules — the advantage the paper cites for Cray
// MPI, Intel MPI and MVAPICH2 on small-message Allreduce.
func (l Lib) AVX() bool { return l != OpenMPIDefault }

// Decide is the library's strategy for one collective as a HAN
// configuration (see the package comment). Every table has one segment.
func (l Lib) Decide(kind coll.Kind, n int) han.Config {
	if l == OpenMPIDefault || kind == coll.Gather || kind == coll.Allgather || kind == coll.Scatter {
		return han.Config{Top: han.TopFlat}
	}
	cfg := han.Config{IMod: "libnbc", SMod: "sm", IBAlg: coll.AlgBinomial, IRAlg: coll.AlgBinomial}
	if n >= 512<<10 && kind != coll.Bcast {
		// The optimised shared-memory paths parallelise the folding.
		cfg.SMod = "solo"
	}
	if kind == coll.Allreduce {
		cfg.Top, cfg.SBMod, cfg.IRAlg = han.TopFused, "sm", coll.AlgRecursiveDoubling
		if n >= 512<<10 || l == MVAPICH2 {
			cfg.IRAlg = coll.AlgRing
		}
	}
	return cfg
}
