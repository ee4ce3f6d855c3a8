package mpi

import (
	"math"
	"sort"
)

// Personality captures the software-side performance character of an MPI
// library's point-to-point layer: per-message progression overheads, the
// eager/rendezvous switch point, added software latency, and a
// size-dependent bandwidth efficiency curve.
//
// Hardware capacities live in cluster.Spec; personalities are how the
// reproduction distinguishes Open MPI from Cray MPI, Intel MPI, and
// MVAPICH2, whose P2P differences the paper measures with Netpipe (Fig 11).
type Personality struct {
	// Name identifies the library in reports.
	Name string
	// SendOverhead and RecvOverhead are CPU progress-engine work per
	// message, in seconds.
	SendOverhead float64
	RecvOverhead float64
	// SoftLatency is software latency added to every message on top of the
	// hardware wire latency.
	SoftLatency float64
	// EagerThreshold is the largest message size (bytes) sent eagerly;
	// larger messages use the rendezvous protocol (an extra round trip).
	EagerThreshold int
	// Efficiency maps message size to the achieved fraction of peak
	// bandwidth, interpolated log-linearly between the listed points.
	// Sizes must be ascending. An empty curve means perfect efficiency.
	Efficiency []EffPoint
	// Jitter injects system noise: each message's latency is multiplied by
	// a uniform factor in [1, 1+Jitter]. Zero disables noise. Noise is
	// drawn from the world's deterministic RNG, so seeded runs stay
	// reproducible.
	Jitter float64
}

// EffPoint is one point of a bandwidth-efficiency curve.
type EffPoint struct {
	Size int     // message size in bytes
	Eff  float64 // fraction of peak bandwidth achieved, in (0, 1]
}

// Eff returns the bandwidth efficiency for an n-byte message,
// log-interpolating between curve points and clamping at the ends.
func (p *Personality) Eff(n int) float64 {
	c := p.Efficiency
	if len(c) == 0 {
		return 1.0
	}
	if n <= c[0].Size {
		return c[0].Eff
	}
	if n >= c[len(c)-1].Size {
		return c[len(c)-1].Eff
	}
	i := sort.Search(len(c), func(i int) bool { return c[i].Size >= n })
	lo, hi := c[i-1], c[i]
	// Log-linear interpolation in size.
	t := (math.Log(float64(n)) - math.Log(float64(lo.Size))) /
		(math.Log(float64(hi.Size)) - math.Log(float64(lo.Size)))
	// float64(...) rounds the product, so no architecture fuses it (make fma).
	return lo.Eff + float64(t*(hi.Eff-lo.Eff))
}

// OpenMPI returns the personality of Open MPI 4.0.0's P2P layer, the base
// both "default Open MPI" and HAN run on. Its efficiency curve reproduces
// the Fig 11 shape: a pronounced dip between 16 KB and 512 KB (protocol and
// pipelining inefficiencies), recovering to the same peak as Cray MPI for
// multi-megabyte messages.
func OpenMPI() *Personality {
	return &Personality{
		Name:           "OpenMPI",
		SendOverhead:   0.4e-6,
		RecvOverhead:   0.4e-6,
		SoftLatency:    0.3e-6,
		EagerThreshold: 8 << 10,
		Efficiency: []EffPoint{
			{1, 0.90}, {512, 0.88}, {4 << 10, 0.80}, {16 << 10, 0.55},
			{64 << 10, 0.50}, {256 << 10, 0.58}, {512 << 10, 0.70},
			{2 << 20, 0.90}, {8 << 20, 0.97}, {64 << 20, 0.98},
		},
	}
}
