package autotune

import "github.com/hanrepro/han/internal/han"

// This file implements the paper's cost model: the collective cost is the
// maximum over node leaders of the summed task costs, with the steady-state
// pipeline stage replaced by (count x stabilised cost) — equations (3) and
// (4), which are one formula over a stage table of depth d.

// Estimate evaluates the cost model for an m-byte collective of u =
// SegmentsOf(tt.Cfg, m) segments. A u-segment run of a depth-d table takes
// u+d-1 steps; per leader i its cost is the d-1 fill steps, the last
// min(u, d-1) drain steps, and u-d+1 stabilised middle steps:
//
//	max_i ( Σ fill_i + Σ drain_i + (u-d+1) * T_i(middle(s)) )
//
// For a Bcast (d = 2) that is equation (3), T_i(ib(0)) + T_i(sb(u-1)) +
// (u-1) * T_i(sbib(s)); for an Allreduce (d = 4) equation (4), sr, irsr,
// ibirsr, then sbibir, sbib, sb, then (u-3) * sbibirsr(s). A pipeline
// shorter than d-1 segments has no middle step and fewer drain steps, but
// still passes through every fill step (slightly overestimated for u < d-1,
// since the measured fill steps carry extra concurrent tasks).
func Estimate(tt TableTasks, m int) float64 {
	u := SegmentsOf(tt.Cfg, m)
	d := len(tt.Steps) - SBIBSeriesLen + 1
	drain := min(u, d-1)
	best := 0.0
	for l := range tt.Steps[0] {
		// Fill, drain, then middle: float addition does not reassociate,
		// and the recorded table hashes pin this order.
		c := 0.0
		for _, row := range tt.Steps[:d-1] {
			c += row[l]
		}
		for _, row := range tt.Steps[len(tt.Steps)-drain:] {
			c += row[l]
		}
		if u > d-1 {
			// float64(...) rounds the product, so no architecture fuses it (make fma).
			c += float64(float64(u-d+1) * tt.Stable(l))
		}
		if c > best {
			best = c
		}
	}
	return best
}

// SegmentsOf returns u = ceil(m/fs) for a configuration: 1 for an
// unsegmented one, for a segment larger than the message, and for m = 0.
func SegmentsOf(cfg han.Config, m int) int {
	fs := cfg.FS
	if fs <= 0 || fs > m {
		return 1
	}
	return (m + fs - 1) / fs
}
