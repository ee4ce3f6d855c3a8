// Fixture for the fence pass's rand rows inside their internal/mpi home: the seeded
// plumbing may construct RNGs, but even here the process-global source
// stays off limits.
package mpi

import "math/rand"

type World struct{ rng *rand.Rand }

// Seed mirrors the real world plumbing: constructing a seeded RNG in
// internal/mpi is the one sanctioned place.
func (w *World) Seed(seed int64) { w.rng = rand.New(rand.NewSource(seed)) }

func (w *World) badGlobal() int64 {
	return rand.Int63() // want "rand.Int63 draws from the process-global source"
}
