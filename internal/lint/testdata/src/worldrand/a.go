// Fixture for the fence pass's rand rows outside the internal/mpi home: global
// draws and ad hoc RNG construction are violations; drawing from an
// injected *rand.Rand (the world's seeded plumbing) is the sanctioned
// pattern.
package worldrand

import "math/rand"

func bad(n int) int {
	rand.Shuffle(n, func(i, j int) {}) // want "rand.Shuffle draws from the process-global source"
	rand.Seed(42)                      // want "rand.Seed draws from the process-global source"
	return rand.Intn(n)                // want "rand.Intn draws from the process-global source"
}

func badConstruct() *rand.Rand {
	return rand.New(rand.NewSource(42)) // want "rand.New constructs an RNG outside internal/mpi" "rand.NewSource constructs an RNG outside internal/mpi"
}

// good draws from an RNG handed down from the world's seeded plumbing —
// the pattern the pass steers toward.
func good(rng *rand.Rand, n int) int {
	return rng.Intn(n)
}

func allowed() *rand.Rand {
	return rand.New(rand.NewSource(7)) //hanlint:allow fence deterministic fixture generator, seed is part of the test name
}
