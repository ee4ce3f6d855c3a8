package mpi

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/sim"
)

func jitterPers(j float64) *Personality {
	p := OpenMPI()
	p.Jitter = j
	return p
}

func TestJitterPreservesCorrectness(t *testing.T) {
	spec := cluster.Mini(2, 3)
	payload := []byte("noisy but correct")
	var got []byte
	_, err := Run(spec, jitterPers(0.5), func(p *Proc) {
		c := p.W.World()
		switch c.Rank(p) {
		case 0:
			c.Send(p, Bytes(payload), 5, 1)
		case 5:
			buf := make([]byte, len(payload))
			c.Recv(p, Bytes(buf), 0, 1)
			got = buf
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted under jitter: %q", got)
	}
}

func TestJitterSlowsAndSeedReproduces(t *testing.T) {
	spec := cluster.Mini(2, 2)
	timeWith := func(j float64, seed int64) sim.Time {
		eng := sim.New()
		w := NewWorld(cluster.NewMachine(eng, spec), jitterPers(j))
		w.Seed(seed)
		w.Start(func(p *Proc) {
			c := w.World()
			for i := 0; i < 10; i++ {
				switch c.Rank(p) {
				case 0:
					c.Send(p, Phantom(1024), 2, i)
				case 2:
					c.Recv(p, Phantom(1024), 0, i)
				}
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	clean := timeWith(0, 1)
	noisyA := timeWith(1.0, 7)
	noisyB := timeWith(1.0, 7)
	noisyC := timeWith(1.0, 8)
	if noisyA <= clean {
		t.Errorf("jitter should slow the run: %v <= %v", noisyA, clean)
	}
	if noisyA != noisyB {
		t.Errorf("same seed must reproduce: %v != %v", noisyA, noisyB)
	}
	if noisyA == noisyC {
		t.Error("different seeds should (almost surely) differ")
	}
}

// Property: under arbitrary jitter and seeds, a randomized traffic pattern
// still delivers every payload (the matching engine is noise-proof).
func TestQuickJitterNeverBreaksMatching(t *testing.T) {
	spec := cluster.Mini(2, 2)
	n := spec.Ranks()
	f := func(seed int64, rawJitter uint8) bool {
		jitter := float64(rawJitter%50) / 10 // 0..4.9
		ok := true
		eng := sim.New()
		w := NewWorld(cluster.NewMachine(eng, spec), jitterPers(jitter))
		w.Seed(seed)
		w.Start(func(p *Proc) {
			c := w.World()
			me := c.Rank(p)
			var reqs []*Request
			for dst := 0; dst < n; dst++ {
				if dst != me {
					reqs = append(reqs, c.Isend(p, Bytes([]byte{byte(me)}), dst, 9))
				}
			}
			for src := 0; src < n; src++ {
				if src == me {
					continue
				}
				b := make([]byte, 1)
				r := c.Irecv(p, Bytes(b), src, 9)
				p.Wait(r)
				if b[0] != byte(src) {
					ok = false
				}
			}
			p.Wait(reqs...)
		})
		return eng.Run() == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Seed reseeds the generator NewWorld made, in place: the latencies a
// jittered personality draws afterwards are those of a fresh source with that
// seed, and the call allocates nothing — a measurement world is seeded once,
// and a sweep builds hundreds.
func TestSeedReseedsInPlace(t *testing.T) {
	pers := jitterPers(0.3)
	w := NewWorld(cluster.NewMachine(sim.New(), cluster.Mini(2, 2)), pers)
	w.latency(0, 3) // the default stream has been drawn from
	w.Seed(42)
	ref := rand.New(rand.NewSource(42))
	base := w.Mach.Spec.InterLatency + pers.SoftLatency
	for i := 0; i < 100; i++ {
		if got, want := w.latency(0, 3), base*(1+pers.Jitter*ref.Float64()); got != want {
			t.Fatalf("draw %d after Seed(42): latency %v, a fresh source gives %v", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { w.Seed(42) }); n != 0 {
		t.Errorf("Seed allocates %v objects, want none", n)
	}
}
