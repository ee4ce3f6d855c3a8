package flow

import (
	"fmt"
	"testing"

	"github.com/hanrepro/han/internal/sim"
)

// benchAllocators runs fn once per allocator as sub-benchmarks, so `go test
// -bench Rebalance` always reports the incremental/reference pair
// side-by-side.
func benchAllocators(b *testing.B, fn func(b *testing.B, alloc Allocator)) {
	for _, tc := range []struct {
		name  string
		alloc Allocator
	}{{"incremental", Incremental}, {"reference", Reference}} {
		b.Run(tc.name, func(b *testing.B) { fn(b, tc.alloc) })
	}
}

// perFlow adds the cost per flow to a benchmark whose op is k flows, so
// shapes of different k read side by side.
func perFlow(b *testing.B, k int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/flow")
}

// BenchmarkRebalanceFanIn stresses one hot resource: k concurrent flows
// through a single link, arriving staggered so every arrival and departure
// rebalances the whole k-flow component.
func BenchmarkRebalanceFanIn(b *testing.B) {
	for _, k := range []int{16, 128} {
		b.Run(fmt.Sprintf("flows=%d", k), func(b *testing.B) {
			benchAllocators(b, func(b *testing.B, alloc Allocator) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := sim.New()
					n := NewNetwork(e)
					n.SetAllocator(alloc)
					r := n.NewResource("link", 1e9)
					for j := 0; j < k; j++ {
						e.SpawnAt(sim.Time(j)*1e-6, "f", func(p *sim.Proc) {
							f := n.Start(1e6, r)
							p.Wait(f.Done())
						})
					}
					if err := e.Run(); err != nil {
						b.Fatal(err)
					}
				}
				perFlow(b, k)
			})
		})
	}
}

// BenchmarkRebalanceSameInstant is the shape that dominates the 4096-rank
// Bcast: the copies of one sm-ibcast fragment on a 32-rank node, equal flows
// over one bus started at one instant, which therefore finish at one instant
// too. Every start and every completion rebalances the whole component, and
// every completion time ties.
func BenchmarkRebalanceSameInstant(b *testing.B) {
	const k = 32
	benchAllocators(b, func(b *testing.B, alloc Allocator) {
		b.ReportAllocs()
		e := sim.New()
		n := NewNetwork(e)
		n.SetAllocator(alloc)
		bus := n.NewResource("bus", 12.5e9)
		for i := 0; i < b.N; i++ {
			for j := 0; j < k; j++ {
				n.Start(8192, bus)
			}
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
		perFlow(b, k)
	})
}

// BenchmarkRebalanceChain models the HAN data path shape: flows crossing
// chained resources (nicOut → nicIn → bus) with neighbours overlapping, so
// components couple transitively like a pipelined collective.
func BenchmarkRebalanceChain(b *testing.B) {
	const segs = 64
	benchAllocators(b, func(b *testing.B, alloc Allocator) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := sim.New()
			n := NewNetwork(e)
			n.SetAllocator(alloc)
			res := make([]*Resource, segs+2)
			for j := range res {
				res[j] = n.NewResource("hop", 1e9)
			}
			for j := 0; j < segs; j++ {
				j := j
				e.SpawnAt(sim.Time(j)*1e-7, "f", func(p *sim.Proc) {
					f := n.Start(5e5, res[j], res[j+1], res[j+2])
					p.Wait(f.Done())
				})
			}
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRebalanceDisjoint measures the independent-component regime:
// many singleton flows whose rebalances must stay O(1) each.
func BenchmarkRebalanceDisjoint(b *testing.B) {
	const k = 256
	benchAllocators(b, func(b *testing.B, alloc Allocator) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := sim.New()
			n := NewNetwork(e)
			n.SetAllocator(alloc)
			for j := 0; j < k; j++ {
				r := n.NewResource("r", 1e9)
				e.Spawn("f", func(p *sim.Proc) {
					f := n.Start(1e6, r)
					p.Wait(f.Done())
				})
			}
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRebalanceChurn is the differential harness's workload at
// benchmark scale: randomized paths over a shared resource pool.
func BenchmarkRebalanceChurn(b *testing.B) {
	benchAllocators(b, func(b *testing.B, alloc Allocator) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb := &testing.T{}
			runChurn(tb, alloc, 7)
		}
	})
}
