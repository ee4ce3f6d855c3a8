package hanbench

import (
	"math"
	"testing"

	"github.com/hanrepro/han/internal/bench"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
)

// TestGoldenShaheen4096BcastBits pins the repository's headline sim bits:
// one IMB point of a 256 KiB HAN broadcast on the full ShaheenII machine
// (128 nodes x 32 ranks), the workload of BenchmarkFig10Scale4096 and of
// the benchmark's bcast4096_256k. Every performance baseline quotes
// 3f429ee42681934a (568.2577148148152 us) for it; this is the test that
// holds them to it.
func TestGoldenShaheen4096BcastBits(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-rank run takes seconds")
	}
	const want = 0x3f429ee42681934a
	got := math.Float64bits(imbPoint(cluster.ShaheenII(), bench.HANSystem(nil), coll.Bcast, 256<<10))
	if got != want {
		t.Fatalf("ShaheenII 128x32 256 KiB Bcast: sim bits %016x (%v s), want %016x", got, math.Float64frombits(got), uint64(want))
	}
}
