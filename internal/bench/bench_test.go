package bench

import (
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/rivals"
)

func TestIMBMonotoneInSize(t *testing.T) {
	spec := cluster.Mini(2, 4)
	sizes := []int{64, 4 << 10, 256 << 10, 4 << 20}
	pts := IMBWith(spec, HANSystem(nil), coll.Bcast, sizes, IMBOpts{})
	if len(pts) != len(sizes) {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Seconds <= pts[i-1].Seconds {
			t.Errorf("latency not increasing: %v", pts)
		}
	}
	if pts[0].Seconds <= 0 {
		t.Error("non-positive latency")
	}
}

func TestIMBAllreduceAllSystems(t *testing.T) {
	spec := cluster.Mini(2, 4)
	sizes := []int{1 << 10, 1 << 20}
	for _, sys := range []System{
		HANSystem(nil),
		RivalSystem(rivals.OpenMPIDefault),
		RivalSystem(rivals.CrayMPI),
		RivalSystem(rivals.IntelMPI),
		RivalSystem(rivals.MVAPICH2),
	} {
		pts := IMBWith(spec, sys, coll.Allreduce, sizes, IMBOpts{})
		for _, p := range pts {
			if p.Seconds <= 0 {
				t.Errorf("%s: non-positive latency at %d", sys.Name, p.Size)
			}
		}
	}
}

func TestNetpipeShapes(t *testing.T) {
	spec := cluster.Mini(2, 2)
	sizes := []int{1 << 10, 64 << 10, 1 << 20, 16 << 20}
	ompi := Netpipe(spec, mpi.OpenMPI(), sizes)
	cray := Netpipe(spec, rivals.CrayMPI.Personality(), sizes)
	// Bandwidth grows with size for both.
	for i := 1; i < len(ompi); i++ {
		if ompi[i].MBps <= ompi[i-1].MBps {
			t.Errorf("OMPI bandwidth not increasing: %v", ompi)
		}
	}
	// Fig 11: Cray clearly ahead at 64KB, near parity at 16MB.
	iMid, iBig := 1, 3
	if cray[iMid].MBps < ompi[iMid].MBps*1.2 {
		t.Errorf("at 64KB cray %.0f should beat ompi %.0f", cray[iMid].MBps, ompi[iMid].MBps)
	}
	ratio := cray[iBig].MBps / ompi[iBig].MBps
	if ratio > 1.15 || ratio < 0.87 {
		t.Errorf("at 16MB peaks should converge, ratio %.2f", ratio)
	}
	// Physical sanity: bandwidth below NIC capacity.
	for _, p := range cray {
		if p.MBps*1e6 > spec.NICBandwidth {
			t.Errorf("bandwidth %v exceeds NIC capacity", p.MBps)
		}
	}
}

func TestFormatTable(t *testing.T) {
	sizes := []int{4, 1 << 20}
	pts := map[string][]Point{
		"HAN":  {{4, 1e-6}, {1 << 20, 2e-3}},
		"OMPI": {{4, 3e-6}, {1 << 20, 9e-3}},
	}
	s := FormatTable("Fig X", sizes, []string{"HAN", "OMPI"}, pts)
	for _, want := range []string{"Fig X", "4B", "1MB", "HAN", "OMPI", "2000.0"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

// The headline shapes of Figs 10 and 12 at reduced scale: HAN beats default
// Open MPI for both small and large broadcasts.
func TestHANvsDefaultShapeHolds(t *testing.T) {
	spec := cluster.Mini(4, 8)
	sizes := []int{64 << 10, 8 << 20}
	hanPts := IMBWith(spec, HANSystem(nil), coll.Bcast, sizes, IMBOpts{})
	ompiPts := IMBWith(spec, RivalSystem(rivals.OpenMPIDefault), coll.Bcast, sizes, IMBOpts{})
	for i := range sizes {
		if hanPts[i].Seconds >= ompiPts[i].Seconds {
			t.Errorf("size %d: HAN %.3gs should beat default %.3gs",
				sizes[i], hanPts[i].Seconds, ompiPts[i].Seconds)
		}
	}
}

func TestIMBExtensionCollectives(t *testing.T) {
	spec := cluster.Mini(2, 3)
	sizes := []int{256, 64 << 10}
	for _, sys := range []System{HANSystem(nil), RivalSystem(rivals.OpenMPIDefault), RivalSystem(rivals.CrayMPI)} {
		for _, kind := range []coll.Kind{coll.Reduce, coll.Gather, coll.Allgather, coll.Scatter} {
			pts := IMBWith(spec, sys, kind, sizes, IMBOpts{})
			for _, p := range pts {
				if p.Seconds <= 0 {
					t.Errorf("%s/%s: non-positive latency at %d", sys.Name, kind, p.Size)
				}
			}
			if pts[1].Seconds <= pts[0].Seconds {
				t.Errorf("%s/%s: latency not increasing with size", sys.Name, kind)
			}
		}
	}
}

func TestIterationScheduleAndSweeps(t *testing.T) {
	if ItersFor(4) < ItersFor(1<<20) || ItersFor(1<<20) < ItersFor(128<<20) {
		t.Error("iteration schedule should not increase with size")
	}
	small, large := SmallSizes(), LargeSizes()
	if small[len(small)-1] != 128<<10 {
		t.Errorf("small range should top out at 128KB, got %d", small[len(small)-1])
	}
	if large[len(large)-1] != 128<<20 {
		t.Errorf("large range should top out at 128MB, got %d", large[len(large)-1])
	}
	for i := 1; i < len(small); i++ {
		if small[i] <= small[i-1] {
			t.Error("small sizes not ascending")
		}
	}
}
