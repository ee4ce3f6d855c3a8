package han

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// A traced HAN broadcast must record collective spans on every rank, task
// spans matching Fig 1's schedule, and pairwise send/deliver markers, and
// the ib/sb overlap must be visible in the timeline.
func TestTracedBcastTimeline(t *testing.T) {
	spec := cluster.Mini(2, 3)
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	w.Tracer = trace.New()
	h := New(w)
	cfg := Config{FS: 1 << 10, IMod: "adapt", SMod: "sm", IBS: 512}
	const n = 4 << 10 // 4 segments
	w.Start(func(p *mpi.Proc) {
		h.Bcast(p, mpi.Phantom(n), 0, cfg)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	rec := w.Tracer
	sum := rec.Summary()
	ranks := spec.Ranks()
	if sum[trace.KindCollBegin] != ranks || sum[trace.KindCollEnd] != ranks {
		t.Errorf("collective spans: begin=%d end=%d, want %d each", sum[trace.KindCollBegin], sum[trace.KindCollEnd], ranks)
	}
	// Task accounting: every rank issues 4 sb tasks, leaders add 4 ib tasks.
	var ib, sb int
	for _, e := range rec.Filter(trace.KindTaskBegin) {
		switch e.Name {
		case "ib":
			ib++
		case "sb":
			sb++
		}
	}
	if ib != 2*4 { // 2 leaders x 4 segments
		t.Errorf("ib tasks = %d, want 8", ib)
	}
	if sb != ranks*4 {
		t.Errorf("sb tasks = %d, want %d", sb, ranks*4)
	}
	if sum[trace.KindTaskBegin] != sum[trace.KindTaskEnd] {
		t.Errorf("unbalanced task spans: %d begins, %d ends", sum[trace.KindTaskBegin], sum[trace.KindTaskEnd])
	}
	// Overlap check (the point of sbib): on the root leader, some ib(i)
	// begins before the previous sb(i-1) ends.
	var events []trace.Event
	for _, e := range rec.Events() {
		if e.Rank == 0 && (e.Kind == trace.KindTaskBegin || e.Kind == trace.KindTaskEnd) {
			events = append(events, e)
		}
	}
	overlap := false
	var openSB float64 = -1
	for _, e := range events {
		switch {
		case e.Name == "sb" && e.Kind == trace.KindTaskBegin:
			openSB = e.T
		case e.Name == "sb" && e.Kind == trace.KindTaskEnd:
			openSB = -1
		case e.Name == "ib" && e.Kind == trace.KindTaskBegin && openSB >= 0:
			overlap = true
		}
	}
	if !overlap {
		t.Error("no ib task began while an sb task was open: sbib overlap not visible in trace")
	}
	// Sends and deliveries balance.
	if sum[trace.KindSend] == 0 || sum[trace.KindDeliver] == 0 {
		t.Error("no P2P events recorded")
	}
	// Chrome export is well-formed.
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty chrome trace")
	}
}

// Within a step, tasks are issued in stage-table order, not offset order:
// the two-level Bcast leader issues sb(i-1) before ib(i) (Fig 1's sbib, the
// order its sim bits are recorded with), while the three-level and GPU
// tables run outermost level first.
func TestIssueOrderIsTableOrder(t *testing.T) {
	const fs, n = 1 << 10, 4 << 10 // 4 segments
	cases := []struct {
		name string
		spec cluster.Spec
		call func(h *HAN, p *mpi.Proc)
		want string // rank 0's task-begin sequence
	}{
		{"Bcast", cluster.Mini(2, 2), func(h *HAN, p *mpi.Proc) { h.Bcast(p, mpi.Phantom(n), 0, Config{FS: fs}) },
			"ib sb ib sb ib sb ib sb"},
		{"Bcast3", numaSpec(2, 4), func(h *HAN, p *mpi.Proc) { h.Bcast3(p, mpi.Phantom(n), 0, Config{FS: fs}) },
			"ib ib nb ib nb sb ib nb sb nb sb sb"},
		{"BcastGPU", gpuSpec(2, 4), func(h *HAN, p *mpi.Proc) { h.BcastGPU(p, mpi.Phantom(n), 0, Config{FS: fs}) },
			"d2h d2h ib d2h ib gb d2h ib gb ib gb gb"},
		{"Allreduce", cluster.Mini(2, 2), func(h *HAN, p *mpi.Proc) {
			h.Allreduce(p, mpi.Phantom(n), mpi.Phantom(n), mpi.OpSum, mpi.Float64, Config{FS: fs})
		}, "sr sr ir sr ir ib sr ir ib sb ir ib sb ib sb sb"},
		// One segment: a stage per step.
		{"Gather", cluster.Mini(2, 2), func(h *HAN, p *mpi.Proc) { h.Gather(p, mpi.Phantom(n), mpi.Phantom(4*n), 0, Config{}) },
			"sg ig"},
		{"Scatter", cluster.Mini(2, 2), func(h *HAN, p *mpi.Proc) { h.Scatter(p, mpi.Phantom(4*n), mpi.Phantom(n), 0, Config{}) },
			"is ss"},
		{"Allgather", cluster.Mini(2, 2), func(h *HAN, p *mpi.Proc) { h.Allgather(p, mpi.Phantom(n), mpi.Phantom(4*n), Config{}) },
			"sg iag sb"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, rec := observed(t, c.spec, c.call)
			var got []string
			for _, e := range rec.Filter(trace.KindTaskBegin) {
				if e.Rank == 0 {
					got = append(got, e.Name)
				}
			}
			if s := strings.Join(got, " "); s != c.want {
				t.Errorf("rank 0 issued\n\t%s\nwant\n\t%s", s, c.want)
			}
		})
	}
}
