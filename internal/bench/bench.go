// Package bench implements the measurement harnesses of the paper's
// evaluation: an IMB-style collective benchmark (max-across-ranks latency
// per message size, the methodology of Figs 10, 12, 13, 14) and a
// Netpipe-style point-to-point sweep (Fig 11). It also defines the System
// abstraction that lets HAN and the rival libraries be driven by the same
// harness.
package bench

import (
	"fmt"
	"strings"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/exec"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/metrics"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/rivals"
	"github.com/hanrepro/han/internal/sim"
)

// Ops is the collective interface a System exposes to the harness. Every
// system sets all six: the harnesses call whichever kind they are asked for.
type Ops struct {
	Bcast     func(p *mpi.Proc, buf mpi.Buf, root int)
	Allreduce func(p *mpi.Proc, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype)
	Reduce    func(p *mpi.Proc, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, root int)
	Gather    func(p *mpi.Proc, sbuf, rbuf mpi.Buf, root int)
	Allgather func(p *mpi.Proc, sbuf, rbuf mpi.Buf)
	Scatter   func(p *mpi.Proc, sbuf, rbuf mpi.Buf, root int)

	// Start, where a system offers it, is the six again in step form: it
	// begins the collective of the given kind — with the buffers, operator
	// and root the blocking form of that kind takes, a Bcast's buffer in
	// rbuf — and returns it as a routine for a rank that has no goroutine
	// (mpi.World.StartSteps) to run as a phase. A harness whose ranks only
	// loop over collectives then drives them as routines, which simulates
	// the same bits for a fraction of the host's memory; nil keeps its
	// ranks goroutines.
	Start func(p *mpi.Proc, kind coll.Kind, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, root int) sim.Stepper
}

// phantoms returns the buffers of one collective of the given kind with
// IMB's meaning of size: the message, or for the block collectives the
// per-rank block.
func phantoms(kind coll.Kind, size, ranks int) (sbuf, rbuf mpi.Buf) {
	one, all := mpi.Phantom(size), mpi.Phantom(size*ranks)
	switch kind {
	case coll.Bcast, coll.Allreduce, coll.Reduce:
		return one, one
	case coll.Gather, coll.Allgather:
		return one, all
	case coll.Scatter:
		return all, one
	}
	panic("bench: unsupported collective kind " + kind.String())
}

// run issues one collective of the given kind on phantom buffers, rooted at
// rank 0.
func (o Ops) run(p *mpi.Proc, kind coll.Kind, size int) {
	sbuf, rbuf := phantoms(kind, size, p.W.Size())
	switch kind {
	case coll.Bcast:
		o.Bcast(p, rbuf, 0)
	case coll.Allreduce:
		o.Allreduce(p, sbuf, rbuf, mpi.OpSum, mpi.Float64)
	case coll.Reduce:
		o.Reduce(p, sbuf, rbuf, mpi.OpSum, mpi.Float64, 0)
	case coll.Gather:
		o.Gather(p, sbuf, rbuf, 0)
	case coll.Allgather:
		o.Allgather(p, sbuf, rbuf)
	case coll.Scatter:
		o.Scatter(p, sbuf, rbuf, 0)
	}
}

// start is run in step form.
func (o Ops) start(p *mpi.Proc, kind coll.Kind, size int) sim.Stepper {
	sbuf, rbuf := phantoms(kind, size, p.W.Size())
	return o.Start(p, kind, sbuf, rbuf, mpi.OpSum, mpi.Float64, 0)
}

// hanOps adapts h's collectives to Ops: every blocking call runs under cfg
// and hands what it returned to note.
func hanOps(h *han.HAN, cfg han.Config, note func(error)) Ops {
	return Ops{
		Bcast: func(p *mpi.Proc, buf mpi.Buf, root int) { note(h.Bcast(p, buf, root, cfg)) },
		Allreduce: func(p *mpi.Proc, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype) {
			note(h.Allreduce(p, sbuf, rbuf, op, dt, cfg))
		},
		Reduce: func(p *mpi.Proc, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, root int) {
			note(h.Reduce(p, sbuf, rbuf, op, dt, root, cfg))
		},
		Gather:    func(p *mpi.Proc, sbuf, rbuf mpi.Buf, root int) { note(h.Gather(p, sbuf, rbuf, root, cfg)) },
		Allgather: func(p *mpi.Proc, sbuf, rbuf mpi.Buf) { note(h.Allgather(p, sbuf, rbuf, cfg)) },
		Scatter:   func(p *mpi.Proc, sbuf, rbuf mpi.Buf, root int) { note(h.Scatter(p, sbuf, rbuf, root, cfg)) },
	}
}

// System is a named MPI implementation: a P2P personality plus a collective
// engine factory bound to each fresh world.
type System struct {
	Name string
	Pers *mpi.Personality
	// Setup binds the system's collective engine to a world. It is called
	// once per world, before ranks start.
	Setup func(w *mpi.World) Ops
}

// HANSystem returns HAN running on Open MPI's P2P layer. decide may be nil
// (the default decision) or an autotuned table's decision function. The
// harnesses it serves time collectives; what one returns is dropped.
func HANSystem(decide han.DecisionFunc) System {
	return hanSystem("HAN", mpi.OpenMPI(), decide, false)
}

// RivalSystem returns one of the comparison libraries: HAN under the
// library's decision, over modules with its AVX flag, on its P2P layer.
func RivalSystem(l rivals.Lib) System {
	return hanSystem(l.String(), l.Personality(), l.Decide, l.AVX())
}

// hanSystem is HAN on pers under decide, over modules with the AVX flag avx.
func hanSystem(name string, pers *mpi.Personality, decide han.DecisionFunc, avx bool) System {
	return System{
		Name: name,
		Pers: pers,
		Setup: func(w *mpi.World) Ops {
			h := han.New(w)
			if decide != nil {
				h.Decide = decide
			}
			if m := h.Mods; avx {
				m.Tuned.AVX, m.Libnbc.AVX, m.SM.AVX = true, true, true
			}
			ops := hanOps(h, han.Config{}, func(error) {})
			ops.Start = func(p *mpi.Proc, kind coll.Kind, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, root int) sim.Stepper {
				return h.Start(p, kind, sbuf, rbuf, op, dt, root, han.Config{})
			}
			return ops
		},
	}
}

// Point is one IMB result row.
type Point struct {
	Size int
	// Seconds is the mean over iterations of the per-iteration maximum
	// across ranks — IMB's t_max.
	Seconds float64
}

// SmallSizes is the paper's small-message range (up to 128 KB); LargeSizes
// the large range (up to 128 MB). Full sweeps are expensive at 4096
// simulated ranks, so the defaults sample every power of four.
func SmallSizes() []int {
	return []int{4, 16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 128 << 10}
}

// LargeSizes returns the large-message sample points.
func LargeSizes() []int {
	return []int{256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 128 << 20}
}

// ItersFor is the IMB-style iteration schedule, trimmed for simulation:
// more repetitions for small messages, fewer for huge ones.
func ItersFor(size int) int {
	switch {
	case size <= 16<<10:
		return 4
	case size <= 1<<20:
		return 2
	default:
		return 1
	}
}

// IMBOpts tunes an IMB run beyond the defaults: a fault plan to inject
// (degraded-network experiments) and the RNG seed that, together with the
// plan, fully determines the simulated times.
type IMBOpts struct {
	// Faults, when non-nil and non-zero, is attached to the world before
	// ranks start.
	Faults *fault.Plan
	// Seed reseeds the world's RNG when non-zero (the default seed is 1).
	Seed int64
	// Metrics, when non-nil, receives the runtime's counter families
	// (and, for systems built on HAN, the framework's) for the whole
	// sweep — hanbench's -metrics flag exports it as OpenMetrics text.
	Metrics *metrics.Registry
}

// IMBWith runs the collective benchmark for one system over the given sizes
// on spec under the run options o, returning one point per size.
func IMBWith(spec cluster.Spec, sys System, kind coll.Kind, sizes []int, o IMBOpts) []Point {
	points := make([]Point, len(sizes))
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), sys.Pers)
	if o.Seed != 0 {
		w.Seed(o.Seed)
	}
	if o.Faults != nil && !o.Faults.IsZero() {
		w.AttachFaults(*o.Faults)
	}
	if o.Metrics != nil {
		// Before Setup, so a HAN system's han.New sees the registry and
		// adds its own families to it.
		w.EnableMetrics(o.Metrics)
	}
	ops := sys.Setup(w)
	iters := make([]int, len(sizes))
	for i, size := range sizes {
		iters[i] = ItersFor(size)
	}
	world := w.World()
	loop := mpi.NewIMBLoop(world, iters, func(p *mpi.Proc, i int) sim.Stepper {
		return ops.start(p, kind, sizes[i])
	})
	if ops.Start != nil {
		loop.StartSteps()
	} else {
		// A system that only blocks is still a goroutine's business: the
		// tests' reference, every system with its Start withheld.
		w.Start(func(p *mpi.Proc) {
			for i, size := range sizes {
				for it := 0; it <= iters[i]; it++ {
					world.Barrier(p)
					t0 := p.Now()
					ops.run(p, kind, size)
					loop.Record(i, it, p.Now()-t0)
				}
			}
		})
	}
	if err := eng.Run(); err != nil {
		panic(fmt.Sprintf("bench: IMB run failed: %v", err))
	}
	for i, size := range sizes {
		points[i] = Point{Size: size, Seconds: loop.Mean(i)}
	}
	return points
}

// IMBAll runs the IMB benchmark for several systems concurrently, fanning
// one job per system across `workers` host workers (internal/exec), and
// returns the per-system point slices. Each job builds its own world, so
// the points are identical to running IMBWith serially per system. When
// o.Metrics is set the sweep is forced serial: the metrics registry is
// single-threaded by design, and all systems share it.
func IMBAll(spec cluster.Spec, systems []System, kind coll.Kind, sizes []int, o IMBOpts, workers int) map[string][]Point {
	if o.Metrics != nil {
		workers = 1
	}
	results := make([][]Point, len(systems))
	exec.New(workers).Run(len(systems), func(i int) {
		results[i] = IMBWith(spec, systems[i], kind, sizes, o)
	})
	out := make(map[string][]Point, len(systems))
	for i, sys := range systems {
		out[sys.Name] = results[i]
	}
	return out
}

// BWPoint is one Netpipe result row.
type BWPoint struct {
	Size int
	// MBps is the achieved one-way bandwidth in MB/s.
	MBps float64
}

// Netpipe measures inter-node ping-pong bandwidth between rank 0 (node 0)
// and the leader of node 1, as Fig 11 does for Open MPI vs Cray MPI.
func Netpipe(spec cluster.Spec, pers *mpi.Personality, sizes []int) []BWPoint {
	if spec.Nodes < 2 {
		panic("bench: Netpipe needs at least two nodes")
	}
	out := make([]BWPoint, len(sizes))
	rtt := make([]float64, len(sizes))
	peer := spec.PPN // leader of node 1
	_, err := mpi.Run(spec, pers, func(p *mpi.Proc) {
		c := p.W.World()
		const reps = 3
		for i, size := range sizes {
			switch p.Rank {
			case 0:
				t0 := p.Now()
				for r := 0; r < reps; r++ {
					c.Send(p, mpi.Phantom(size), peer, i)
					c.Recv(p, mpi.Phantom(size), peer, i)
				}
				rtt[i] = float64(p.Now()-t0) / reps
			case peer:
				for r := 0; r < reps; r++ {
					c.Recv(p, mpi.Phantom(size), 0, i)
					c.Send(p, mpi.Phantom(size), 0, i)
				}
			}
		}
	})
	if err != nil {
		panic(fmt.Sprintf("bench: netpipe failed: %v", err))
	}
	for i, size := range sizes {
		oneWay := rtt[i] / 2
		out[i] = BWPoint{Size: size, MBps: float64(size) / oneWay / 1e6}
	}
	return out
}

// FormatTable renders per-system IMB points as an aligned text table, one
// row per size, one column per system — the machine-readable counterpart of
// the paper's figures.
func FormatTable(title string, sizes []int, systems []string, points map[string][]Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	fmt.Fprintf(&b, "%-10s", "size")
	for _, s := range systems {
		fmt.Fprintf(&b, "%16s", s)
	}
	b.WriteString("\n")
	for i, size := range sizes {
		fmt.Fprintf(&b, "%-10s", han.SizeString(size))
		for _, s := range systems {
			fmt.Fprintf(&b, "%16.1f", points[s][i].Seconds*1e6) // µs
		}
		b.WriteString("\n")
	}
	return b.String()
}
