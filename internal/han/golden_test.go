package han_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// This file pins the simulated timing of every HAN entry point bit for
// bit. The values were recorded on the eleven hand-written pipelines that
// preceded the level-driven one, so they are the contract any restructuring
// of the task schedule has to hold: a changed issue order, an extra wait,
// or a moved segment boundary shows up here as a changed bit pattern.
//
// Each row holds math.Float64bits of the completion time (the engine clock
// when the last rank returned) and an FNV-1a hash over every rank's own
// return time in rank order, so a rank that finishes earlier or later
// without moving the maximum is caught too. On a mismatch the failure
// prints the row in table syntax.

const goldenBytes = 500000 // 8 segments of 64 KiB with a ragged tail

// goldenCfg returns an explicit configuration splitting goldenBytes into
// the given number of segments.
func goldenCfg(segs int) han.Config {
	cfg := han.Config{FS: goldenBytes, IMod: "adapt", SMod: "sm",
		IBAlg: coll.AlgBinary, IRAlg: coll.AlgBinary, IBS: 16 << 10, IRS: 16 << 10}
	if segs > 1 {
		cfg.FS = 64 << 10
	}
	return cfg
}

type goldenRow struct{ end, ranks uint64 }

// goldenRun runs body on every rank of a fresh world on spec and returns
// the completion-time bits and the per-rank return-time hash.
func goldenRun(t *testing.T, spec cluster.Spec, body func(h *han.HAN, p *mpi.Proc)) goldenRow {
	t.Helper()
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	h := han.New(w)
	done := make([]sim.Time, spec.Ranks())
	w.Start(func(p *mpi.Proc) {
		body(h, p)
		done[p.Rank] = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	hash := fnv.New64a()
	var b [8]byte
	for _, d := range done {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(d)))
		hash.Write(b[:])
	}
	return goldenRow{math.Float64bits(float64(eng.Now())), hash.Sum64()}
}

// note fails the test on anything but nil or a degradation note.
func note(t *testing.T, p *mpi.Proc, err error) {
	var fb *han.FallbackError
	if err != nil && !errors.As(err, &fb) {
		t.Errorf("rank %d: %v", p.Rank, err)
	}
}

// subMembers is the regular sub-communicator of the Comm rows: two ranks
// on each of three nodes of Mini(4,4).
var subMembers = []int{0, 1, 4, 5, 8, 9}

func inSub(r int) bool {
	for _, m := range subMembers {
		if m == r {
			return true
		}
	}
	return false
}

type goldenCase struct {
	name string
	spec cluster.Spec
	body func(h *han.HAN, p *mpi.Proc)
}

// goldenCases enumerates entry point x {1, 8 segments} x roots. Rooted
// operations run from rank 0, from a node leader that is not rank 0, and
// from a non-leader (where the three-level and GPU forms degrade).
func goldenCases(t *testing.T) []goldenCase {
	mini, numa, gpu := cluster.Mini(4, 4), han.NumaSpec(4, 8), han.GPUSpec(4, 8)
	ph := func() mpi.Buf { return mpi.Phantom(goldenBytes) }
	var cases []goldenCase
	add := func(name string, spec cluster.Spec, body func(h *han.HAN, p *mpi.Proc)) {
		cases = append(cases, goldenCase{name, spec, body})
	}
	for _, segs := range []int{1, 8} {
		cfg := goldenCfg(segs)
		for _, spec := range []struct {
			op   string
			spec cluster.Spec
			fn   func(h *han.HAN, p *mpi.Proc, root int) error
		}{
			{"Bcast", mini, func(h *han.HAN, p *mpi.Proc, root int) error { return h.Bcast(p, ph(), root, cfg) }},
			{"Bcast3", numa, func(h *han.HAN, p *mpi.Proc, root int) error { return h.Bcast3(p, ph(), root, cfg) }},
			{"BcastGPU", gpu, func(h *han.HAN, p *mpi.Proc, root int) error { return h.BcastGPU(p, ph(), root, cfg) }},
			{"Reduce", mini, func(h *han.HAN, p *mpi.Proc, root int) error {
				return h.Reduce(p, ph(), ph(), mpi.OpSum, mpi.Float64, root, cfg)
			}},
		} {
			spec := spec
			ppn := spec.spec.PPN
			for _, root := range []int{0, 2 * ppn, ppn + 1} {
				root := root
				add(fmt.Sprintf("%s/seg%d/root%d", spec.op, segs, root), spec.spec, func(h *han.HAN, p *mpi.Proc) {
					note(t, p, spec.fn(h, p, root))
				})
			}
		}
		// Comm roots are comm ranks: 0 and 2 lead their node groups, 3
		// does not (flat tuned fallback).
		for _, root := range []int{0, 2, 3} {
			root := root
			add(fmt.Sprintf("BcastComm/seg%d/root%d", segs, root), mini, func(h *han.HAN, p *mpi.Proc) {
				if !inSub(p.Rank) {
					return
				}
				c := h.W.World().Sub("golden:sub", subMembers)
				note(t, p, h.BcastComm(p, c, ph(), root, cfg))
			})
		}
		add(fmt.Sprintf("Allreduce/seg%d", segs), mini, func(h *han.HAN, p *mpi.Proc) {
			note(t, p, h.Allreduce(p, ph(), ph(), mpi.OpSum, mpi.Float64, cfg))
		})
		add(fmt.Sprintf("AllreduceComm/seg%d", segs), mini, func(h *han.HAN, p *mpi.Proc) {
			if !inSub(p.Rank) {
				return
			}
			c := h.W.World().Sub("golden:sub", subMembers)
			note(t, p, h.AllreduceComm(p, c, ph(), ph(), mpi.OpSum, mpi.Float64, cfg))
		})
		add(fmt.Sprintf("Allreduce3/seg%d", segs), numa, func(h *han.HAN, p *mpi.Proc) {
			note(t, p, h.Allreduce3(p, ph(), ph(), mpi.OpSum, mpi.Float64, cfg))
		})
		add(fmt.Sprintf("AllreduceGPU/seg%d", segs), gpu, func(h *han.HAN, p *mpi.Proc) {
			note(t, p, h.AllreduceGPU(p, ph(), ph(), mpi.OpSum, mpi.Float64, cfg))
		})
	}
	// Two collectives back to back on the default decision, so state a
	// call leaves behind (sequence numbers, module rendezvous) is covered.
	add("Default/BcastThenAllreduce", mini, func(h *han.HAN, p *mpi.Proc) {
		note(t, p, h.Bcast(p, mpi.Phantom(3<<20), 5, han.Config{}))
		note(t, p, h.Allreduce(p, mpi.Phantom(3<<20), mpi.Phantom(3<<20), mpi.OpSum, mpi.Float64, han.Config{}))
	})
	// The other submodule pair, libnbc over solo, through the paths a step
	// routine has to get right: the feed wait of a non-leader root inside a
	// step, the final hop of a reduction, a three-level and a GPU call (whose
	// PCIe helpers are goroutines beside the rank).
	nbc := goldenCfg(8)
	nbc.IMod, nbc.SMod, nbc.IBAlg, nbc.IRAlg = "libnbc", "solo", coll.AlgBinomial, coll.AlgBinomial
	add("Bcast/libnbc-solo/seg8/root0", mini, func(h *han.HAN, p *mpi.Proc) { note(t, p, h.Bcast(p, ph(), 0, nbc)) })
	add("Bcast/libnbc-solo/seg8/root5", mini, func(h *han.HAN, p *mpi.Proc) { note(t, p, h.Bcast(p, ph(), 5, nbc)) })
	add("Reduce/libnbc-solo/seg8/root5", mini, func(h *han.HAN, p *mpi.Proc) {
		note(t, p, h.Reduce(p, ph(), ph(), mpi.OpSum, mpi.Float64, 5, nbc))
	})
	add("Allreduce/libnbc-solo/seg8", mini, func(h *han.HAN, p *mpi.Proc) {
		note(t, p, h.Allreduce(p, ph(), ph(), mpi.OpSum, mpi.Float64, nbc))
	})
	add("Allreduce3/libnbc-solo/seg8", numa, func(h *han.HAN, p *mpi.Proc) {
		note(t, p, h.Allreduce3(p, ph(), ph(), mpi.OpSum, mpi.Float64, nbc))
	})
	add("BcastGPU/libnbc/seg8/root16", gpu, func(h *han.HAN, p *mpi.Proc) { note(t, p, h.BcastGPU(p, ph(), 16, nbc)) })
	add("AllreduceGPU/libnbc/seg8", gpu, func(h *han.HAN, p *mpi.Proc) {
		note(t, p, h.AllreduceGPU(p, ph(), ph(), mpi.OpSum, mpi.Float64, nbc))
	})
	// An intra-node latency above the cost of an ib makes a non-leader
	// root's feed the bottleneck: the leader then waits for segment i's
	// feed with sb(i-1) already in flight, which pins sbib's issue order.
	slowFeed := mini
	slowFeed.IntraLatency = 300e-6
	add("Bcast/slowfeed/seg8/root5", slowFeed, func(h *han.HAN, p *mpi.Proc) {
		note(t, p, h.Bcast(p, ph(), 5, goldenCfg(8)))
	})
	cases = append(cases, blockCases(t)...)
	return cases
}

// rankBlock is the block world rank r contributes in the payload rows.
func rankBlock(blk, r int) []byte {
	b := make([]byte, blk)
	for i := range b {
		b[i] = byte(i*7 + r*31 + 1)
	}
	return b
}

// The block collectives move a block per rank. The 1 KiB rows carry real
// bytes — every block is checked where it lands, and the buffers MPI calls
// insignificant (a non-root's rbuf in Gather, its sbuf in Scatter) are
// passed empty — the 256 KiB rows are phantom, as IMB passes them.
func gatherBody(t *testing.T, blk, root int, cfg han.Config) func(h *han.HAN, p *mpi.Proc) {
	return func(h *han.HAN, p *mpi.Proc) {
		n := h.W.Size()
		if blk > 1<<10 {
			note(t, p, h.Gather(p, mpi.Phantom(blk), mpi.Phantom(n*blk), root, cfg))
			return
		}
		var rbuf mpi.Buf
		if p.Rank == root {
			rbuf = mpi.Bytes(make([]byte, n*blk))
		}
		note(t, p, h.Gather(p, mpi.Bytes(rankBlock(blk, p.Rank)), rbuf, root, cfg))
		for r := 0; r < n && p.Rank == root; r++ {
			if !bytes.Equal(rbuf.B[r*blk:(r+1)*blk], rankBlock(blk, r)) {
				t.Errorf("Gather: block %d wrong at root %d", r, root)
			}
		}
	}
}

func scatterBody(t *testing.T, blk, root int, cfg han.Config) func(h *han.HAN, p *mpi.Proc) {
	return func(h *han.HAN, p *mpi.Proc) {
		n := h.W.Size()
		if blk > 1<<10 {
			note(t, p, h.Scatter(p, mpi.Phantom(n*blk), mpi.Phantom(blk), root, cfg))
			return
		}
		var sbuf mpi.Buf
		if p.Rank == root {
			for r := 0; r < n; r++ {
				sbuf.B = append(sbuf.B, rankBlock(blk, r)...)
			}
			sbuf.N = len(sbuf.B)
		}
		rbuf := mpi.Bytes(make([]byte, blk))
		note(t, p, h.Scatter(p, sbuf, rbuf, root, cfg))
		if !bytes.Equal(rbuf.B, rankBlock(blk, p.Rank)) {
			t.Errorf("Scatter from %d: rank %d got the wrong block", root, p.Rank)
		}
	}
}

func allgatherBody(t *testing.T, blk int, cfg han.Config) func(h *han.HAN, p *mpi.Proc) {
	return func(h *han.HAN, p *mpi.Proc) {
		n := h.W.Size()
		if blk > 1<<10 {
			note(t, p, h.Allgather(p, mpi.Phantom(blk), mpi.Phantom(n*blk), cfg))
			return
		}
		rbuf := mpi.Bytes(make([]byte, n*blk))
		note(t, p, h.Allgather(p, mpi.Bytes(rankBlock(blk, p.Rank)), rbuf, cfg))
		for r := 0; r < n; r++ {
			if !bytes.Equal(rbuf.B[r*blk:(r+1)*blk], rankBlock(blk, r)) {
				t.Errorf("Allgather: block %d wrong on rank %d", r, p.Rank)
			}
		}
	}
}

// blockCases enumerates Gather, Scatter and Allgather over block size x
// submodule pair x root on Mini(4,4) — adapt has no block collectives, so
// its rows run the libnbc fallback — then the single-node world, the
// one-rank world, and the three back to back on the default decision.
func blockCases(t *testing.T) []goldenCase {
	mini := cluster.Mini(4, 4)
	var cases []goldenCase
	rooted := func(prefix string, spec cluster.Spec, blk int, roots []int, cfg han.Config) {
		for _, root := range roots {
			cases = append(cases,
				goldenCase{fmt.Sprintf("Gather/%s/root%d", prefix, root), spec, gatherBody(t, blk, root, cfg)},
				goldenCase{fmt.Sprintf("Scatter/%s/root%d", prefix, root), spec, scatterBody(t, blk, root, cfg)})
		}
		cases = append(cases, goldenCase{"Allgather/" + prefix, spec, allgatherBody(t, blk, cfg)})
	}
	for _, blk := range []int{1 << 10, 256 << 10} {
		for _, imod := range han.InterNames() {
			for _, smod := range han.IntraNames() {
				prefix := fmt.Sprintf("%s-%s/%s", imod, smod, han.SizeString(blk))
				rooted(prefix, mini, blk, []int{0, 8, 5}, han.Config{IMod: imod, SMod: smod})
			}
		}
	}
	for _, smod := range han.IntraNames() {
		rooted("onenode/"+smod, cluster.Mini(1, 4), 1<<10, []int{0, 2}, han.Config{SMod: smod})
	}
	rooted("onerank", cluster.Mini(1, 1), 1<<10, []int{0}, han.Config{})
	cases = append(cases, goldenCase{"Default/GatherScatterAllgather", mini, func(h *han.HAN, p *mpi.Proc) {
		gatherBody(t, 64<<10, 5, han.Config{})(h, p)
		scatterBody(t, 64<<10, 9, han.Config{})(h, p)
		allgatherBody(t, 64<<10, han.Config{})(h, p)
	}})
	return cases
}

func TestGoldenCollectiveBits(t *testing.T) {
	for _, c := range goldenCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := goldenRun(t, c.spec, c.body)
			if want, ok := goldenCollectives[c.name]; !ok || got != want {
				t.Errorf("sim bits moved (have golden: %v):\n\t%q: {%#x, %#x},", ok, c.name, got.end, got.ranks)
			}
		})
	}
}

// The paths on which a call blocks outside its stage table — a non-leader
// root feeding its leader segment by segment, the final hop of a reduction or
// a gather, the flat module on a communicator without a hierarchy — and the
// notes a degraded call records, pinned by the FNV-1a hash of the whole trace
// stream: the order in which a call's events are recorded, the note before
// the end of its span included, is part of what replays.
func TestGoldenTraceBits(t *testing.T) {
	ran := 0
	for _, c := range goldenCases(t) {
		want, ok := goldenTraces[c.name]
		if !ok {
			continue
		}
		ran++
		t.Run(c.name, func(t *testing.T) {
			eng := sim.New()
			w := mpi.NewWorld(cluster.NewMachine(eng, c.spec), mpi.OpenMPI())
			rec := trace.New()
			w.Tracer = rec
			h := han.New(w)
			w.Start(func(p *mpi.Proc) { c.body(h, p) })
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			hash := fnv.New64a()
			if err := rec.WriteJSON(hash); err != nil {
				t.Fatal(err)
			}
			if got := hash.Sum64(); got != want {
				t.Errorf("trace stream moved:\n\t%q: %#x,", c.name, got)
			}
		})
	}
	if ran != len(goldenTraces) {
		t.Errorf("%d of the %d trace rows name a golden case", ran, len(goldenTraces))
	}
}

// stepBits flattens per-leader step vectors into node order.
func stepBits(per map[int][]sim.Time) []uint64 {
	nodes := make([]int, 0, len(per))
	for n := range per {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	var out []uint64
	for _, n := range nodes {
		for _, d := range per[n] {
			out = append(out, math.Float64bits(float64(d)))
		}
	}
	return out
}

func checkVector(t *testing.T, name string, got []uint64) {
	t.Helper()
	want := goldenVectors[name]
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == want[i]
	}
	if !same {
		s := fmt.Sprintf("\t%q: {", name)
		for _, v := range got {
			s += fmt.Sprintf("%#x, ", v)
		}
		t.Errorf("sim bits moved:\n%s},", s)
	}
}

// The instrumented schedules: every leader's full per-step vector of
// the Bcast and Allreduce series, and five lone/concurrent task timers on
// every rank (non-members report 0). The rows keep the names of the entry
// points they were recorded through.
func TestGoldenStepAndTimerBits(t *testing.T) {
	spec := cluster.Mini(4, 4)
	const u = 8
	cfg := han.StepCfg()

	// Both schedules, on adapt over sm and on libnbc over solo.
	nbc := cfg
	nbc.IMod, nbc.SMod, nbc.IBAlg, nbc.IRAlg = "libnbc", "solo", coll.AlgBinomial, coll.AlgBinomial
	for _, v := range []struct {
		suffix string
		cfg    han.Config
	}{{"", cfg}, {"/libnbc-solo", nbc}} {
		for _, sched := range []struct {
			name string
			run  func(h *han.HAN, p *mpi.Proc) ([]sim.Time, error)
		}{
			{"BcastSteps", func(h *han.HAN, p *mpi.Proc) ([]sim.Time, error) { return h.Series(p, coll.Bcast, u, v.cfg) }},
			{"AllreduceSteps", func(h *han.HAN, p *mpi.Proc) ([]sim.Time, error) {
				return h.Series(p, coll.Allreduce, u, v.cfg)
			}},
		} {
			per := map[int][]sim.Time{}
			goldenRun(t, spec, func(h *han.HAN, p *mpi.Proc) {
				s, err := sched.run(h, p)
				if err != nil {
					t.Error(err)
				}
				if s != nil {
					per[p.Node()] = s
				}
			})
			checkVector(t, sched.name+v.suffix, stepBits(per))
		}
	}

	timers := []struct {
		name  string
		dt    mpi.Datatype
		tasks []han.Task
	}{
		{"TimeIB", mpi.Byte, []han.Task{han.TaskIB}},
		{"TimeSB", mpi.Byte, []han.Task{han.TaskSB}},
		{"TimeConcurrentSBIB", mpi.Byte, []han.Task{han.TaskIB, han.TaskSB}},
		{"TimeIR", mpi.Float64, []han.Task{han.TaskIR}},
		{"TimeConcurrentIBIR", mpi.Float64, []han.Task{han.TaskIB, han.TaskIR}},
	}
	// All five in one world, in the order the autotuner and Fig 6 call
	// them, so each also sees the history the previous ones left.
	got := make([][]uint64, len(timers))
	for i := range got {
		got[i] = make([]uint64, spec.Ranks())
	}
	goldenRun(t, spec, func(h *han.HAN, p *mpi.Proc) {
		for i, tm := range timers {
			d, err := h.TimeTasks(p, mpi.OpSum, tm.dt, cfg, tm.tasks...)
			if err != nil {
				t.Error(err)
			}
			got[i][p.Rank] = math.Float64bits(float64(d))
		}
	})
	for i, tm := range timers {
		checkVector(t, tm.name, got[i])
	}
}

// One small Combined (task-based + heuristics) search: the table is built
// from the step vectors and timers above through the cost model, so its
// hash pins the whole autotuning path over the pipeline.
func TestGoldenRunSearchTable(t *testing.T) {
	env := autotune.NewEnv(cluster.Mini(4, 4), mpi.OpenMPI())
	space := autotune.Space{
		Msgs:  []int{64 << 10, 1 << 20},
		FS:    []int{64 << 10, 256 << 10},
		IMods: han.InterNames(),
		SMods: han.IntraNames(),
		IBS:   []int{32 << 10},
	}
	res := autotune.RunSearch(env, space, []coll.Kind{coll.Bcast, coll.Allreduce}, autotune.Combined, autotune.SearchOpts{Workers: 1})
	b, err := json.Marshal(res.Table)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != goldenSearchSHA {
		t.Errorf("Combined search table moved: sha256 %s, want %s\n%s", got, goldenSearchSHA, b)
	}
}

var goldenCollectives = map[string]goldenRow{
	"Bcast/slowfeed/seg8/root5":     {0x3f84782997c902ed, 0x332e6784019788a8},
	"Bcast/seg1/root0":              {0x3f633213bceec225, 0xfbed70acf8d2f6d7},
	"Bcast/seg1/root8":              {0x3f633213bceec225, 0x587c0a4ce1819cf},
	"Bcast/seg1/root5":              {0x3f64b0ff9b68dbc7, 0x61094beca560f7b9},
	"Bcast3/seg1/root0":             {0x3f67b11dcfded07a, 0x4279f6d816f43041},
	"Bcast3/seg1/root16":            {0x3f67b11dcfded07a, 0xdeb11733e27724ad},
	"Bcast3/seg1/root9":             {0x3f6c40742f6d3381, 0x3ef58e40e97b0f54},
	"BcastGPU/seg1/root0":           {0x3f62688a71810589, 0x5a3c365ee62610bc},
	"BcastGPU/seg1/root16":          {0x3f62688a71810589, 0x5139b026b1ababfc},
	"BcastGPU/seg1/root9":           {0x3f68c8a1789dd5a3, 0x6f8d6c04a9f06c07},
	"Reduce/seg1/root0":             {0x3f72773b9d54234c, 0x795f44228b0bcac4},
	"Reduce/seg1/root8":             {0x3f72773b9d54234c, 0xe385ea995c8f4640},
	"Reduce/seg1/root5":             {0x3f7336b18c91301f, 0xaba123121757e090},
	"BcastComm/seg1/root0":          {0x3f60ff2eb66bb5c5, 0x2ccb4068929148e7},
	"BcastComm/seg1/root2":          {0x3f60ff2eb66bb5c5, 0xebb31cccf66dcd77},
	"BcastComm/seg1/root3":          {0x3f686900728e481c, 0xfa606bb68ebc3c4b},
	"Allreduce/seg1":                {0x3f7c10457bcb844e, 0x18a9a86db7e3c7df},
	"AllreduceComm/seg1":            {0x3f7495e46ff6865a, 0x636bedd0ff8df256},
	"Allreduce3/seg1":               {0x3f81c19c386cb8ac, 0xbc9d1fbbb6cac9b3},
	"AllreduceGPU/seg1":             {0x3f7301d144c202de, 0x59bbd89931401b2d},
	"Bcast/seg8/root0":              {0x3f600d9e1fe87140, 0x235098b6e52904cc},
	"Bcast/seg8/root8":              {0x3f600d9e1fe87140, 0xffd327a3aecaf7b8},
	"Bcast/seg8/root5":              {0x3f6056525d8c049b, 0x181f96ed3667b116},
	"Bcast3/seg8/root0":             {0x3f6210204a874c59, 0x2536a414e405fd5f},
	"Bcast3/seg8/root16":            {0x3f6210204a874c59, 0x3b0c406644e3bca3},
	"Bcast3/seg8/root9":             {0x3f64518cfb067921, 0xa5a0a8e531196380},
	"BcastGPU/seg8/root0":           {0x3f5ffc648e2fcd21, 0xe3f5caf6b713c8e4},
	"BcastGPU/seg8/root16":          {0x3f5ffc648e2fcd21, 0xb0d24dfd7265b9dc},
	"BcastGPU/seg8/root9":           {0x3f61d304324e8b5d, 0x6be6de742bd4d3c6},
	"Reduce/seg8/root0":             {0x3f6747a0920ba415, 0x5d1428f49d7e012a},
	"Reduce/seg8/root8":             {0x3f6747a0920ba415, 0x5fcbf83f00a394ba},
	"Reduce/seg8/root5":             {0x3f68c68c7085bdb8, 0x83ca7c6e2192f487},
	"BcastComm/seg8/root0":          {0x3f5edb41a2bb41fa, 0x81c37d2b0f655244},
	"BcastComm/seg8/root2":          {0x3f5edb41a2bb41fa, 0x2c9ee064fee5c65c},
	"BcastComm/seg8/root3":          {0x3f686900728e481c, 0xfa606bb68ebc3c4b},
	"Allreduce/seg8":                {0x3f6bacd58972e1e9, 0x8ef28d0867a99c11},
	"AllreduceComm/seg8":            {0x3f658f8c4a0fd12b, 0x52e4d0856308d33d},
	"Allreduce3/seg8":               {0x3f72a8a8d366d474, 0xab39a96a39cbc3ff},
	"AllreduceGPU/seg8":             {0x3f68603bf58924f1, 0xa4eb725e3df1b4ab},
	"Default/BcastThenAllreduce":    {0x3f9b5b528e0abc03, 0x4c10cbf86890bd96},
	"Bcast/libnbc-solo/seg8/root0":  {0x3f623dc83c4342c1, 0xaab51625335b7ef3},
	"Bcast/libnbc-solo/seg8/root5":  {0x3f62867c79e6d61d, 0x6fdaac870eae1800},
	"Reduce/libnbc-solo/seg8/root5": {0x3f6cf0c1e0c60c2a, 0xf0675f7790507f06},
	"Allreduce/libnbc-solo/seg8":    {0x3f7458bd1be84a3b, 0x51ae50a9aba0739b},
	"Allreduce3/libnbc-solo/seg8":   {0x3f75f71df8d71f43, 0x27171216e619c2b4},
	"BcastGPU/libnbc/seg8/root16":   {0x3f6259a43e4bd672, 0xbca89057f9fa9c04},
	"AllreduceGPU/libnbc/seg8":      {0x3f740e256069760b, 0x47779e26e3520b77},

	// The block collectives, recorded on the hand-written compositions of
	// ext.go that preceded their stage tables.
	"Gather/libnbc-sm/1KB/root0":      {0x3efa0d8c1e75a5b9, 0xfc892030021cbdf8},
	"Scatter/libnbc-sm/1KB/root0":     {0x3ef895bcd9ff5424, 0xf371ab820681cbd7},
	"Gather/libnbc-sm/1KB/root8":      {0x3efa0d8c1e75a5b9, 0xd52d4bcddd8ec618},
	"Scatter/libnbc-sm/1KB/root8":     {0x3ef895bcd9ff5424, 0xd5744178025976fb},
	"Gather/libnbc-sm/1KB/root5":      {0x3f01ed57e7a48fc6, 0xb0449b477537a2b8},
	"Scatter/libnbc-sm/1KB/root5":     {0x3f013170456966f9, 0x343776d368299664},
	"Allgather/libnbc-sm/1KB":         {0x3f08f21459ff24e4, 0x1f29af91eed411c5},
	"Gather/libnbc-solo/1KB/root0":    {0x3ef9aac359fec667, 0xf7854c522cb22aeb},
	"Scatter/libnbc-solo/1KB/root0":   {0x3ef84dcc08233180, 0xe614d74576fbcb22},
	"Gather/libnbc-solo/1KB/root8":    {0x3ef9aac359fec667, 0xc326026eafe965d3},
	"Scatter/libnbc-solo/1KB/root8":   {0x3ef84dcc08233180, 0x1171b8dda5b3fd92},
	"Gather/libnbc-solo/1KB/root5":    {0x3f01bbf38569201d, 0xe333528e5294d63b},
	"Scatter/libnbc-solo/1KB/root5":   {0x3f010d77dc7b55a8, 0x1f9da4fbee6b3c3d},
	"Allgather/libnbc-solo/1KB":       {0x3f073bfe2a5f4684, 0x60d74aa006aee6c5},
	"Gather/adapt-sm/1KB/root0":       {0x3efa0d8c1e75a5b9, 0xfc892030021cbdf8},
	"Scatter/adapt-sm/1KB/root0":      {0x3ef895bcd9ff5424, 0xf371ab820681cbd7},
	"Gather/adapt-sm/1KB/root8":       {0x3efa0d8c1e75a5b9, 0xd52d4bcddd8ec618},
	"Scatter/adapt-sm/1KB/root8":      {0x3ef895bcd9ff5424, 0xd5744178025976fb},
	"Gather/adapt-sm/1KB/root5":       {0x3f01ed57e7a48fc6, 0xb0449b477537a2b8},
	"Scatter/adapt-sm/1KB/root5":      {0x3f013170456966f9, 0x343776d368299664},
	"Allgather/adapt-sm/1KB":          {0x3f08f21459ff24e4, 0x1f29af91eed411c5},
	"Gather/adapt-solo/1KB/root0":     {0x3ef9aac359fec667, 0xf7854c522cb22aeb},
	"Scatter/adapt-solo/1KB/root0":    {0x3ef84dcc08233180, 0xe614d74576fbcb22},
	"Gather/adapt-solo/1KB/root8":     {0x3ef9aac359fec667, 0xc326026eafe965d3},
	"Scatter/adapt-solo/1KB/root8":    {0x3ef84dcc08233180, 0x1171b8dda5b3fd92},
	"Gather/adapt-solo/1KB/root5":     {0x3f01bbf38569201d, 0xe333528e5294d63b},
	"Scatter/adapt-solo/1KB/root5":    {0x3f010d77dc7b55a8, 0x1f9da4fbee6b3c3d},
	"Allgather/adapt-solo/1KB":        {0x3f073bfe2a5f4684, 0x60d74aa006aee6c5},
	"Gather/libnbc-sm/256KB/root0":    {0x3f71c12f4e90f677, 0x3db58874f53c562a},
	"Scatter/libnbc-sm/256KB/root0":   {0x3f71bfb77f4c8025, 0x1eceecfed0e66f00},
	"Gather/libnbc-sm/256KB/root8":    {0x3f71c12f4e90f677, 0x8aea713cabcb0e8a},
	"Scatter/libnbc-sm/256KB/root8":   {0x3f71bfb77f4c8025, 0x47ffed809bef7cc0},
	"Gather/libnbc-sm/256KB/root5":    {0x3f765b2017113202, 0x776e4c2410f9544a},
	"Scatter/libnbc-sm/256KB/root5":   {0x3f7659a847ccbbaf, 0x4c62fa0db552e363},
	"Allgather/libnbc-sm/256KB":       {0x3f8192e0edc10e28, 0xb49d5fbf2a97551d},
	"Gather/libnbc-solo/256KB/root0":  {0x3f70f3721f798f5b, 0xae73675492f051d1},
	"Scatter/libnbc-solo/256KB/root0": {0x3f70f2152827b3c6, 0xc5239c537e11b650},
	"Gather/libnbc-solo/256KB/root8":  {0x3f70f3721f798f5b, 0x3fe64ffeb48b0759},
	"Scatter/libnbc-solo/256KB/root8": {0x3f70f2152827b3c6, 0x3b686f3c5b270050},
	"Gather/libnbc-solo/256KB/root5":  {0x3f758d62e7f9cae6, 0xc4d2c2622cefee13},
	"Scatter/libnbc-solo/256KB/root5": {0x3f758c05f0a7ef50, 0x23a17e596a8a9e93},
	"Allgather/libnbc-solo/256KB":     {0x3f7de09fac470a1a, 0x1620923e917aaedd},
	"Gather/adapt-sm/256KB/root0":     {0x3f71c12f4e90f677, 0x3db58874f53c562a},
	"Scatter/adapt-sm/256KB/root0":    {0x3f71bfb77f4c8025, 0x1eceecfed0e66f00},
	"Gather/adapt-sm/256KB/root8":     {0x3f71c12f4e90f677, 0x8aea713cabcb0e8a},
	"Scatter/adapt-sm/256KB/root8":    {0x3f71bfb77f4c8025, 0x47ffed809bef7cc0},
	"Gather/adapt-sm/256KB/root5":     {0x3f765b2017113202, 0x776e4c2410f9544a},
	"Scatter/adapt-sm/256KB/root5":    {0x3f7659a847ccbbaf, 0x4c62fa0db552e363},
	"Allgather/adapt-sm/256KB":        {0x3f8192e0edc10e28, 0xb49d5fbf2a97551d},
	"Gather/adapt-solo/256KB/root0":   {0x3f70f3721f798f5b, 0xae73675492f051d1},
	"Scatter/adapt-solo/256KB/root0":  {0x3f70f2152827b3c6, 0xc5239c537e11b650},
	"Gather/adapt-solo/256KB/root8":   {0x3f70f3721f798f5b, 0x3fe64ffeb48b0759},
	"Scatter/adapt-solo/256KB/root8":  {0x3f70f2152827b3c6, 0x3b686f3c5b270050},
	"Gather/adapt-solo/256KB/root5":   {0x3f758d62e7f9cae6, 0xc4d2c2622cefee13},
	"Scatter/adapt-solo/256KB/root5":  {0x3f758c05f0a7ef50, 0x23a17e596a8a9e93},
	"Allgather/adapt-solo/256KB":      {0x3f7de09fac470a1a, 0x1620923e917aaedd},
	"Gather/onenode/sm/root0":         {0x3ed4e9ad3e7846f5, 0x2713f753d41cea51},
	"Scatter/onenode/sm/root0":        {0x3ed0b7ef564acb91, 0x31f75662959b9a5b},
	"Gather/onenode/sm/root2":         {0x3ed4e9ad3e7846f5, 0x866bb6775eee26e1},
	"Scatter/onenode/sm/root2":        {0x3ed0b7ef564acb91, 0xe9f133011da6a4f},
	"Allgather/onenode/sm":            {0x3ee6b762be775abc, 0xebed26132da5e065},
	"Gather/onenode/solo/root0":       {0x3ed35e8a2c9cc9ae, 0x563f81f03a7c5c10},
	"Scatter/onenode/solo/root0":      {0x3ecf30581db48210, 0x6a4b0032c6727b8},
	"Gather/onenode/solo/root2":       {0x3ed35e8a2c9cc9ae, 0xb57fe708b5b644b8},
	"Scatter/onenode/solo/root2":      {0x3ecf30581db48210, 0xafcf6e377414cf20},
	"Allgather/onenode/solo":          {0x3ee6504e770671b4, 0xe69828c278b0f23f},
	"Gather/onerank/root0":            {0x0, 0xa8c7f832281a39c5},
	"Scatter/onerank/root0":           {0x0, 0xa8c7f832281a39c5},
	"Allgather/onerank":               {0x0, 0xa8c7f832281a39c5},
	"Default/GatherScatterAllgather":  {0x3f77ab526bb2f75f, 0xcb6850e57ea5ae2},
}

var goldenTraces = map[string]uint64{
	"Bcast/seg8/root5":               0x30d15547277b69d6,
	"Bcast/libnbc-solo/seg8/root5":   0x3c749a02c2b4293,
	"Bcast/slowfeed/seg8/root5":      0x9bc8b09528a817d6,
	"Bcast3/seg8/root9":              0xe8b80ff3c7c202bf,
	"Reduce/seg8/root5":              0xde600797c1e3344b,
	"BcastComm/seg8/root3":           0xf8a1661341fe94b8,
	"AllreduceComm/seg8":             0xcfe43ab76e59a9b9,
	"Default/BcastThenAllreduce":     0x33f1a3651c814bac,
	"Gather/libnbc-sm/1KB/root5":     0x6d227491bddefb2,
	"Scatter/libnbc-solo/1KB/root5":  0x6a5e31611b4b0bad,
	"Scatter/adapt-sm/256KB/root5":   0x7c894298cbe48eb4,
	"Gather/onenode/sm/root2":        0x99ccf9dd7b5a74e8,
	"Allgather/onenode/solo":         0xdf7e2002d9595509,
	"Default/GatherScatterAllgather": 0x6e7e0f2d786b636,
}

var goldenVectors = map[string][]uint64{
	"BcastSteps": {
		0x3f2fe79367f8561a, 0x3f305b5bc2751fa9, 0x3f303c88e3b6750a, 0x3f3032859d2d7e28,
		0x3f303004cb8b4074, 0x3f302f649722b104, 0x3f302f3c8a088d28, 0x3f302f3286c20434,
		0x3f05de38aff4d000, 0x3f321c6a0572acb9, 0x3f306495fdda5085, 0x3f303c88e3b6750a,
		0x3f3032859d2d7e2c, 0x3f303004cb8b4074, 0x3f302f649722b104, 0x3f302f3c8a088d28,
		0x3f302f3286c20428, 0x3f05de38aff4d000, 0x3f2ffa07dec2b7d2, 0x3f2d6da5e277f62a,
		0x3f30147bc992998c, 0x3f30288256a4874a, 0x3f302d83f9e902bc, 0x3f302ec462ba2194,
		0x3f302f147cee694c, 0x3f302f28837b7b34, 0x3f05de38aff4d000, 0x3f3225a440d7dd95,
		0x3f306495fdda5085, 0x3f303c88e3b6750a, 0x3f3032859d2d7e2c, 0x3f303004cb8b4074,
		0x3f302f649722b104, 0x3f302f3c8a088d28, 0x3f302f3286c20424, 0x3f05de38aff4d000,
	},
	"AllreduceSteps": {
		0x3f38e8712bd4c5b8, 0x3f3743164932b348, 0x3f373db378a5a1a4, 0x3f37ff8b39bb5dec,
		0x3f37cc29db0d0f6c, 0x3f37cc29db0d0f78, 0x3f37cc29db0d0f38, 0x3f37c05dbf2810c8,
		0x3f36e22252180350, 0x3f3002e32c733530, 0x3f05de38aff4d000, 0x3f38e8712bd4c5b8,
		0x3f349d9ad233835a, 0x3f373db378a5a19e, 0x3f37b198ceb591b8, 0x3f37cc29db0d0f6c,
		0x3f37cc29db0d0f80, 0x3f37cc29db0d0f38, 0x3f37c05dbf2810c8, 0x3f373014bd1dcf90,
		0x3f34d0fef4e8e6b8, 0x3f05de38aff4d000, 0x3f38e8712bd4c5b8, 0x3f36f523de2ce712,
		0x3f373db378a5a1a2, 0x3f37ff8b39bb5dec, 0x3f37cc29db0d0f6c, 0x3f37cc29db0d0f80,
		0x3f37cc29db0d0f38, 0x3f37c05dbf2810c8, 0x3f36e22252180350, 0x3f305a0fd2de3238,
		0x3f05de38aff4d000, 0x3f38e8712bd4c5b8, 0x3f3078483b2d27ae, 0x3f391ce7f8adb1b6,
		0x3f374cccf11cabcc, 0x3f3811ffb085bfa4, 0x3f37cc29db0d0f60, 0x3f37cc29db0d0f78,
		0x3f37cc29db0d0f38, 0x3f392fd2e6bd4060, 0x3f3533c309e82978, 0x3f05de38aff4d000,
	},
	"BcastSteps/libnbc-solo": {
		0x3f3181eebe4a6438, 0x3f31b5f1245631ca, 0x3f31b5f1245631cc, 0x3f31b5f1245631ce,
		0x3f31b5f1245631d0, 0x3f31b5f1245631d0, 0x3f31b5f1245631d0, 0x3f31b5f1245631d0,
		0x3ec4f8b588e36800, 0x3f3192b5b5eb1a26, 0x3f2258ae532049ae, 0x3f31abe0295c2b0b,
		0x3f31b5f1245631cc, 0x3f31b5f1245631d0, 0x3f31b5f1245631d0, 0x3f31b5f1245631d0,
		0x3f31b5f1245631d8, 0x3ec4f8b588e36800, 0x3f3a5c1090e0a738, 0x3f31c0021f50388c,
		0x3f31b5f1245631cc, 0x3f31b5f1245631d0, 0x3f31b5f1245631d0, 0x3f31b5f1245631d0,
		0x3f31b5f1245631cc, 0x3f31b5f1245631c8, 0x3ec4f8b588e36800, 0x3f3a6cd788815d26,
		0x3f31c0021f50388c, 0x3f31b5f1245631cc, 0x3f31b5f1245631ce, 0x3f31b5f1245631d0,
		0x3f31b5f1245631d0, 0x3f31b5f1245631c8, 0x3f31b5f1245631c8, 0x3ec4f8b588e36800,
	},
	"AllreduceSteps/libnbc-solo": {
		0x3f1a18e332dfe7cb, 0x3f43cd6fe878d863, 0x3f3a44939c99421c, 0x3f4a4ea4979348e2,
		0x3f3babfd43b25694, 0x3f4a6c00c8ec8744, 0x3f3babfd43b25698, 0x3f4a6c00c8ec8748,
		0x3f3a44939c994230, 0x3f31a6d7abdf27a0, 0x3ec4f8b588e36800, 0x3f1a18e332dfe7cb,
		0x3f419f4aefa3a299, 0x3f3a44939c994220, 0x3f4a4ea4979348e2, 0x3f3babfd43b25694,
		0x3f4a6c00c8ec8744, 0x3f3babfd43b25698, 0x3f4a6c00c8ec8748, 0x3f3a44939c994230,
		0x3f3613e8952a4920, 0x3ec4f8b588e36800, 0x3f1a18e332dfe7cb, 0x3f363576846bb505,
		0x3f45f5b5a43c34e6, 0x3f417b38c1a3b50c, 0x3f46024addf4bd54, 0x3f423fb48cd0f53c,
		0x3f46024addf4bd58, 0x3f423fb48cd0f538, 0x3f45f5b5a43c34e8, 0x3f3a3a82a19f3b60,
		0x3ec4f8b588e36800, 0x3f1a18e332dfe7cb, 0x3f220b8179a36b3c, 0x3f4c95f403d98f90,
		0x3f3e7899a25b92a8, 0x3f484136ce6aa90a, 0x3f40e8f2f0dcc194, 0x3f47590c79e8f100,
		0x3f40e8f2f0dcc18c, 0x3f474c7740306898, 0x3f3a3a82a19f3b60, 0x3ec4f8b588e36800,
	},
	"TimeIB": {
		0x3f2fe79367f85619, 0x0, 0x0, 0x0,
		0x3f321c6a0572acb9, 0x0, 0x0, 0x0,
		0x3f2ffa07dec2b7d1, 0x0, 0x0, 0x0,
		0x3f3225a440d7dd95, 0x0, 0x0, 0x0,
	},
	"TimeSB": {
		0x3f05de38aff4cfe0, 0x3f11b0e8a6d92e70, 0x3f11b0e8a6d92e70, 0x3f119610b43e71c0,
		0x3f05de5edd649ae0, 0x3f11b100833f0d50, 0x3f11b100833f0d50, 0x3f11962890a450a0,
		0x3f05de38aff4cfe0, 0x3f11b0e8a6d92e70, 0x3f11b0e8a6d92e70, 0x3f119610b43e71c0,
		0x3f05de5edd649ae0, 0x3f11b100833f0d50, 0x3f11b100833f0d50, 0x3f11962890a450a0,
	},
	"TimeConcurrentSBIB": {
		0x3f3002e32c73352f, 0x3f1241230dcef880, 0x3f1222fe6dead058, 0x3f12264b1b343bd0,
		0x3f3224cd814307af, 0x3f14964587aa0e6c, 0x3f1492f8da60a2f4, 0x3f14964587aa0e6c,
		0x3f3005676b31b6df, 0x3f148bb9d611d694, 0x3f146d95362dae6c, 0x3f1470e1e37719e4,
		0x3f322751c001895f, 0x3f125453748ff844, 0x3f126bdeb9e1497c, 0x3f128a0359c571a4,
	},
	"TimeIR": {
		0x3f356be5ffd03c96, 0x0, 0x0, 0x0,
		0x3f32c66a88d10ca8, 0x0, 0x0, 0x0,
		0x3f35173d9823c134, 0x0, 0x0, 0x0,
		0x3f22aefec2958fb4, 0x0, 0x0, 0x0,
	},
	"TimeConcurrentIBIR": {
		0x3f3b78e0b62e8fe4, 0x0, 0x0, 0x0,
		0x3f38ccaf4288b0c4, 0x0, 0x0, 0x0,
		0x3f3b24384e821480, 0x0, 0x0, 0x0,
		0x3f33bd5d54552800, 0x0, 0x0, 0x0,
	},
}

const goldenSearchSHA = "2c0f1f4436a3490def253d798383b2bfd719cce78f9cb0dd0ca01da6cda21d45"
