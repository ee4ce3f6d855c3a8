package han

import (
	"fmt"

	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// The one task pipeline every HAN collective runs on (see the package
// comment): level list -> derive -> stage table -> table. Everything here is
// fixed-size and lives, inside the Call, in the calling rank's slot of the
// HAN instance: at 4096 ranks a handful of per-call allocations would show
// up in the benchmark, and a rank that is a routine has no stack to keep a
// call on.

const (
	maxLevels = 3
	maxStages = 6
)

// levelKind names a hierarchy level. It fixes the level's task names and
// the level label of han_tasks.
type levelKind uint8

const (
	lvIntra  levelKind = iota // a whole node over shared memory
	lvSocket                  // one NUMA socket of a node
	lvNode                    // a node's socket leaders
	lvGPU                     // a node's GPUs over NVLink
	lvInter                   // the node leaders over the network
	lvPCIe                    // no level of its own: labels the d2h/h2d boundary stages
	numLevelKinds
)

var levelLabels = [numLevelKinds]string{"intra", "socket", "node", "gpu", "inter", "pcie"}

// level is one hierarchy level as the calling rank sees it.
type level struct {
	comm *mpi.Comm // nil when this rank is not a member
	mod  coll.Module
	down coll.Module // the broadcast side's module when it is not mod (Config.SBMod)
	root int         // root within comm, for both directions
	kind levelKind
}

// stageOp is what a stage does with its segment.
type stageOp uint8

const (
	opDown    stageOp = iota // broadcast on the level from its root (sb, nb, gb, ib)
	opUp                     // reduce on the level to its root (sr, nr, gr, ir)
	opAll                    // allreduce on the level (sa on a single node, ia as a fused top)
	opD2H                    // stage the segment device -> host over PCIe
	opH2D                    // stage the segment host -> device over PCIe
	opH2DDown                // opH2D then opDown, chained so they complete as one task
	// The block stages, last in the enum: every member of the level holds a
	// block, its root (or, after an allgather, every member) the blocks of
	// all of them in rank order, which is one block of the level above.
	opGather    // gather the level's blocks at its root (sg, ig)
	opScatter   // scatter the root's blocks over the level (ss, is)
	opAllgather // allgather the level's blocks (iag)
	numStageOps
	noOp = numStageOps // in a table of ops: none
)

// taskNames maps a stage to the paper's task vocabulary.
var taskNames = [numStageOps][numLevelKinds]string{
	opDown: {lvIntra: "sb", lvSocket: "sb", lvNode: "nb", lvGPU: "gb", lvInter: "ib"},
	opUp:   {lvIntra: "sr", lvSocket: "sr", lvNode: "nr", lvGPU: "gr", lvInter: "ir"},
	opAll:  {lvIntra: "sa", lvInter: "ia"},
	opD2H:  {lvPCIe: "d2h"},
	opH2D:  {lvPCIe: "h2d"},

	opGather:    {lvIntra: "sg", lvInter: "ig"},
	opScatter:   {lvIntra: "ss", lvInter: "is"},
	opAllgather: {lvInter: "iag"},
}

// stage is one row of the stage table: at step t, do op on segment t-off
// at level lv.
type stage struct {
	op      stageOp
	lv, off uint8
}

// pipeline is one collective call on one rank: level list, stage table,
// buffers and segment size, and the state of the step loop that runs them.
type pipeline struct {
	lv  [maxLevels]level
	nlv int
	st  [maxStages]stage
	nst int
	// depth is the largest stage offset over all ranks' tables, so every
	// rank runs segs()+depth steps.
	depth int
	// leafFirst lists a broadcast's stages innermost level first; see
	// derive.
	leafFirst bool

	// The innermost level's reduce reads src; every other stage works in
	// place on dst. n is their common length, fs the segment size. A block
	// collective is one segment whose extent depends on the level: src is
	// the rank's own block and dst, of length n, the blocks of all ranks —
	// whichever way they move — with mid, on a node leader, the node's
	// blocks between the two levels (blocks).
	src, dst, mid mpi.Buf
	n, fs         int
	op            mpi.Op
	dt            mpi.Datatype
	// ib and ir parametrise the inter-node level's broadcast and reduce
	// (algorithm and internal segment size); the other levels take their
	// module's defaults.
	ib, ir coll.Params

	// feed holds, on the root-node leader of a broadcast or scatter whose
	// root is not a leader, the per-segment receives of the root's data; the
	// outermost level's stage — such a table has one — waits for segment j's
	// before it is issued.
	feed []*mpi.Request

	// The step loop (table): the rank it runs for, which also marks the slot
	// taken; the step, the next row of its table, the tasks issued in it so
	// far and when it began; the wait the call is blocked in, if any.
	h       *HAN
	p       *mpi.Proc
	t, i, k int
	reqs    [maxStages]*mpi.Request
	t0      sim.Time
	steps   []sim.Time
	in      uint8
}

// The waits a call blocks in: in is which one it is in, zero in none.
const (
	inFeed  uint8 = iota + 1 // the step loop's, for the feed of the row about to be issued
	inTasks                  // the step loop's, for the step's tasks
	inCall                   // one of the call's own, outside the table (Call.Step)
)

// slot returns the calling rank's slot, zeroed but for the pipeline's rank,
// which marks it taken: a rank runs one collective at a time, so a
// collective costs it no allocation.
func (h *HAN) slot(p *mpi.Proc) *Call {
	if h.slots == nil {
		h.slots = make([]Call, h.W.Size())
	}
	c := &h.slots[p.Rank]
	if c.pl.p != nil {
		panic(fmt.Sprintf("han: rank %d entered a collective inside another", p.Rank))
	}
	*c = Call{pl: pipeline{h: h, p: p}}
	return c
}

// init sets the buffers and clamps the segment size to [1, n].
func (pl *pipeline) init(src, dst mpi.Buf, n int, op mpi.Op, dt mpi.Datatype, fs int) {
	pl.src, pl.dst, pl.n, pl.op, pl.dt = src, dst, n, op, dt
	if fs <= 0 || fs > n {
		fs = n
	}
	pl.fs = fs
}

// segs is u = ceil(n/fs).
func (pl *pipeline) segs() int { return (pl.n + pl.fs - 1) / pl.fs }

// seg returns segment j of b.
func (pl *pipeline) seg(b mpi.Buf, j int) mpi.Buf {
	lo := j * pl.fs
	return b.Slice(lo, min(lo+pl.fs, pl.n))
}

// add appends a stage at the current depth if this rank is a member of the
// stage's level, and advances the depth either way: offsets are global, the
// table is per rank.
func (pl *pipeline) add(op stageOp, lv int) {
	if pl.lv[lv].comm != nil {
		pl.st[pl.nst] = stage{op, uint8(lv), uint8(pl.depth)}
		pl.nst++
	}
	pl.depth++
}

// isRoot reports whether this rank is the root of level lv.
func (pl *pipeline) isRoot(p *mpi.Proc, lv int) bool {
	l := &pl.lv[lv]
	return l.comm != nil && l.comm.Rank(p) == l.root
}

// form describes a collective kind to the prologue and to derive: the stage
// op of the sweep up the levels and of the sweep down them (noOp: no sweep
// that way), the op the sweeps meet in on the outermost level in place of
// both (noOp: they do not meet), and whether the stages move blocks, one
// per rank, instead of segments of one message.
type form struct {
	up, down, meet stageOp
	blocks         bool
}

// rooted: data moves one way only, to or from a root.
func (f form) rooted() bool { return f.up == noOp || f.down == noOp }

var forms = [...]form{
	coll.Bcast:     {noOp, opDown, noOp, false},
	coll.Reduce:    {opUp, noOp, noOp, false},
	coll.Allreduce: {opUp, opDown, noOp, false},
	coll.Gather:    {opGather, noOp, noOp, true},
	coll.Allgather: {opGather, opDown, opAllgather, true},
	coll.Scatter:   {noOp, opScatter, noOp, true},
}

// formOf is kind's form under cfg: an Allreduce with a fused top meets in
// an allreduce.
func formOf(kind coll.Kind, cfg *Config) form {
	f := forms[kind]
	if kind == coll.Allreduce && cfg.Top == TopFused {
		f.meet = opAll
	}
	return f
}

// derive builds the stage table of a collective of form f from the level
// list: a sweep up the levels from the innermost (the reduces of a Reduce or
// Allreduce, the gathers of a Gather or Allgather), then a sweep down them
// from the outermost (the broadcasts of a Bcast, Allreduce or Allgather,
// the scatters of a Scatter), one step offset per stage. Where the sweeps
// meet (an Allgather, a fused Allreduce), the outermost level has one
// stage, f.meet, in place of the two. Where a sweep crosses from a
// device-resident level (lvGPU) to the level above it, a PCIe staging is
// inserted as a stage of
// the upper level's members: a reduction stages every partial down and
// every result up (d2h, h2d); a broadcast only has the root stage down, and
// folds the upload into the receiving leaders' device broadcast
// (opH2DDown) — the root's device copy is already in place.
//
// Table order is issue order within a step, and simulated time depends on
// it: tasks issued at the same instant enter the network in issue order.
// The sweeps list stages in offset order except for leafFirst, the order
// of the original two-level Bcast (Fig 1's sbib issues sb(i-1), then
// ib(i)), which its sim bits are recorded with.
func (pl *pipeline) derive(p *mpi.Proc, kind coll.Kind, f form) {
	top := pl.nlv - 1
	pl.nst, pl.depth = 0, 0
	if f.up != noOp {
		for l := 0; l <= top; l++ {
			if l > 0 && pl.lv[l-1].kind == lvGPU {
				pl.add(opD2H, l)
			}
			op := f.up
			if l == top && f.meet != noOp {
				op = f.meet
			}
			pl.add(op, l)
		}
	} else if top > 0 && pl.lv[top-1].kind == lvGPU {
		if pl.isRoot(p, top) {
			pl.add(opD2H, top)
		} else {
			pl.depth++
		}
	}
	if f.down != noOp {
		if f.meet != noOp {
			top-- // the meet was that level's down stage too
		}
		for l := top; l >= 0; l-- {
			op := f.down
			if l+1 < pl.nlv && pl.lv[l].kind == lvGPU {
				if kind != coll.Bcast {
					pl.add(opH2D, l+1)
				} else if pl.lv[l+1].comm != nil && !pl.isRoot(p, l+1) {
					op = opH2DDown
				}
			}
			pl.add(op, l)
		}
	}
	pl.depth-- // from stage count to largest offset
	if pl.leafFirst && kind == coll.Bcast {
		for i, j := 0, pl.nst-1; i < j; i, j = i+1, j-1 {
			pl.st[i], pl.st[j] = pl.st[j], pl.st[i]
		}
	}
}

// table is the step loop — the only one in the package — from where it last
// blocked: it reports whether the table is through. At step t it issues
// every stage whose segment t-off exists, in table order, then waits for
// all of them: the task barrier of Figs 1 and 5.
func (pl *pipeline) table(sp *sim.Proc) (done bool) {
	p, u := pl.p, pl.segs()
	for ; pl.t < u+pl.depth; pl.t++ {
		for ; pl.i < pl.nst; pl.i++ {
			st := pl.st[pl.i]
			j := pl.t - int(st.off)
			if j < 0 || j >= u {
				continue
			}
			if pl.feed != nil && int(st.lv) == pl.nlv-1 && pl.wait(sp, pl.feed[j:j+1], inFeed) {
				return false
			}
			pl.reqs[pl.k] = pl.h.issue(p, pl, st, j)
			pl.k++
		}
		if pl.wait(sp, pl.reqs[:pl.k], inTasks) {
			return false
		}
		if pl.steps != nil {
			pl.steps[pl.t] = p.Now() - pl.t0
		}
		pl.t0, pl.i, pl.k = p.Now(), 0, 0
	}
	return true
}

// wait is a blocking Wait for reqs in two halves: it arms them and reports
// whether the loop has to block; called again when the loop has resumed at
// the same place — or going straight on, if nothing was left to wait for —
// it releases them.
func (pl *pipeline) wait(sp *sim.Proc, reqs []*mpi.Request, in uint8) (blocked bool) {
	if pl.in != in {
		pl.in = in
		if pl.p.Arm(reqs); sp.StepWait() {
			return true
		}
	}
	pl.in = 0
	pl.p.Release(reqs)
	return false
}

// issue starts one task — stage st of pl on segment j — and is the single
// point every task passes through, so each is traced and counted.
func (h *HAN) issue(p *mpi.Proc, pl *pipeline, st stage, j int) *mpi.Request {
	lv := &pl.lv[st.lv]
	op, kind := st.op, lv.kind
	var src, dst mpi.Buf
	var size int
	if op >= opGather {
		// A block task's size is one member's block.
		src, dst = pl.blocks(st.lv)
		size = src.N
	} else {
		dst = pl.seg(pl.dst, j)
		src, size = dst, dst.N
		if st.lv == 0 && (op == opUp || op == opAll) {
			src = pl.seg(pl.src, j)
		}
	}
	var down, up coll.Params
	if kind == lvInter {
		down, up = pl.ib, pl.ir
	}
	var req *mpi.Request
	switch op {
	case opDown:
		mod := lv.mod
		if lv.down != nil {
			mod = lv.down
		}
		req = mod.Ibcast(p, lv.comm, dst, lv.root, down)
	case opUp:
		req = lv.mod.Ireduce(p, lv.comm, src, dst, pl.op, pl.dt, lv.root, up)
	case opAll:
		req = lv.mod.Iallreduce(p, lv.comm, src, dst, pl.op, pl.dt, up)
	case opD2H:
		req, kind = h.Mods.CUDA.D2H(p, dst.N), lvPCIe
	case opH2D:
		req, kind = h.Mods.CUDA.H2D(p, dst.N), lvPCIe
	case opH2DDown:
		// Counted as the level's broadcast; its duration includes the upload.
		req, op = h.Mods.CUDA.H2DBcast(p, lv.comm, dst, lv.root), opDown
	case opGather: // the block operations take their module's defaults
		req = lv.mod.Igather(p, lv.comm, src, dst, lv.root, coll.Params{})
	case opScatter:
		req = lv.mod.Iscatter(p, lv.comm, dst, src, lv.root, coll.Params{})
	case opAllgather:
		req = lv.mod.Iallgather(p, lv.comm, src, dst, coll.Params{})
	}
	return h.traced(p, op, kind, size, req)
}

// blocks returns the buffers of a block stage on level l: lo, one block per
// member — the rank's own, src, on the innermost level — and hi, the
// level's blocks together in rank order, which is the lo of the level above
// and dst on the outermost. hi matters where the stage delivers or takes
// it: on the level's root, and on every member of an allgather.
func (pl *pipeline) blocks(l uint8) (lo, hi mpi.Buf) {
	lo, hi = pl.src, pl.dst
	if l > 0 {
		lo = pl.mid
	}
	if int(l) < pl.nlv-1 {
		hi = pl.mid
	}
	return lo, hi
}
