package coll

import (
	"slices"

	"github.com/hanrepro/han/internal/arena"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// No helper branches on what it learns while running: the costs it pays,
// the flags it polls and raises, the messages it sends, receives and waits
// for, and their order, are fixed when the operation is issued. So every
// module describes a helper as a seq — a flat list of steps built at issue
// time — and one interpreter (seqRun.Step) executes them all as step-driven
// processes (sim.Stepper): no goroutine, and a blocking step costs a heap
// event, not a goroutine switch. Each blocking step queues the event a
// goroutine body's Wait or Sleep would queue at the same point, so the
// simulated bits are those of the straight-line bodies the seqs replaced
// (golden_test.go) — which is why a wait for two requests is one step arming
// both: two waits in a row would queue a resume the body never did.
//
// Program, process and the process's storage (hp's sim.Proc) are one record,
// a seqRun, recycled through a pool of the module instance (so of one world).
// It goes back when the engine is through with a helper that ran to its end
// (Reclaim) — after its last Step, which completes the request, whose
// callbacks may issue the next operation and must not be handed a record the
// engine has yet to finish with. The record of a killed helper is retired
// instead, never to be used again: signals the victim was armed on still
// point to it. The request a helper completes is not part of the record: the
// waiter may hold it longer, so it comes from the world's pool and the
// waiter's Wait returns it.

type seqKind uint8

const (
	seqCPU      seqKind = iota // charge the rank's CPU, wait for it
	seqCopy                    // copy over the rank's memory bus, wait
	seqCopyFrom                // copy from another rank's buffer, wait; traced
	seqWait                    // wait for a flag (no event if it is up)
	seqSleep                   // sleep (always an event)
	seqFire                    // raise a flag
	seqDo                      // data plane: run a closure
	seqSend                    // start a send
	seqRecv                    // post a receive
	seqWaitReq                 // wait for the n requests from arg on (no event if all are complete)
	seqWaitAll                 // wait for every request not waited for yet: a tree's sends
)

// seqStep is one step, packed and pointer-free: a rank's helpers hold a few
// hundred of them at a time, and the collector has nothing to scan in them.
type seqStep struct {
	kind seqKind
	n    uint8   // seqWaitReq: how many requests
	arg  int32   // seqCopyFrom: the world rank whose buffer is read; seqWait, seqFire: the flag; seqDo: the closure; seqSend, seqRecv, seqWaitReq: the operand
	amt  float64 // seconds (seqCPU, seqSleep) or bytes (seqCopy, seqCopyFrom)
}

// p2pArg is the operand of a send or a receive. The request it starts takes
// the operand's index, which is how a wait names it.
type p2pArg struct {
	buf       mpi.Buf
	peer, tag int32
}

// seqRun is a helper: its program, under construction until start, and the
// process that executes it on behalf of a rank. The cost steps drop
// themselves when the cost is zero, as a goroutine body's cpuWait does.
type seqRun struct {
	hp    mpi.Proc
	steps []seqStep
	args  []p2pArg
	dos   []func()
	pc    int
	// copying is the seqCopyFrom step the helper is blocked in: its deliver
	// record is due when the copy lands.
	copying *seqStep
	// st is the operation's shared state, of which the helper holds one use.
	st *shmOp
	// comm carries the helper's messages; reqs[i] is operand i's request
	// from its start to its wait, waiting the ones armed by the step the
	// helper is blocked in, retired when it runs again.
	comm          *mpi.Comm
	reqs, waiting []*mpi.Request
	kids          []int // scratch a tree shape lists a rank's children in
	req           *mpi.Request

	pool *arena.Pool[seqRun]
	slot arena.Slot
}

// newSeq returns an empty program from the module's pool, for a helper on
// communicator c, with room for n steps.
func (b *Base) newSeq(c *mpi.Comm, st *shmOp, n int) *seqRun {
	if b.runs == nil {
		b.runs = arena.NewPool(arena.Options[seqRun]{
			Name: "coll.seqRun",
			Reset: func(r *seqRun) {
				clear(r.args) // buffers, closures and requests must not outlive the helper
				clear(r.dos)
				clear(r.reqs)
				// hp stays as it is: the engine reuses its process storage, and
				// until Reclaim it is the engine's.
				*r = seqRun{hp: r.hp, steps: r.steps[:0], args: r.args[:0], dos: r.dos[:0], reqs: r.reqs[:0], kids: r.kids[:0], slot: r.slot}
			},
			Slot: func(r *seqRun) *arena.Slot { return &r.slot },
		})
	}
	s := b.runs.Get()
	s.pool, s.comm, s.st = b.runs, c, st
	if cap(s.steps) < n {
		s.steps = b.carveSteps(n)
	}
	return s
}

// stepChunk is how many steps a module carves step arrays from at once.
const stepChunk = 1024

// carveSteps returns an empty step array with room for n steps, cut from the
// module's current chunk: a slot's first program costs a share of a chunk,
// not an array of its own. A chunk never moves, and a slot keeps its array
// across reuse.
func (b *Base) carveSteps(n int) []seqStep {
	if len(b.stepFree) < n {
		b.stepFree = make([]seqStep, max(n, stepChunk))
	}
	s := b.stepFree[:0:n]
	b.stepFree = b.stepFree[n:]
	return s
}

func (s *seqRun) add(st seqStep) { s.steps = append(s.steps, st) }

func (s *seqRun) cpu(sec float64) {
	if sec > 0 {
		s.add(seqStep{kind: seqCPU, amt: sec})
	}
}

// copyIn models an n-byte copy by the rank over its local memory bus (the
// node bus, or its socket bus on NUMA machines).
func (s *seqRun) copyIn(n int) {
	if n > 0 {
		s.add(seqStep{kind: seqCopy, amt: float64(n)})
	}
}

// copyFrom models an n-byte shared-memory copy into the rank's buffer from
// the one that lives with world rank src: on NUMA machines a cross-socket
// copy also crosses the UPI link, which is exactly the cost a three-level
// hierarchy avoids.
func (s *seqRun) copyFrom(n, src int) {
	if n > 0 {
		s.add(seqStep{kind: seqCopyFrom, amt: float64(n), arg: int32(src)})
	}
}

// poll waits for a flag, then pays the latency of its propagation.
func (s *seqRun) poll(f flag, lat sim.Time) {
	s.add(seqStep{kind: seqWait, arg: int32(f)})
	s.add(seqStep{kind: seqSleep, amt: float64(lat)})
}

func (s *seqRun) fire(f flag) { s.add(seqStep{kind: seqFire, arg: int32(f)}) }

func (s *seqRun) do(fn func()) {
	s.add(seqStep{kind: seqDo, arg: int32(len(s.dos))})
	s.dos = append(s.dos, fn)
}

// send and recv start a message on the helper's communicator and return
// the index wait names its request by.
func (s *seqRun) send(buf mpi.Buf, to, tag int) int { return s.p2p(seqSend, buf, to, tag) }

func (s *seqRun) recv(buf mpi.Buf, from, tag int) int { return s.p2p(seqRecv, buf, from, tag) }

func (s *seqRun) p2p(kind seqKind, buf mpi.Buf, peer, tag int) int {
	i := len(s.args)
	s.args = append(s.args, p2pArg{buf, int32(peer), int32(tag)})
	s.add(seqStep{kind: kind, arg: int32(i)})
	return i
}

// wait blocks until requests i to i+n-1 are all complete, in one park.
func (s *seqRun) wait(i, n int) { s.add(seqStep{kind: seqWaitReq, arg: int32(i), n: uint8(n)}) }

func (s *seqRun) waitAll() { s.add(seqStep{kind: seqWaitAll}) }

// copy is the data plane of dst = src. Between phantoms there is nothing to
// move, only the lengths to check, and that happens here.
func (s *seqRun) copy(dst, src mpi.Buf) {
	if dst.Real() || src.Real() {
		s.do(func() { dst.CopyFrom(src) })
	} else {
		dst.CopyFrom(src)
	}
}

// reduce folds src into dst at bps bytes per second on the rank's CPU.
func (s *seqRun) reduce(bps float64, op mpi.Op, dt mpi.Datatype, dst, src mpi.Buf) {
	s.cpu(float64(dst.N) / bps)
	if dst.Real() && src.Real() {
		s.do(func() { mpi.ReduceBuf(op, dt, dst, src) })
	}
}

// payload is the data plane of a copy-out: dst takes comm rank i's
// snapshot, in a world that carries real bytes.
func (s *seqRun) payload(dst mpi.Buf, i int) {
	if st := s.st; dst.Real() {
		s.do(func() {
			if src := st.contribs[i]; src.Real() {
				dst.CopyFrom(src)
			}
		})
	}
}

// fold is the data plane of a reduction step: comm rank i's snapshot is
// folded into dst.
func (s *seqRun) fold(op mpi.Op, dt mpi.Datatype, dst mpi.Buf, i int) {
	if st := s.st; dst.Real() {
		s.do(func() {
			if src := st.contribs[i]; src.Real() {
				mpi.ReduceBuf(op, dt, dst, src)
			}
		})
	}
}

// start runs the program in a step-driven helper of p's rank and returns the
// request that completes when it has run to its end. The helper's use of
// the operation's shared state is released when it ends or is killed.
func (s *seqRun) start(p *mpi.Proc, name string) *mpi.Request {
	s.req = p.W.NewRequest()
	s.reqs = slices.Grow(s.reqs, len(s.args))[:len(s.args)]
	p.SpawnSteps(&s.hp, name, s)
	return s.req
}

func (r *seqRun) Step(sp *sim.Proc) bool {
	hp := &r.hp
	w, mach := hp.W, hp.W.Mach
	for {
		if st := r.copying; st != nil {
			r.copying = nil
			w.Tracer.Record(trace.Event{
				T: float64(hp.Now()), Rank: hp.Rank, Kind: trace.KindDeliver,
				Name: "copy", Size: int(st.amt), Peer: int(st.arg),
			})
		}
		if done := r.waiting; done != nil {
			r.waiting = nil
			hp.Release(done)
			clear(done)
		}
		if r.pc == len(r.steps) {
			break
		}
		st := &r.steps[r.pc]
		r.pc++
		switch st.kind {
		case seqSleep:
			sp.StepSleep(sim.Time(st.amt))
			return false
		case seqFire:
			r.st.sig(flag(st.arg)).Fire(w.Eng())
			continue
		case seqDo:
			r.dos[st.arg]()
			continue
		case seqSend:
			a := &r.args[st.arg]
			r.reqs[st.arg] = r.comm.Isend(hp, a.buf, int(a.peer), int(a.tag))
			continue
		case seqRecv:
			a := &r.args[st.arg]
			r.reqs[st.arg] = r.comm.Irecv(hp, a.buf, int(a.peer), int(a.tag))
			continue
		case seqWaitReq:
			r.waiting = r.reqs[st.arg : st.arg+int32(st.n)]
			hp.Arm(r.waiting)
		case seqWaitAll:
			r.waiting = r.reqs
			hp.Arm(r.waiting)
		case seqWait:
			sp.Arm(r.st.sig(flag(st.arg)), nil)
		case seqCPU:
			sp.Arm(mach.CPUWork(hp.Rank, st.amt).Done(), nil)
		case seqCopy:
			sp.Arm(mach.Net.Start(st.amt, mach.InboundBus(hp.Rank)).Done(), nil)
		case seqCopyFrom:
			// A cross-rank copy is a data dependency just like a network
			// message, so it is traced as a send/deliver pair — without it
			// the critical-path analyzer could not walk from a non-leader
			// rank back to the leader whose inter-node receive produced the
			// data.
			src := int(st.arg)
			w.Tracer.Record(trace.Event{
				T: float64(hp.Now()), Rank: src, Kind: trace.KindSend,
				Name: "copy", Size: int(st.amt), Peer: hp.Rank,
			})
			sp.Arm(mach.Net.Start(st.amt, mach.IntraPath(src, hp.Rank)...).Done(), nil)
			r.copying = st
		}
		if sp.StepWait() {
			return false
		}
	}
	r.release()
	r.req.Complete(w.Eng())
	return true
}

// Reclaim returns the record of a helper that ran to its end, which drops
// what it points to: payload snapshots and the caller's buffers must not
// outlive the helper.
func (r *seqRun) Reclaim(*sim.Proc) { r.pool.Put(r) }

// Unwind is a killed helper's end: its request never completes, the requests
// it was waiting for stay with the world, and its record drops what it points
// to but does not go round again.
func (r *seqRun) Unwind(*sim.Proc) {
	r.release()
	r.pool.Retire(r)
}

// release gives up the helper's use of the operation's shared state.
func (r *seqRun) release() {
	if r.st != nil {
		r.st.release()
	}
}
