package coll

import (
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// A shared-memory operation's helper does not branch on anything it learns
// while running: which costs it pays, which flags it polls and raises, and
// in what order, are fixed when the operation is issued. So SM and SOLO
// describe each helper as a seq — a flat list of steps built at issue time —
// and one interpreter (seqRun) executes every one of them as a step-driven
// process (sim.Stepper): no goroutine, and a blocking step costs a heap
// event instead of a goroutine switch. Each blocking step queues the event a
// goroutine body's Wait or Sleep would queue at the same point, so the
// simulated bits are those of the straight-line bodies the seqs replaced
// (golden_test.go).

type seqKind uint8

const (
	seqCPU      seqKind = iota // charge the rank's CPU, wait for it
	seqCopy                    // copy over the rank's memory bus, wait
	seqCopyFrom                // copy from another rank's buffer, wait; traced
	seqWait                    // wait for a flag (no event if it is up)
	seqSleep                   // sleep (always an event)
	seqFire                    // raise a flag
	seqDo                      // data plane: run do
)

// seqStep is one step, packed: a rank's helpers hold a few hundred of them
// at a time.
type seqStep struct {
	kind seqKind
	arg  int32   // seqCopyFrom: the world rank whose buffer is read; seqWait, seqFire: the flag
	amt  float64 // seconds (seqCPU, seqSleep) or bytes (seqCopy, seqCopyFrom)
	do   func()  // seqDo
}

// seq is a helper's program under construction, on the shared state of its
// operation. The cost steps drop themselves when the cost is zero, as
// cpuWait does.
type seq struct {
	st    *shmOp
	steps []seqStep
}

// newSeq returns an empty program with room for n steps.
func newSeq(st *shmOp, n int) seq { return seq{st, make([]seqStep, 0, n)} }

func (s *seq) add(st seqStep) { s.steps = append(s.steps, st) }

func (s *seq) cpu(sec float64) {
	if sec > 0 {
		s.add(seqStep{kind: seqCPU, amt: sec})
	}
}

// copyIn models an n-byte copy by the rank over its local memory bus (the
// node bus, or its socket bus on NUMA machines).
func (s *seq) copyIn(n int) {
	if n > 0 {
		s.add(seqStep{kind: seqCopy, amt: float64(n)})
	}
}

// copyFrom models an n-byte shared-memory copy into the rank's buffer from
// the one that lives with world rank src: on NUMA machines a cross-socket
// copy also crosses the UPI link, which is exactly the cost a three-level
// hierarchy avoids.
func (s *seq) copyFrom(n, src int) {
	if n > 0 {
		s.add(seqStep{kind: seqCopyFrom, amt: float64(n), arg: int32(src)})
	}
}

// poll waits for a flag, then pays the latency of its propagation.
func (s *seq) poll(f flag, lat sim.Time) {
	s.add(seqStep{kind: seqWait, arg: int32(f)})
	s.add(seqStep{kind: seqSleep, amt: float64(lat)})
}

func (s *seq) fire(f flag)  { s.add(seqStep{kind: seqFire, arg: int32(f)}) }
func (s *seq) do(fn func()) { s.add(seqStep{kind: seqDo, do: fn}) }

// payload is the data plane of a copy-out: dst takes comm rank i's
// snapshot, in a world that carries real bytes.
func (s *seq) payload(dst mpi.Buf, i int) {
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
func (s *seq) fold(op mpi.Op, dt mpi.Datatype, dst mpi.Buf, i int) {
	if st := s.st; dst.Real() {
		s.do(func() {
			if src := st.contribs[i]; src.Real() {
				mpi.ReduceBuf(op, dt, dst, src)
			}
		})
	}
}

// seqRun is one helper executing a seq on behalf of a rank.
type seqRun struct {
	hp    *mpi.Proc
	steps []seqStep
	pc    int
	// copying is the seqCopyFrom step the helper is blocked in: its deliver
	// record is due when the copy lands.
	copying *seqStep
	// st is the operation's shared state, of which the helper holds one use.
	st  *shmOp
	req mpi.Request
}

// start runs s in a step-driven helper of p's rank and returns the request
// that completes when it has run to its end. The helper's use of the
// operation's shared state is released when it ends or is killed.
func (s seq) start(p *mpi.Proc, name string) *mpi.Request {
	r := &seqRun{steps: s.steps, st: s.st}
	r.hp = p.SpawnSteps(name, r)
	return &r.req
}

func (r *seqRun) Step(sp *sim.Proc) bool {
	hp := r.hp
	w, mach := hp.W, hp.W.Mach
	for {
		if st := r.copying; st != nil {
			r.copying = nil
			w.Tracer.Record(trace.Event{
				T: float64(hp.Now()), Rank: hp.Rank, Kind: trace.KindDeliver,
				Name: "copy", Size: int(st.amt), Peer: int(st.arg),
			})
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
			st.do()
			continue
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
	r.end()
	r.req.Complete(w.Eng())
	return true
}

// Unwind releases a killed helper's use of the shared state; its request
// never completes.
func (r *seqRun) Unwind(*sim.Proc) { r.end() }

// end releases the helper's use of the shared state and lets go of it: the
// request, which its waiter may hold on to, must not keep the operation's
// payload snapshots alive.
func (r *seqRun) end() {
	r.st.release()
	r.st, r.steps = nil, nil
}
