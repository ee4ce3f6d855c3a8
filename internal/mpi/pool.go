package mpi

import (
	"github.com/hanrepro/han/internal/arena"
	"github.com/hanrepro/han/internal/flow"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// This file implements the arena-pooled P2P fast path. It is a
// re-plumbing of p2p.go's reference implementation, not a re-modeling:
// the per-send signal chains (pairTail/envTail) and counters become
// explicit FIFO queues on a persistent per-pair pairState, and the
// per-send closures become persistent closures created once per pool
// slot. Every engine-visible action — flow starts, Schedule calls,
// signal fires, latency/RNG draws — happens at the same call points in
// the same order, so the two paths are bit-identical; the differential
// suites hold them to that.
//
// The mode is decided world-wide at the first Isend/Irecv (p2pPooled): a
// pair's wire and envelope FIFOs cannot interleave a signal chain with a
// queue, so a world is either all-pooled or all-reference. Drop plans
// force the reference path — startEagerReliable's retransmission state
// is per-attempt and not worth pooling.

// P2P mode, resolved once per world at the first send or receive.
const (
	p2pUndecided = iota
	p2pPooledMode
	p2pReferenceMode
)

// sendOp is the pooled per-send record: the message, the wire/envelope
// queue linkage, and the persistent closures that drive the protocol. It
// is created by isendPooled and released once both the wire side
// (payload drained, send request completed) and the receive side
// (payload copied out) are done with it — refs counts those two.
type sendOp struct {
	w    *World
	msg  message
	req  *Request
	pair *pairState

	srcW, dstW int
	ctx        int
	bytes      float64 // wire bytes (size / protocol efficiency)
	envReady   bool    // own envelope latency has elapsed
	refs       int

	dataSig sim.Signal // backs msg.dataArrived

	// rel is the retransmission state of an eager send whose envelope went
	// out under a drop or crash plan; nil otherwise.
	rel *retx

	// Persistent closures, created once in the pool's Init hook.
	onSendOvDone func() // send-side progression work finished
	onEnvLat     func() // envelope latency elapsed
	onMatchFn    func() // rendezvous matched: issue the clear-to-send
	onCTS        func() // clear-to-send arrived back at the sender
	onWireDone   func() // payload drained from the wire

	slot arena.Slot
}

// opQueue is a FIFO of sendOps with O(1) push/pop and a reusable backing
// array: a head index avoids shifting, and the array rewinds once
// drained, so a steady-state queue never reallocates or pins a released
// op.
type opQueue struct {
	q    []*sendOp
	head int
}

func (q *opQueue) empty() bool    { return q.head == len(q.q) }
func (q *opQueue) push(o *sendOp) { q.q = append(q.q, o) }
func (q *opQueue) peek() *sendOp  { return q.q[q.head] }

func (q *opQueue) pop() *sendOp {
	o := q.q[q.head]
	q.q[q.head] = nil
	q.head++
	if q.head == len(q.q) {
		q.q = q.q[:0]
		q.head = 0
	}
	return o
}

// pairState is the persistent per-directed-pair state replacing the
// pairTail/envTail signal chains: the cached data path, the wire FIFO
// (one payload on the wire at a time, program order), and the envelope
// FIFO (MPI's non-overtaking guarantee).
type pairState struct {
	path     []*flow.Resource // cached dataPath(src, dst)
	wireBusy bool             // a payload is on the wire
	wireQ    opQueue          // payloads waiting for the wire
	envQ     opQueue          // sends in issue order, delivered FIFO
}

func (w *World) pair(srcW, dstW int) *pairState {
	k := pairKey{srcW, dstW}
	ps := w.pairs[k]
	if ps == nil {
		ps = &pairState{path: w.dataPath(srcW, dstW)}
		w.pairs[k] = ps
	}
	return ps
}

// p2pPooled resolves (once, lazily) whether this world's P2P traffic
// runs on the pooled or the reference path. Lazy because fault plans
// attach after NewWorld; by the first send or receive the world's
// configuration is final.
func (w *World) p2pPooled() bool {
	if w.p2pMode == p2pUndecided {
		if w.pooling {
			w.p2pMode = p2pPooledMode
		} else {
			w.p2pMode = p2pReferenceMode
		}
	}
	return w.p2pMode == p2pPooledMode
}

func (w *World) initPools() {
	eng := w.Eng()
	w.pairs = make(map[pairKey]*pairState)
	w.reqPool = arena.NewPool(arena.Options[Request]{
		Name: "mpi.request",
		Init: func(r *Request) { r.pooled = true },
		Reset: func(r *Request) {
			r.doneSig.Reset()
			r.site = WaitSite{}
			r.err = nil
		},
		Slot: func(r *Request) *arena.Slot { return &r.slot },
	})
	w.sendPool = arena.NewPool(arena.Options[sendOp]{
		Name: "mpi.sendOp",
		Init: func(op *sendOp) {
			op.w = w
			op.msg.dataArrived = &op.dataSig
			op.msg.op = op
			op.onSendOvDone = func() {
				// Same draw point as the reference path: envelope latency
				// (and its jitter, if any) is sampled when the send-side
				// progression work finishes.
				eng.Schedule(sim.Time(w.latency(op.srcW, op.dstW)), op.onEnvLat)
			}
			op.onEnvLat = func() {
				op.envReady = true
				w.drainEnv(op.pair)
			}
			op.onMatchFn = func() {
				// Clear-to-send travels back, then the payload moves.
				eng.Schedule(sim.Time(w.latency(op.dstW, op.srcW)), op.onCTS)
			}
			op.onCTS = func() { op.pair.startData(w, op) }
			op.onWireDone = func() { w.wireDrained(op) }
		},
		Reset: func(op *sendOp) {
			op.msg.src, op.msg.tag, op.msg.size = 0, 0, 0
			op.msg.data = Buf{}
			op.msg.eager = false
			op.msg.onMatch = nil
			op.dataSig.Reset()
			op.req = nil
			op.pair = nil
			op.srcW, op.dstW, op.ctx = 0, 0, 0
			op.bytes = 0
			op.envReady = false
			op.refs = 0
			op.rel = nil
		},
		Slot: func(op *sendOp) *arena.Slot { return &op.slot },
	})
	w.recvPool = arena.NewPool(arena.Options[recvReq]{
		Name: "mpi.recvReq",
		Init: func(r *recvReq) {
			r.pooled = true
			r.onData = func() {
				ro := w.Pers.RecvOverhead
				if s := w.faults.OverheadScale(r.dstWorld); s != 1 {
					ro *= s
				}
				ov := w.Mach.CPUWork(r.dstWorld, ro)
				ov.Done().OnFire(r.onOvDone)
			}
			r.onOvDone = func() {
				m := r.m
				r.buf.Slice(0, m.size).CopyFrom(m.data)
				w.Tracer.Record(trace.Event{
					T: float64(eng.Now()), Rank: r.dstWorld, Kind: trace.KindDeliver,
					Name: "deliver", Size: m.size, Peer: r.comm.ranks[m.src],
				})
				w.m.delivered.Inc()
				w.m.deliveredBytes.Add(float64(m.size))
				r.req.Complete(eng)
				// r is dead from here on: nothing holds it (it left the
				// posted list at match time) and its request has fired.
				op := m.op
				w.recvPool.Put(r)
				w.decref(op)
			}
		},
		Reset: func(r *recvReq) {
			r.src, r.tag = 0, 0
			r.buf = Buf{}
			r.req = nil
			r.comm = nil
			r.dstWorld = 0
			r.m = nil
		},
		Slot: func(r *recvReq) *arena.Slot { return &r.slot },
	})
}

func (w *World) decref(op *sendOp) {
	op.refs--
	if op.refs == 0 {
		w.sendPool.Put(op)
	}
}

// isendPooled is Isend on the arena path. The protocol sequencing
// mirrors the reference implementation action for action; see the file
// comment.
func (c *Comm) isendPooled(p *Proc, buf Buf, dst, tag int, me int) *Request {
	w := c.w
	req := w.reqPool.Get()
	req.site = WaitSite{Op: "send", Peer: dst, Tag: tag, Ctx: c.ctx}
	srcW, dstW := p.Rank, c.ranks[dst]
	if cs := w.crash; cs != nil {
		if cs.dead[dstW] {
			// The peer has already been declared dead: fail fast instead of
			// spending attempts against a rank every survivor knows is gone.
			w.m.deadLetters.Inc()
			req.fail(w.Eng(), &PeerDeadError{Rank: dstW, Via: cs.deadVia(dstW)})
			return req
		}
		if cs.isTarget[dstW] {
			cs.watch[dstW] = append(cs.watch[dstW], watchEntry{req: req})
		}
	}

	// Snapshot real payloads so the sender may reuse its buffer as soon as
	// the request completes, regardless of when the receiver copies.
	data := buf
	if buf.Real() {
		cp := make([]byte, buf.N)
		copy(cp, buf.B)
		data = Bytes(cp)
	}

	op := w.sendPool.Get()
	op.req = req
	op.srcW, op.dstW, op.ctx = srcW, dstW, c.ctx
	op.refs = 2 // wire side + receive side
	op.msg.src, op.msg.tag, op.msg.size = me, tag, buf.Len()
	op.msg.data = data
	op.msg.eager = buf.Len() <= w.Pers.EagerThreshold
	// Eff is a pure function of the size, so evaluating it here instead of
	// at wire time (as the reference does) is value-identical.
	op.bytes = float64(op.msg.size) / w.Pers.Eff(max(op.msg.size, 1))
	op.pair = w.pair(srcW, dstW)

	w.Tracer.Record(trace.Event{
		T: float64(p.Now()), Rank: srcW, Kind: trace.KindSend,
		Name: "send", Size: buf.Len(), Peer: dstW,
	})
	if op.msg.eager {
		w.m.sendsEager.Inc()
	} else {
		w.m.sendsRdv.Inc()
	}
	w.m.sentBytes.Add(float64(buf.Len()))
	w.m.msgSize.Observe(float64(buf.Len()))

	// Enqueue in issue order now; the envelope is delivered by drainEnv
	// once the send overhead + latency have elapsed AND every earlier
	// envelope of the pair is out (non-overtaking).
	op.pair.envQ.push(op)

	so := w.Pers.SendOverhead
	if s := w.faults.OverheadScale(srcW); s != 1 {
		so *= s
	}
	ov := w.Mach.CPUWork(srcW, so)
	ov.Done().OnFire(op.onSendOvDone)
	return req
}

// drainEnv delivers every head-of-queue envelope whose latency has
// elapsed. The loop reproduces the reference path's envTail cascade: a
// delivery unblocks the next envelope, which (if its latency already
// elapsed) is delivered immediately after — same order, same instant.
func (w *World) drainEnv(ps *pairState) {
	for !ps.envQ.empty() {
		op := ps.envQ.peek()
		if !op.envReady {
			return
		}
		ps.envQ.pop()
		w.envelopeArrived(op)
	}
}

// envelopeArrived is the reference path's gate callback: start (or arm)
// the data movement, then hand the envelope to the matching engine. For
// eager sends the wire is engaged before delivery, exactly as the
// reference does.
func (w *World) envelopeArrived(op *sendOp) {
	switch {
	case !op.msg.eager:
		op.msg.onMatch = op.onMatchFn
	case w.faults.DropsEnabled() || w.crash != nil:
		w.startReliable(op)
	default:
		op.pair.startData(w, op)
	}
	w.deliver(op.ctx, op.dstW, &op.msg)
}

// retx is the retransmission state of one eager send under a drop or crash
// plan: each transmission attempt may be lost (the injector decides, drawing
// from the world's seeded RNG, or the receiver has crashed), so the sender
// arms a retransmission timeout with exponential backoff and keeps
// resending until one attempt drains intact, at which point an ack travels
// back and completes the send request. Dropped payloads still charge the
// wire — the bytes moved before vanishing. The injector caps consecutive
// drops per message, bounding worst-case latency.
//
// Every attempt is one more entry of the op in its pair's wire FIFO, holding
// one of the op's refs until it drains; the FIFO drains a message's attempts
// in the order they were queued, so their outcomes are a queue too. The
// state is heap-allocated per send, and only when a plan calls for it.
type retx struct {
	w       *World
	op      *sendOp
	attempt int
	acked   bool
	rto     sim.Timer
	dropped []bool // outcome of each attempt on or queued for the wire, oldest at head
	head    int

	onRTO func() // retransmission timeout expired
	onAck func() // ack arrived back at the sender
}

func (w *World) startReliable(op *sendOp) {
	r := &retx{w: w, op: op}
	r.onRTO = func() {
		if !r.acked {
			r.try()
		}
	}
	r.onAck = func() {
		op.req.Complete(w.Eng())
		w.decref(op) // the sender's own ref; the attempts released theirs as they drained
	}
	op.rel = r
	r.try()
}

// try transmits the next attempt, or gives the message up.
func (r *retx) try() {
	w, op := r.w, r.op
	eng := w.Eng()
	if r.acked || op.req.err != nil {
		return
	}
	cs := w.crash
	if cs != nil && cs.dead[op.dstW] {
		// Declared dead while we were retransmitting: stop resending.
		op.req.fail(eng, &PeerDeadError{Rank: op.dstW, Via: cs.deadVia(op.dstW)})
		return
	}
	a := r.attempt
	r.attempt++
	if cs != nil && a >= w.sendAttemptCap() {
		// Retransmit escalation: every bounded attempt went unacked, so
		// the sender renders its own peer-dead verdict (crash.go).
		rtos := make([]float64, a)
		for k := range rtos {
			rtos[k] = w.faults.RTO(k)
		}
		op.req.fail(eng, &PeerUnreachableError{Rank: op.dstW, Attempts: a, RTOs: rtos})
		w.declareDead(op.dstW, "retransmit")
		return
	}
	if a > 0 {
		w.m.retransmits.Inc()
	}
	var dropped bool
	if cs != nil && cs.crashed[op.dstW] {
		// The receiver's NIC is gone: the payload vanishes unacked,
		// without drawing plan randomness.
		dropped = true
	} else if dropped = w.faults.DropEager(float64(eng.Now()), a); dropped {
		w.m.dropsInjected.Inc()
		w.Tracer.Record(trace.Event{
			T: float64(eng.Now()), Rank: op.srcW, Kind: trace.KindDrop,
			Name: "drop", Size: op.msg.size, Peer: op.dstW,
		})
	}
	r.dropped = append(r.dropped, dropped)
	op.refs++
	op.pair.startData(w, op)
	// Arm the retransmission timeout for this attempt. If it fires before
	// an intact payload drained, resend. A retransmit issued while an
	// earlier intact attempt is still queued is spurious but harmless: the
	// late duplicate sees acked and is ignored.
	eng.AfterInto(&r.rto, sim.Time(w.faults.RTO(a)), r.onRTO)
}

// drained retires the oldest attempt on the wire: the first one to arrive
// intact delivers the payload and sends the ack back.
func (r *retx) drained() {
	dropped := r.dropped[r.head]
	r.head++
	if r.acked || dropped {
		return
	}
	r.acked = true
	r.rto.Cancel()
	w, op := r.w, r.op
	op.msg.dataArrived.Fire(w.Eng())
	// The ack travels back one envelope latency; only then may the sender
	// retire the message.
	w.Eng().Schedule(sim.Time(w.latency(op.dstW, op.srcW)), r.onAck)
}

// startData engages the pair's wire for op's payload, or queues it FIFO
// behind the payload currently draining — the queue is the pooled form
// of the reference pairTail signal chain.
func (ps *pairState) startData(w *World, op *sendOp) {
	if ps.wireBusy {
		ps.wireQ.push(op)
		return
	}
	ps.wireBusy = true
	w.runWire(op)
}

func (w *World) runWire(op *sendOp) {
	f := w.Mach.Net.StartOn(op.bytes, op.pair.path)
	f.Done().OnFire(op.onWireDone)
}

// wireDrained retires a drained payload: start the next queued payload
// first (the reference fires the pair chain before the per-send done
// callback — event creation order must match), then mark the payload
// arrived and complete the send request.
func (w *World) wireDrained(op *sendOp) {
	ps := op.pair
	if !ps.wireQ.empty() {
		w.runWire(ps.wireQ.pop())
	} else {
		ps.wireBusy = false
	}
	if op.rel != nil {
		op.rel.drained()
	} else {
		eng := w.Eng()
		op.msg.dataArrived.Fire(eng)
		op.req.Complete(eng)
	}
	w.decref(op)
}

// release returns a pooled request once its completion has been
// observed by Proc.Wait. Heap requests (NewRequest) pass through
// untouched, and while a crash plan is armed so does everything else: the
// watch registry holds requests until their peer is declared dead, and
// callers read Err after Wait returns.
func (w *World) release(r *Request) {
	if r.pooled && w.crash == nil {
		w.reqPool.Put(r)
	}
}
