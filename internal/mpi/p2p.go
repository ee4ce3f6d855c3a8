package mpi

import (
	"fmt"

	"github.com/hanrepro/han/internal/arena"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/flow"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// This file is the point-to-point layer: one state machine per directed
// (sender, receiver) pair, driven by arena-pooled records. A send is a
// sendOp that walks send overhead -> envelope latency -> the pair's
// envelope FIFO (MPI's non-overtaking guarantee) -> matching at the
// receiver, and moves its payload through the pair's wire FIFO (one payload
// on the wire at a time, as on a real per-peer connection) either right
// away (eager) or after a clear-to-send (rendezvous). Under a drop or crash
// plan an eager payload is retransmitted until acknowledged (retx). Each
// record is its own engine callback (sim.Handler): a protocol step is the
// record and the step's op, and Handle switches over the steps, so neither
// a pool slot nor a send builds a closure and the steady state allocates
// nothing; golden_test.go pins the resulting timing bit for bit, with and
// without fault plans. A cold world's first growth is bounded the same way:
// a pair's state is carved from world-owned chunks and an endpoint's queues
// and a pair's FIFOs start on one inline slot each, so a new pair or
// endpoint allocates nothing of its own.

// Wildcards for Irecv.
const (
	AnySource = -1
	AnyTag    = -1
)

// message is an in-flight send as seen by the receiver's matching engine.
type message struct {
	src  int // comm rank of the sender
	tag  int
	size int
	data Buf

	eager bool
	op    *sendOp // owning record
}

// recvReq is a posted receive awaiting a matching message. It is recycled
// once the payload has been copied out.
type recvReq struct {
	w        *World
	src, tag int
	buf      Buf
	req      *Request
	comm     *Comm
	dstWorld int

	m    *message // matched message
	slot arena.Slot
}

// A receive's steps, its ops as a sim.Handler.
const (
	recvData   = iota // payload arrived: start receive-side overhead
	recvOvDone        // overhead done: copy out and complete
)

func (r *recvReq) Handle(step int) {
	w := r.w
	switch step {
	case recvData:
		ro := w.Pers.RecvOverhead
		if s := w.faults.OverheadScale(r.dstWorld); s != 1 {
			ro *= s
		}
		w.Mach.CPUWork(r.dstWorld, ro).Done().OnFire(r, recvOvDone)
	case recvOvDone:
		eng := w.Eng()
		m := r.m
		r.buf.Slice(0, m.size).CopyFrom(m.data)
		w.Tracer.Record(trace.Event{
			T: float64(eng.Now()), Rank: r.dstWorld, Kind: trace.KindDeliver,
			Name: "deliver", Size: m.size, Peer: r.comm.ranks[m.src],
		})
		w.m.delivered.Inc()
		w.m.deliveredBytes.Add(float64(m.size))
		r.req.Complete(eng)
		// r is dead from here on: nothing holds it (it left the posted list
		// at match time) and its request has fired.
		op := m.op
		w.recvPool.Put(r)
		w.decref(op)
	}
}

// endpoint is the matching state of one rank on one communicator. Its
// queues start on the inline slots post1 and unexp1 (Comm.endpoint).
type endpoint struct {
	posted     []*recvReq
	unexpected []*message
	post1      [1]*recvReq
	unexp1     [1]*message
	listed     bool // in the crash registry
}

// endpoint returns the matching state of comm rank r, from the
// communicator's own slice: a post or a delivery looks nothing up.
func (c *Comm) endpoint(r int) *endpoint {
	if c.eps == nil {
		c.eps = make([]endpoint, len(c.ranks))
		for i := range c.eps {
			ep := &c.eps[i]
			ep.posted, ep.unexpected = ep.post1[:0], ep.unexp1[:0]
		}
	}
	ep := &c.eps[r]
	if cs := c.w.crash; cs != nil && !ep.listed {
		// Register per rank, in order of first use, so a crash can tear the
		// rank's matching state down deterministically.
		ep.listed = true
		cs.eps[c.ranks[r]] = append(cs.eps[c.ranks[r]], ep)
	}
	return ep
}

func matches(r *recvReq, m *message) bool {
	return (r.src == AnySource || r.src == m.src) && (r.tag == AnyTag || r.tag == m.tag)
}

// removeRecvAt and removeMsgAt shift-remove index i while nil-ing the
// vacated capacity-tail slot — without that, the backing array pins the
// removed (possibly pool-recycled) record until the slot is overwritten.
func removeRecvAt(s []*recvReq, i int) []*recvReq {
	last := len(s) - 1
	copy(s[i:], s[i+1:])
	s[last] = nil
	return s[:last]
}

func removeMsgAt(s []*message, i int) []*message {
	last := len(s) - 1
	copy(s[i:], s[i+1:])
	s[last] = nil
	return s[:last]
}

// sendOp is the per-send record: the message, the wire/envelope queue
// linkage, and, as a sim.Handler, the steps that drive the protocol. It is
// created by Isend and released once the sender's side (payload drained,
// send request completed), the receive side (payload copied out) and, under
// retransmission, every attempt still queued for the wire are done with it
// — refs counts those.
type sendOp struct {
	w    *World
	msg  message
	req  *Request
	pair *pairState

	srcW, dstW int
	comm       *Comm // where the receiver matches it, as comm rank dst
	dst        int
	bytes      float64 // wire bytes (size / protocol efficiency)
	envReady   bool    // own envelope latency has elapsed
	refs       int

	dataSig sim.Signal // payload fully at the receiver

	// rel is the retransmission state of an eager send whose envelope went
	// out under a drop or crash plan; nil otherwise.
	rel *retx

	slot arena.Slot
}

// A send's steps, its ops as a sim.Handler.
const (
	sendOvDone   = iota // send-side progression work finished
	sendEnvLat          // envelope latency elapsed
	sendCTS             // clear-to-send arrived back at the sender
	sendWireDone        // payload drained from the wire
)

func (op *sendOp) Handle(step int) {
	w := op.w
	switch step {
	case sendOvDone:
		// Envelope latency (and its jitter, if any) is sampled when the
		// send-side progression work finishes.
		w.Eng().Call(sim.Time(w.latency(op.srcW, op.dstW)), op, sendEnvLat)
	case sendEnvLat:
		op.envReady = true
		w.drainEnv(op.pair)
	case sendCTS:
		op.pair.startData(w, op)
	case sendWireDone:
		w.wireDrained(op)
	}
}

// opQueue is a FIFO of sendOps with O(1) push/pop and a reusable backing
// array: a head index avoids shifting, and the array rewinds once
// drained, so a steady-state queue never reallocates or pins a released
// op. The first backing array is the inline slot one (pair points q at it).
type opQueue struct {
	q    []*sendOp
	head int
	one  [1]*sendOp
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

// pairState is the persistent per-directed-pair state: the cached data
// path, the wire FIFO (one payload on the wire at a time, program order),
// and the envelope FIFO (MPI's non-overtaking guarantee).
type pairState struct {
	path     []*flow.Resource  // the resources a src->dst payload crosses (setPath)
	inter    [3]*flow.Resource // what path is made of, between nodes
	wireBusy bool              // a payload is on the wire
	wireQ    opQueue           // payloads waiting for the wire
	envQ     opQueue           // sends in issue order, delivered FIFO
}

// pairChunk is how many pairStates a world carves at once. A chunk never
// moves, so a record stays where op.pair points for the world's lifetime,
// across Reset too.
const pairChunk = 256

// pair returns the state of the directed pair srcW -> dstW, carving it from
// the world's current chunk the first time the pair is used.
func (w *World) pair(srcW, dstW int) *pairState {
	k := uint64(srcW)<<32 | uint64(dstW)
	ps := w.pairs[k]
	if ps == nil {
		if len(w.pairFree) == 0 {
			w.pairFree = make([]pairState, pairChunk)
		}
		ps, w.pairFree = &w.pairFree[0], w.pairFree[1:]
		ps.wireQ.q, ps.envQ.q = ps.wireQ.one[:0], ps.envQ.one[:0]
		ps.setPath(w.Mach, srcW, dstW)
		w.pairs[k] = ps
	}
	return ps
}

// setPath caches the resources an s->d payload crosses: the machine's own
// list within a node, the pair's three between nodes.
func (ps *pairState) setPath(m *cluster.Machine, srcWorld, dstWorld int) {
	sn, dn := m.NodeOf(srcWorld), m.NodeOf(dstWorld)
	if sn == dn {
		ps.path = m.IntraPath(srcWorld, dstWorld)
		return
	}
	// Inter-node data is injected at the source NIC, drained at the
	// destination NIC, and DMA-written through the destination memory bus —
	// the bus sharing is what makes ib/sb overlap imperfect (paper
	// section III-A2).
	ps.inter = [...]*flow.Resource{m.NICOut(sn), m.NICIn(dn), m.InboundBus(dstWorld)}
	ps.path = ps.inter[:]
}

func (w *World) initPools() {
	w.pairs = make(map[uint64]*pairState)
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
			op.msg.op = op
		},
		Reset: func(op *sendOp) {
			op.msg.src, op.msg.tag, op.msg.size = 0, 0, 0
			op.msg.data = Buf{}
			op.msg.eager = false
			op.dataSig.Reset()
			op.req = nil
			op.pair = nil
			op.srcW, op.dstW, op.comm, op.dst = 0, 0, nil, 0
			op.bytes = 0
			op.envReady = false
			op.refs = 0
			op.rel = nil
		},
		Slot: func(op *sendOp) *arena.Slot { return &op.slot },
	})
	w.recvPool = arena.NewPool(arena.Options[recvReq]{
		Name: "mpi.recvReq",
		Init: func(r *recvReq) { r.w = w },
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

// LiveRecords counts the requests, sends and posted receives checked out of
// the world's pools: zero once a run without a crash plan has drained,
// whatever drove its ranks — a record still out then has leaked.
func (w *World) LiveRecords() int {
	return w.reqPool.Live() + w.sendPool.Live() + w.recvPool.Live()
}

func (w *World) decref(op *sendOp) {
	op.refs--
	if op.refs == 0 {
		w.sendPool.Put(op)
	}
}

// Isend starts a non-blocking send of buf to comm rank dst with the given
// tag. The returned request completes when the sender's buffer may be
// reused (eager: payload drained into the network; rendezvous: transfer
// finished).
func (c *Comm) Isend(p *Proc, buf Buf, dst, tag int) *Request {
	w := c.w
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: Isend to rank %d of %d", dst, c.Size()))
	}
	me := c.Rank(p)
	if me < 0 {
		panic("mpi: Isend by non-member rank")
	}
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
	op.srcW, op.dstW, op.comm, op.dst = srcW, dstW, c, dst
	op.refs = 2 // wire side + receive side
	op.msg.src, op.msg.tag, op.msg.size = me, tag, buf.Len()
	op.msg.data = data
	op.msg.eager = buf.Len() <= w.Pers.EagerThreshold
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
	w.Mach.CPUWork(srcW, so).Done().OnFire(op, sendOvDone)
	return req
}

// drainEnv delivers every head-of-queue envelope whose latency has
// elapsed: a delivery unblocks the next envelope, which (if its latency
// already elapsed) is delivered immediately after, at the same instant.
// Without this, concurrent send overhead flows of back-to-back Isends
// complete together and could hand envelopes to the matching engine out of
// program order.
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

// envelopeArrived starts an eager payload moving, then hands the envelope
// to the matching engine (a rendezvous payload waits for the match).
// Whether an eager payload needs retransmission is read off the attached
// plan here, per send.
func (w *World) envelopeArrived(op *sendOp) {
	if op.msg.eager {
		if w.faults.DropsEnabled() || w.crash != nil {
			w.startReliable(op)
		} else {
			op.pair.startData(w, op)
		}
	}
	w.deliver(op)
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
	op      *sendOp
	attempt int
	acked   bool
	rto     sim.Timer
	dropped []bool // outcome of each attempt on or queued for the wire, oldest first
}

// A retransmission's steps, its ops as a sim.Handler.
const (
	retxRTO = iota // retransmission timeout expired
	retxAck        // ack arrived back at the sender
)

func (r *retx) Handle(step int) {
	switch step {
	case retxRTO:
		if !r.acked {
			r.try()
		}
	case retxAck:
		op := r.op
		op.req.Complete(op.w.Eng())
		op.w.decref(op) // the sender's own ref; the attempts released theirs as they drained
	}
}

func (w *World) startReliable(op *sendOp) {
	r := &retx{op: op}
	op.rel = r
	r.try()
}

// try transmits the next attempt, or gives the message up.
func (r *retx) try() {
	op := r.op
	w := op.w
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
	eng.AfterInto(&r.rto, sim.Time(w.faults.RTO(a)), r, retxRTO)
}

// drained retires the oldest attempt on the wire: the first one to arrive
// intact delivers the payload and sends the ack back.
func (r *retx) drained() {
	dropped := r.dropped[0]
	r.dropped = r.dropped[1:]
	if r.acked || dropped {
		return
	}
	r.acked = true
	r.rto.Cancel()
	op := r.op
	w := op.w
	op.dataSig.Fire(w.Eng())
	// The ack travels back one envelope latency; only then may the sender
	// retire the message.
	w.Eng().Call(sim.Time(w.latency(op.dstW, op.srcW)), r, retxAck)
}

// startData engages the pair's wire for op's payload, or queues it FIFO
// behind the payload currently draining: message k's payload enters the
// wire only after message k-1's has drained. Without this, concurrent
// pipelined segments would fair-share the link and all complete
// simultaneously, which no MPI transport does.
func (ps *pairState) startData(w *World, op *sendOp) {
	if ps.wireBusy {
		ps.wireQ.push(op)
		return
	}
	ps.wireBusy = true
	w.runWire(op)
}

func (w *World) runWire(op *sendOp) {
	w.Mach.Net.StartOn(op.bytes, op.pair.path).Done().OnFire(op, sendWireDone)
}

// wireDrained retires a drained payload: start the next queued payload
// first (the goldens pin this event creation order), then mark the payload
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
		op.dataSig.Fire(eng)
		op.req.Complete(eng)
	}
	w.decref(op)
}

// Irecv posts a non-blocking receive into buf from comm rank src (or
// AnySource) with the given tag (or AnyTag). The request completes once a
// matching payload has fully arrived and been copied into buf.
func (c *Comm) Irecv(p *Proc, buf Buf, src, tag int) *Request {
	if src != AnySource && (src < 0 || src >= c.Size()) {
		panic(fmt.Sprintf("mpi: Irecv from rank %d of %d", src, c.Size()))
	}
	me := c.Rank(p)
	if me < 0 {
		panic("mpi: Irecv by non-member rank")
	}
	w := c.w
	if cs := w.crash; cs != nil && src != AnySource {
		if srcW := c.ranks[src]; cs.dead[srcW] {
			// Nothing will ever arrive from a declared-dead peer.
			w.m.deadLetters.Inc()
			req := w.reqPool.Get()
			req.site = WaitSite{Op: "recv", Peer: src, Tag: tag, Ctx: c.ctx}
			req.fail(w.Eng(), &PeerDeadError{Rank: srcW, Via: cs.deadVia(srcW)})
			return req
		}
	}
	w.m.recvsPosted.Inc()
	r := w.recvPool.Get()
	r.src, r.tag, r.buf, r.comm, r.dstWorld = src, tag, buf, c, p.Rank
	r.req = w.reqPool.Get()
	r.req.site = WaitSite{Op: "recv", Peer: src, Tag: tag, Ctx: c.ctx}
	ep := c.endpoint(me)
	for i, m := range ep.unexpected {
		if matches(r, m) {
			ep.unexpected = removeMsgAt(ep.unexpected, i)
			w.match(r, m)
			return r.req
		}
	}
	ep.posted = append(ep.posted, r)
	if cs := w.crash; cs != nil && src != AnySource {
		if srcW := c.ranks[src]; cs.isTarget[srcW] {
			cs.watch[srcW] = append(cs.watch[srcW], watchEntry{req: r.req, rr: r, ep: ep})
		}
	}
	return r.req
}

// deliver hands op's arrived envelope to the receiver's matching engine.
func (w *World) deliver(op *sendOp) {
	m := &op.msg
	if cs := w.crash; cs != nil && cs.crashed[op.dstW] {
		// Dead letter: the receiver crashed before this envelope arrived.
		// Nothing will ever copy the payload out, so the sendOp keeps its
		// receive-side ref and stays checked out of its pool for the rest
		// of the run, as does one whose message is dropped with a crashed
		// rank's queues (clearEndpoints).
		w.m.deadLetters.Inc()
		return
	}
	ep := op.comm.endpoint(op.dst)
	for i, r := range ep.posted {
		if matches(r, m) {
			ep.posted = removeRecvAt(ep.posted, i)
			w.match(r, m)
			return
		}
	}
	ep.unexpected = append(ep.unexpected, m)
	w.m.unexpected.Inc()
	if !m.eager {
		// The clear-to-send cannot go back until a receive is posted: the
		// transfer is stalled on the receiver.
		w.m.rdvStalls.Inc()
	}
}

// match binds a posted receive to a message; the receive's steps finish it
// once the payload has arrived and the receive-side progression work is
// done.
func (w *World) match(r *recvReq, m *message) {
	if m.size > r.buf.N {
		panic(fmt.Sprintf("mpi: message of %d bytes overflows %d-byte receive buffer (src=%d tag=%d)", m.size, r.buf.N, m.src, m.tag))
	}
	if !m.eager {
		// Rendezvous: the clear-to-send travels back, then the payload moves.
		op := m.op
		w.Eng().Call(sim.Time(w.latency(op.dstW, op.srcW)), op, sendCTS)
	}
	r.m = m
	m.op.dataSig.OnFire(r, recvData)
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

// Send is the blocking form of Isend.
func (c *Comm) Send(p *Proc, buf Buf, dst, tag int) {
	p.Wait(c.Isend(p, buf, dst, tag))
}

// Recv is the blocking form of Irecv.
func (c *Comm) Recv(p *Proc, buf Buf, src, tag int) {
	p.Wait(c.Irecv(p, buf, src, tag))
}

// SendRecv exchanges messages with possibly different peers, progressing
// both directions concurrently.
func (c *Comm) SendRecv(p *Proc, sbuf Buf, dst, stag int, rbuf Buf, src, rtag int) {
	sreq := c.Isend(p, sbuf, dst, stag)
	rreq := c.Irecv(p, rbuf, src, rtag)
	p.Wait(sreq, rreq)
}
