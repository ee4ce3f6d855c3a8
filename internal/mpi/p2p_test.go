package mpi

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/arena"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/flow"
	"github.com/hanrepro/han/internal/metrics"
	"github.com/hanrepro/han/internal/sim"
)

// This file holds the P2P churn workload golden_test.go pins, and the pool
// accounting and allocation-regression suites: every pooled record goes
// back exactly once, and the steady state does not allocate.

// runP2PChurn drives a seeded randomized P2P workload — mixed
// eager/rendezvous sizes, wildcard receives, out-of-order tags (so both
// the posted and the unexpected queue are exercised), zero-size
// messages, and SendRecv exchanges — and returns the exact final-clock
// bits plus a hash over every rank's own finish time, and the world for
// inspection.
func runP2PChurn(t *testing.T, seedv int64, plan *fault.Plan, jitter float64) (*World, churnBits) {
	t.Helper()
	eng := sim.New()
	spec := cluster.Mini(4, 4) // 16 ranks, 4 nodes: intra- and inter-node traffic
	pers := OpenMPI()
	pers.Jitter = jitter // nonzero forces RNG draws at every latency sample
	w := NewWorld(cluster.NewMachine(eng, spec), pers)
	w.Seed(seedv)
	w.EnableMetrics(metrics.New()) // observation-only: the goldens hold with it on
	if plan != nil {
		w.AttachFaults(*plan)
	}
	n := w.Size()
	rounds := 8
	done := make([]sim.Time, n)
	w.Start(func(p *Proc) {
		c := p.W.World()
		me := c.Rank(p)
		rng := rand.New(rand.NewSource(seedv*1000 + int64(me)))
		ringRight, ringLeft := (me+1)%n, (me+n-1)%n
		for round := 0; round < rounds; round++ {
			right := (me + 1 + round) % n
			left := (me + n - 1 - round%n) % n
			size := rng.Intn(3 * pers.EagerThreshold) // spans both protocols
			if rng.Intn(5) == 0 {
				size = 0
			}
			switch round % 3 {
			case 0:
				// Shifting ring exchange, receive from a wildcard source.
				sreq := c.Isend(p, Phantom(size), right, round)
				rreq := c.Irecv(p, Phantom(3*pers.EagerThreshold), AnySource, round)
				p.Wait(sreq, rreq)
			case 1:
				// Out-of-order tags on a fixed ring (stride 1, so even
				// ranks pair with odd ranks and the blocking phases below
				// cannot cycle).
				if me%2 == 0 {
					a := c.Isend(p, Phantom(size), ringRight, 100+round)
					b := c.Isend(p, Phantom(size/2), ringRight, 200+round)
					p.Wait(a, b)
					c.Recv(p, Phantom(3*pers.EagerThreshold), ringLeft, 300+round)
					c.Recv(p, Phantom(3*pers.EagerThreshold), ringLeft, 400+round)
				} else {
					// Post the later tag first to force an unexpected
					// message on this rank.
					r2 := c.Irecv(p, Phantom(3*pers.EagerThreshold), ringLeft, 200+round)
					r1 := c.Irecv(p, Phantom(3*pers.EagerThreshold), ringLeft, 100+round)
					p.Wait(r2, r1)
					c.Send(p, Phantom(size), ringRight, 300+round)
					c.Send(p, Phantom(size/4), ringRight, 400+round)
				}
			default:
				c.SendRecv(p, Phantom(size), right, round, Phantom(3*pers.EagerThreshold), left, round)
			}
		}
		done[me] = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("seed=%d: %v", seedv, err)
	}
	hash := fnv.New64a()
	var b [8]byte
	for _, d := range done {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(d)))
		hash.Write(b[:])
	}
	return w, churnBits{math.Float64bits(float64(eng.Now())), hash.Sum64()}
}

// churnBits is what a churn run is compared by: the engine clock when the
// queue drained (under a fault plan that is the plan's last window edge,
// whatever the traffic did) and an FNV-1a hash over the ranks' finish times
// in rank order, which moves when any rank finishes earlier or later.
type churnBits struct{ end, ranks uint64 }

// Every pooled record is returned exactly once, and every pair released with
// its last send: after a churn run nothing is checked out and no pair is
// live. Under drops a retransmitted op sits in its pair's wire FIFO once per
// attempt and goes back only after its last queued duplicate has drained — a
// double Put panics, a missed one shows up here.
func TestChurnPoolAccounting(t *testing.T) {
	drops, err := fault.Builtin("drops")
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*fault.Plan{nil, &drops} {
		w, _ := runP2PChurn(t, 1, plan, 0.05)
		if plan != nil && w.m.retransmits.Value() == 0 {
			t.Fatal("drops churn retransmitted nothing; the run does not cover the retransmission path")
		}
		if req, send, recv := w.reqPool.Live(), w.sendPool.Live(), w.recvPool.Live(); req != 0 || send != 0 || recv != 0 {
			t.Errorf("plan %v: records still checked out after the run: %d requests, %d sendOps, %d recvReqs",
				plan != nil, req, send, recv)
		}
		if live := len(w.pairs); live != 0 {
			t.Errorf("plan %v: %d pairs still live after the run", plan != nil, live)
		}
	}
}

// A drop plan attached while the engine runs applies from the next envelope
// on: rank 0's first send goes out clean, a plan that drops nine attempts in
// ten is attached from an engine callback, and the later eager sends
// retransmit.
func TestFaultPlanAttachedMidRun(t *testing.T) {
	eng := sim.New()
	w := NewWorld(cluster.NewMachine(eng, cluster.Mini(2, 2)), OpenMPI())
	w.EnableMetrics(metrics.New())
	eng.At(50e-6, func() {
		if got := w.m.retransmits.Value(); got != 0 {
			t.Errorf("%v retransmits before any plan was attached", got)
		}
		w.AttachFaults(fault.Plan{Drops: fault.DropSpec{Prob: 0.9}})
	})
	w.Start(func(p *Proc) {
		c := p.W.World()
		switch p.Rank {
		case 0:
			c.Send(p, Phantom(64), 3, 0)
			p.Sim.Sleep(100e-6)
			for tag := 1; tag <= 4; tag++ {
				c.Send(p, Phantom(64), 3, tag)
			}
		case 3:
			for tag := 0; tag <= 4; tag++ {
				c.Recv(p, Phantom(64), 0, tag)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if w.m.retransmits.Value() == 0 {
		t.Fatal("sends issued after the drop plan was attached were not retransmitted: the plan was ignored")
	}
}

// Payload correctness: real buffers must arrive byte-for-byte, in both
// protocols, including through the unexpected queue.
func TestP2PDeliversRealPayloads(t *testing.T) {
	eng := sim.New()
	pers := OpenMPI()
	w := NewWorld(cluster.NewMachine(eng, cluster.Mini(2, 2)), pers)
	sizes := []int{1, pers.EagerThreshold, pers.EagerThreshold + 1, 64 << 10}
	got := make([][]byte, len(sizes))
	w.Start(func(p *Proc) {
		c := p.W.World()
		switch c.Rank(p) {
		case 0:
			// All sends in flight at once: the receiver drains them in
			// reverse, so rendezvous must match through the unexpected
			// queue without blocking earlier sends.
			reqs := make([]*Request, len(sizes))
			for i, sz := range sizes {
				buf := make([]byte, sz)
				for j := range buf {
					buf[j] = byte(i + j)
				}
				reqs[i] = c.Isend(p, Bytes(buf), 1, i)
			}
			p.Wait(reqs...)
		case 1:
			// Receive in reverse tag order so early sends sit unexpected.
			for i := len(sizes) - 1; i >= 0; i-- {
				buf := make([]byte, sizes[i])
				c.Recv(p, Bytes(buf), 0, i)
				got[i] = buf
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, buf := range got {
		for j, b := range buf {
			if b != byte(i+j) {
				t.Fatalf("size %d: byte %d corrupted: got %d want %d", sizes[i], j, b, byte(i+j))
			}
		}
	}
}

// Steady-state P2P must not allocate: after a warmup that carves
// the slabs and grows every scratch slice, whole ping-pong rounds run
// allocation-free. Measured with the runtime's exact malloc counter from
// inside the simulation.
func TestPooledP2PSteadyStateAllocs(t *testing.T) {
	eng := sim.New()
	w := NewWorld(cluster.NewMachine(eng, cluster.Mini(2, 2)), OpenMPI())
	const warmup, measured = 200, 200
	var mallocs uint64
	w.Start(func(p *Proc) {
		c := p.W.World()
		me := c.Rank(p)
		if me > 1 {
			return
		}
		peer := 1 - me
		var before runtime.MemStats
		for i := 0; i < warmup+measured; i++ {
			if me == 0 && i == warmup {
				runtime.ReadMemStats(&before)
			}
			// Mix both protocols and both directions each round.
			small, big := Phantom(64), Phantom(256<<10)
			if me == 0 {
				c.Send(p, small, peer, 1)
				c.Recv(p, big, peer, 2)
			} else {
				c.Recv(p, small, peer, 1)
				c.Send(p, big, peer, 2)
			}
		}
		if me == 0 {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			mallocs = after.Mallocs - before.Mallocs
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// ReadMemStats itself and test-harness background activity cost a few
	// mallocs; per-round cost must still be indistinguishable from zero.
	perRound := float64(mallocs) / float64(measured)
	if perRound >= 1 && !arena.Debug { // quarantined slots are not reused: every record is a fresh one
		t.Fatalf("steady-state p2p averages %.2f mallocs per ping-pong round (%d total), want < 1", perRound, mallocs)
	}
}

// waitPairRounds runs the dissemination-barrier step between ranks 0 and 1:
// post a one-byte send and receive as Comm.Barrier does, wait for both in
// one call. Rank 1 runs `rounds` of them; rank 0 hands its round to each,
// which must run it as many times — from a benchmark loop or
// testing.AllocsPerRun, inside the simulation.
func waitPairRounds(tb testing.TB, rounds int, each func(round func())) {
	tb.Helper()
	eng := sim.New()
	w := NewWorld(cluster.NewMachine(eng, cluster.Mini(2, 1)), OpenMPI())
	w.Start(func(p *Proc) {
		c := p.W.World()
		peer := 1 - c.Rank(p)
		round := func() {
			sreq := c.Isend(p, Phantom(1), peer, 7)
			rreq := c.Irecv(p, Phantom(1), peer, 7)
			p.Wait(sreq, rreq)
		}
		if peer == 1 {
			each(round)
			return
		}
		for i := 0; i < rounds; i++ {
			round()
		}
	})
	if err := eng.Run(); err != nil {
		tb.Fatal(err)
	}
}

// A two-request Wait — one park, two pooled requests armed and released —
// must not allocate once the pools and waiter slices are warm. The count is
// process-wide, so it covers the peer rank and the engine goroutine too.
func TestWaitPairSteadyStateAllocs(t *testing.T) {
	const warmup, measured = 200, 200
	allocs := -1.0
	// AllocsPerRun calls its function once to warm up, then `measured` times.
	waitPairRounds(t, warmup+1+measured, func(round func()) {
		for i := 0; i < warmup; i++ {
			round()
		}
		allocs = testing.AllocsPerRun(measured, round)
	})
	if allocs != 0 && !arena.Debug { // quarantined slots are not reused: every request is a fresh one
		t.Fatalf("two-request Wait round averages %v allocations, want 0", allocs)
	}
}

// peakPairs runs a rank's routine and notes the most pairs its world has
// live at once. A pair goes live only in an Isend, from inside a Step, and is
// released only from an engine callback, so the count after each Step is
// the most it reached during it.
type peakPairs struct {
	sim.Stepper
	w    *World
	peak *int
}

func (s peakPairs) Step(p *sim.Proc) bool {
	done := s.Stepper.Step(p)
	*s.peak = max(*s.peak, len(s.w.pairs))
	return done
}

// A world holds pair records only for the pairs a send is using. A 512- and
// a 1024-rank barrier touch n·log2(n) directed pairs, but never hold more
// than n live at once, and none once the run drains; a barrier repeated on
// the reset world, over the other rank order so other pairs reuse the
// records, allocates nothing. A record reused for a new pair takes that
// pair's path, intra-node or inter-node, and queues that grow past their
// inline slot on released pairs and endpoints take their arrays from the
// world's stashes, not from the heap.
func TestPairRecordsLiveOnlyInFlight(t *testing.T) {
	for _, nodes := range []int{16, 32} { // 512 and 1024 ranks
		eng := sim.New()
		w := NewWorld(cluster.NewMachine(eng, cluster.Mini(nodes, 32)), OpenMPI())
		n := w.Size()
		peak := 0
		w.StartSteps(func(p *Proc) sim.Stepper {
			return peakPairs{w.World().BarrierSteps(p), w, &peak}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%d ranks: at most %d pairs live at once, of %d used", n, peak, n*bits.Len(uint(n-1)))
		if peak == 0 || peak > n {
			t.Errorf("%d ranks: %d pairs live at once, want 1..%d", n, peak, n)
		}
		if live := len(w.pairs); live != 0 {
			t.Errorf("%d ranks: %d pairs still live after the run drained", n, live)
		}
		w.Reset()

		rev := make([]int, n)
		for i := range rev {
			rev[i] = n - 1 - i
		}
		comms := []*Comm{w.World(), w.NewComm(rev)}
		procs := make([]Proc, n)
		for r := range procs {
			procs[r].W, procs[r].Rank = w, r
		}
		barriers := func() {
			for _, c := range comms {
				for r := range procs {
					p := &procs[r]
					p.spawnStep(c.BarrierSteps(p))
				}
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				w.Reset()
			}
		}
		barriers()
		if allocs := testing.AllocsPerRun(3, barriers); allocs != 0 && !arena.Debug { // quarantined slots are not reused
			t.Errorf("%d ranks: a barrier each way on a reset world allocates %v objects, want 0", n, allocs)
		}
	}

	// Ranks 0 and 1 share a node, ranks 0 and 2 do not. Rank 0 sends to 1,
	// 2 and 1 again, and each peer answers with one byte; a send is released
	// before the next one starts, so one record serves all six pairs, the
	// intra- and the inter-node ones alike, each time with its pair's path.
	eng := sim.New()
	w := NewWorld(cluster.NewMachine(eng, cluster.Mini(2, 2)), OpenMPI())
	dsts := []int{1, 2, 1}
	paths := make([][]*flow.Resource, len(dsts))
	w.Start(func(p *Proc) {
		c := p.W.World()
		switch p.Rank {
		case 0:
			for i, d := range dsts {
				req := c.Isend(p, Phantom(8), d, 0)
				paths[i] = slices.Clone(w.pairs[uint64(d)].path) // the pair 0 -> d
				p.Wait(req)
				c.Recv(p, Phantom(1), d, 1)
			}
		default:
			for _, d := range dsts {
				if d == p.Rank {
					c.Recv(p, Phantom(8), 0, 0)
					c.Send(p, Phantom(1), 0, 1)
				}
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, d := range dsts {
		var want pairState
		want.setPath(w.Mach, 0, d)
		if !slices.Equal(paths[i], want.path) {
			t.Errorf("send %d, to rank %d: the record does not have its pair's path", i, d)
		}
	}
	if carved := pairChunk - len(w.pairCarve); carved != 1 {
		t.Errorf("six sends, one at a time, carved %d pair records, want 1", carved)
	}
	if live := len(w.pairs); live != 0 {
		t.Errorf("%d pairs still live after the run drained", live)
	}

	// A burst of sends fills its pair's envelope FIFO, and a receiver that
	// posts the last tag first holds the rest unexpected: both queues grow
	// past their inline slot. Each round's pairs take released records, and
	// their queues take the arrays the last round gave back to the stash, so
	// a round allocates nothing.
	const burst, warmup, measured = 4, 20, 20
	eng = sim.New()
	w = NewWorld(cluster.NewMachine(eng, cluster.Mini(2, 1)), OpenMPI())
	allocs, queued, held := -1.0, 0, 0
	w.Start(func(p *Proc) {
		c := p.W.World()
		var reqs [burst]*Request
		round := func() {
			if p.Rank == 0 {
				for i := range reqs {
					reqs[i] = c.Isend(p, Phantom(1<<10), 1, i)
				}
				q := &w.pairs[1].envQ // the pair 0 -> 1
				queued = len(q.q) - q.head
				p.Wait(reqs[:]...)
				c.Recv(p, Phantom(1), 1, burst)
				return
			}
			for i := burst - 1; i >= 0; i-- {
				c.Recv(p, Phantom(1<<10), 0, i)
				if i == burst-1 {
					held = len(c.endpoint(1).unexpected)
				}
			}
			c.Send(p, Phantom(1), 0, burst)
		}
		if p.Rank == 1 {
			for range warmup + 1 + measured {
				round()
			}
			return
		}
		for range warmup {
			round()
		}
		allocs = testing.AllocsPerRun(measured, round)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if queued != burst || held != burst-1 {
		t.Fatalf("the burst queued %d envelopes and held %d messages unexpected, want %d and %d", queued, held, burst, burst-1)
	}
	if allocs != 0 && !arena.Debug { // quarantined slots are not reused
		t.Errorf("a burst round on released pairs allocates %v objects, want 0", allocs)
	}
}

// The first message a cold endpoint holds unexpected and the first receive
// it holds posted sit on its inline slots: a round on a new communicator,
// between ranks whose pair and pools are warm, allocates nothing.
func TestColdEndpointQueuesAllocateNothing(t *testing.T) {
	const warmup, measured = 50, 50
	eng := sim.New()
	w := NewWorld(cluster.NewMachine(eng, cluster.Mini(2, 1)), OpenMPI())
	comms := make([]*Comm, warmup+1+measured)
	for i := range comms {
		comms[i] = w.World()
		if i >= warmup {
			comms[i] = w.NewComm([]int{0, 1})
			comms[i].endpoint(0) // the communicator's endpoint slice
		}
	}
	allocs := -1.0
	w.Start(func(p *Proc) {
		ack := p.W.World()
		next := 0
		// One round: rank 0 sends tags 1 and 2 in order while rank 1 has
		// posted only tag 2, so tag 1 arrives unexpected; then rank 1
		// receives it and acknowledges on the warm communicator.
		round := func() {
			c := comms[next]
			next++
			if p.Rank == 0 {
				p.Wait(c.Isend(p, Phantom(8), 1, 1), c.Isend(p, Phantom(8), 1, 2))
				ack.Recv(p, Phantom(1), 1, 3)
				return
			}
			p.Wait(c.Irecv(p, Phantom(8), 0, 2))
			p.Wait(c.Irecv(p, Phantom(8), 0, 1))
			ack.Send(p, Phantom(1), 0, 3)
		}
		if p.Rank == 1 {
			for range comms {
				round()
			}
			return
		}
		for i := 0; i < warmup; i++ {
			round()
		}
		allocs = testing.AllocsPerRun(measured, round)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 && !arena.Debug { // quarantined slots are not reused: every record is a fresh one
		t.Fatalf("a round on a cold endpoint averages %v allocations, want 0", allocs)
	}
}

// BenchmarkWaitPair is one barrier-step round per iteration: the host cost
// of Isend + Irecv + a two-request Wait on each of two ranks.
func BenchmarkWaitPair(b *testing.B) {
	b.ReportAllocs()
	waitPairRounds(b, b.N, func(round func()) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
	})
}

// A process killed while parked on pooled requests must stay dead to them:
// the requests complete later and skip it, and once they are recycled —
// doneSig Reset, slot reused by a new operation — the new waiter is woken
// alone and the victim is never resumed a second time.
func TestKillThenLateFireOnRecycledRequest(t *testing.T) {
	eng := sim.New()
	w := NewWorld(cluster.NewMachine(eng, cluster.Mini(1, 2)), OpenMPI())
	a, b := w.reqPool.Get(), w.reqPool.Get()
	unwound, ranPastWait, succeeded := 0, false, false
	victim := eng.Spawn("victim", func(sp *sim.Proc) {
		defer func() { unwound++ }()
		(&Proc{Sim: sp, W: w}).Wait(a, b)
		ranPastWait = true
	})
	eng.At(1, func() { a.Complete(eng) })
	eng.At(2, func() { eng.Kill(victim) })
	eng.At(3, func() { b.Complete(eng) }) // late fire: the only waiter is dying
	var reused [2]*Request
	eng.At(4, func() {
		// The victim never reached Wait's release; whoever cleans up after a
		// dead rank does it instead.
		w.release(a)
		w.release(b)
		reused[0], reused[1] = w.reqPool.Get(), w.reqPool.Get()
		// (Under HAN_ARENA_DEBUG a returned slot is quarantined, never reused.)
		if !arena.Debug && (!(reused[0] == a || reused[0] == b) || !(reused[1] == a || reused[1] == b)) {
			t.Error("pool did not hand the recycled requests out again")
		}
		for _, r := range reused {
			if r.Test() {
				t.Error("recycled request is still fired")
			}
		}
		eng.Spawn("successor", func(sp *sim.Proc) {
			(&Proc{Sim: sp, W: w}).Wait(reused[0], reused[1])
			if sp.Now() != 6 {
				t.Errorf("successor woke at %v, want 6", sp.Now())
			}
			succeeded = true
		})
	})
	eng.At(5, func() { reused[1].Complete(eng) })
	eng.At(6, func() { reused[0].Complete(eng) })
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if unwound != 1 || ranPastWait {
		t.Fatalf("victim: unwound %d times, ranPastWait=%v; want exactly one unwind", unwound, ranPastWait)
	}
	if !succeeded {
		t.Fatal("successor never completed its wait on the recycled requests")
	}
}

// A reset world replays, to the bit, what a new world runs — noise draws and collective sequence numbers included — and
// refuses to be reset while a record is out of its pools, or under a fault
// plan.
func TestWorldResetRefusesLiveRecords(t *testing.T) {
	pers := OpenMPI()
	pers.Jitter = 0.05 // every latency draws from the world's generator
	build := func() *World {
		return NewWorld(cluster.NewMachine(sim.New(), cluster.Mini(2, 2)), pers)
	}
	// run is a ring exchange of both protocols and a barrier; it returns the
	// clock and every rank's sequence numbers. A rank that leaks posts one
	// receive nobody sends to.
	run := func(w *World, leak bool) string {
		seqs := make([]int, w.Size())
		w.Start(func(p *Proc) {
			c := p.W.World()
			me, n := c.Rank(p), c.Size()
			for i := 0; i < 3; i++ {
				seqs[me] += c.NextSeq(p)
				c.SendRecv(p, Phantom(64<<(6*i)), (me+1)%n, i, Phantom(1<<20), (me+n-1)%n, i)
			}
			c.Barrier(p)
			if leak && me == 0 {
				_ = c.Irecv(p, Phantom(1), 1, 99)
			}
		})
		if err := w.Eng().Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(math.Float64bits(float64(w.Eng().Now())), seqs)
	}
	refuses := func(what, msg string, w *World) {
		t.Helper()
		defer func() {
			if r := fmt.Sprint(recover()); !strings.Contains(r, msg) {
				t.Errorf("Reset %s: %s", what, r)
			}
		}()
		w.Reset()
	}

	want := run(build(), false)
	w := build()
	run(w, false)
	w.Reset()
	if got := run(w, false); got != want {
		t.Errorf("after Reset the world runs to %s, a new one to %s", got, want)
	}
	w.Reset()
	run(w, true)
	refuses("with a receive still posted", "out of the world's pools", w)

	faulty := build()
	faulty.AttachFaults(fault.Plan{})
	run(faulty, false)
	refuses("under a fault plan", "fault plan", faulty)
}
