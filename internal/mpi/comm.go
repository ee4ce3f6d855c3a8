package mpi

import (
	"fmt"

	"github.com/hanrepro/han/internal/sim"
)

// Comm is a communicator: an ordered group of world ranks plus a matching
// context that isolates its traffic from other communicators.
type Comm struct {
	w      *World
	ctx    int
	ranks  []int       // world ranks indexed by comm rank
	rankOf map[int]int // world rank -> comm rank
	seq    []int       // collective sequence counters by comm rank, made on first use
	eps    []endpoint  // matching state by comm rank, made on first use (p2p.go)
}

// NextSeq returns the caller's next collective sequence number on this
// communicator. Because MPI requires every rank to issue collectives on a
// communicator in the same order, the per-rank counters agree and the
// returned value can safely derive matching tags for one collective
// instance.
func (c *Comm) NextSeq(p *Proc) int {
	me := c.Rank(p)
	if me < 0 {
		panic("mpi: NextSeq by non-member rank")
	}
	if c.seq == nil {
		c.seq = make([]int, len(c.ranks))
	}
	s := c.seq[me]
	c.seq[me] = s + 1
	return s
}

// NewComm creates a communicator over the given world ranks (which become
// comm ranks 0..len-1 in order).
func (w *World) NewComm(worldRanks []int) *Comm {
	c := &Comm{w: w, ctx: w.nextCtx, ranks: append([]int(nil), worldRanks...), rankOf: make(map[int]int, len(worldRanks))}
	w.nextCtx++
	for i, r := range worldRanks {
		if _, dup := c.rankOf[r]; dup {
			panic(fmt.Sprintf("mpi: duplicate world rank %d in communicator", r))
		}
		c.rankOf[r] = i
	}
	w.comms = append(w.comms, c)
	return c
}

// Ctx returns the communicator's matching-context id, unique per world.
func (c *Comm) Ctx() int { return c.ctx }

// Dup returns a communicator with the same group but a fresh matching
// context, so concurrent collectives on the two communicators cannot match
// each other's traffic.
func (c *Comm) Dup() *Comm { return c.w.NewComm(c.ranks) }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// World returns the owning world.
func (c *Comm) World() *World { return c.w }

// WorldRank translates a comm rank to a world rank.
func (c *Comm) WorldRank(r int) int { return c.ranks[r] }

// Rank returns p's rank within this communicator, or -1 if p is not a
// member.
func (c *Comm) Rank(p *Proc) int {
	if r, ok := c.rankOf[p.Rank]; ok {
		return r
	}
	return -1
}

// RankOfWorld returns the comm rank holding the given world rank, or -1 if
// it is not a member.
func (c *Comm) RankOfWorld(worldRank int) int {
	if r, ok := c.rankOf[worldRank]; ok {
		return r
	}
	return -1
}

// Contains reports whether world rank r belongs to the communicator.
func (c *Comm) Contains(worldRank int) bool {
	_, ok := c.rankOf[worldRank]
	return ok
}

// Sub returns a cached communicator over the given comm-rank subset. The
// key must uniquely identify the subset; all members must request the same
// key so they agree on the matching context.
func (c *Comm) Sub(key string, commRanks []int) *Comm {
	full := fmt.Sprintf("ctx%d:%s", c.ctx, key)
	if cc, ok := c.w.cachedComms[full]; ok {
		return cc
	}
	wr := make([]int, len(commRanks))
	for i, r := range commRanks {
		wr[i] = c.ranks[r]
	}
	cc := c.w.NewComm(wr)
	c.w.cachedComms[full] = cc
	return cc
}

// Barrier blocks until every rank of the communicator has entered it
// (dissemination algorithm over point-to-point messages). The rounds are a
// step-driven routine (sim.Proc.RunSteps): the first is issued inline, and
// if it blocks the rank parks once while the engine issues the rest.
func (c *Comm) Barrier(p *Proc) {
	if c.Size() > 1 {
		p.Sim.RunSteps(c.BarrierSteps(p))
	}
}

// BarrierSteps returns p's barrier on the communicator as a routine, for a
// rank that is itself one (World.StartSteps) to run as a phase: it calls the
// routine's Step from its own until that reports done. The routine lives in
// p and is good for one barrier; a process runs one blocking call at a time.
func (c *Comm) BarrierSteps(p *Proc) sim.Stepper {
	me := c.Rank(p)
	if me < 0 {
		panic("mpi: Barrier by non-member rank")
	}
	if p.bar == nil {
		p.bar = new(barrierSteps)
	}
	*p.bar = barrierSteps{c: c, p: p, me: me, dist: 1}
	return p.bar
}

// barrierSteps is one rank's walk through a barrier's rounds: in round k it
// signals the rank 2^k ahead, hears from the rank 2^k behind, and waits for
// both.
type barrierSteps struct {
	c           *Comm
	p           *Proc
	me          int
	round, dist int
	reqs        [2]*Request // the round in flight; nil before the first
}

// Step retires the round whose wait has just completed and issues the next.
func (b *barrierSteps) Step(sp *sim.Proc) bool {
	c, p, n := b.c, b.p, b.c.Size()
	for {
		if b.reqs[0] != nil {
			p.Release(b.reqs[:])
		}
		if b.dist >= n {
			return true
		}
		to := (b.me + b.dist) % n
		from := (b.me - b.dist + n) % n
		tag := tagBarrier + b.round
		b.reqs[0] = c.Isend(p, Phantom(1), to, tag)
		b.reqs[1] = c.Irecv(p, Phantom(1), from, tag)
		b.round, b.dist = b.round+1, b.dist*2
		p.Arm(b.reqs[:])
		if sp.StepWait() {
			return false
		}
	}
}

// Unwind has nothing to release: a killed rank's requests stay where the
// failure detector finds them.
func (b *barrierSteps) Unwind(*sim.Proc) {}

// Reserved tag bases. User tags must stay below tagReserved.
const (
	tagReserved = 1 << 20
	tagBarrier  = tagReserved
	tagColl     = tagReserved + 64 // base for collective algorithms
)

// TagColl returns a reserved tag for collective traffic; callers pass a
// small per-operation offset to keep concurrent collectives distinct.
func TagColl(offset int) int { return tagColl + offset }
