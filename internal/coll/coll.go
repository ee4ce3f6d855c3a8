// Package coll defines the collective-module interface HAN builds on and
// implements the five modules the paper uses:
//
//   - libnbc: the legacy non-blocking collective module (linear/binomial,
//     round-based progression, scalar reductions);
//   - adapt:  the event-driven module (chain/binary/binomial with internal
//     segmentation, low progression overhead, AVX reductions);
//   - sm:     intra-node shared-memory trees through a copy-in/copy-out
//     buffer (cheap setup, best for small messages, scalar reductions);
//   - solo:   intra-node one-sided single-copy (higher setup, best for
//     large messages, AVX reductions);
//   - tuned:  Open MPI's flat default module with its fixed decision
//     function — the "default Open MPI" baseline of the evaluation.
//
// All modules expose non-blocking operations returning *mpi.Request; HAN
// overlaps tasks by issuing these concurrently. Each operation is progressed
// by a helper process of the calling rank. No helper branches on what it
// learns while running, so the tree and ring algorithms over point-to-point
// messages (algos.go) and the shared-memory operations of sm and solo are
// all flat sequences of blocking primitives built at issue time and walked
// by one interpreter on the engine goroutine (seq.go) — no goroutine per
// task, and the sequences are recycled per module instance. What is left as
// straight-line goroutine code is cuda and the two-stage compositions
// (sm/solo/cuda Iallreduce, sm Iallgather).
package coll

import (
	"fmt"

	"github.com/hanrepro/han/internal/arena"
	"github.com/hanrepro/han/internal/mpi"
)

// Kind enumerates collective operation types (the "t" input of the
// autotuner, Table I).
type Kind int

// Collective kinds.
const (
	Bcast Kind = iota
	Reduce
	Allreduce
	Gather
	Allgather
	Scatter
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Bcast:
		return "bcast"
	case Reduce:
		return "reduce"
	case Allreduce:
		return "allreduce"
	case Gather:
		return "gather"
	case Allgather:
		return "allgather"
	case Scatter:
		return "scatter"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindByName parses a command-line collective name (the inverse of
// String), shared by cmd/hanbench and cmd/hantrace.
func KindByName(name string) (Kind, error) {
	for k := Bcast; k <= Scatter; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("coll: unknown collective %q", name)
}

// Alg enumerates collective algorithms across all modules.
type Alg int

// Algorithms. Not every module supports every algorithm; see Module.Algs.
const (
	AlgDefault Alg = iota
	AlgLinear
	AlgBinomial
	AlgBinary
	AlgChain
	AlgRecursiveDoubling
	AlgRing
)

// String returns the algorithm name.
func (a Alg) String() string {
	switch a {
	case AlgDefault:
		return "default"
	case AlgLinear:
		return "linear"
	case AlgBinomial:
		return "binomial"
	case AlgBinary:
		return "binary"
	case AlgChain:
		return "chain"
	case AlgRecursiveDoubling:
		return "recdoubling"
	case AlgRing:
		return "ring"
	}
	return fmt.Sprintf("alg(%d)", int(a))
}

// Params selects an algorithm and, for modules that support it, an internal
// segment size in bytes (the paper's ibs/irs knobs). Seg == 0 means no
// internal segmentation.
type Params struct {
	Alg Alg
	Seg int
}

// Module is a collective communication component. Operations are
// non-blocking: they return immediately with a request that completes when
// the collective has finished on the calling rank. Modules progress their
// operations with helper processes (step-driven but for the few named in the
// package comment) that share the rank's CPU resource, so concurrent
// collectives contend for progression exactly as in single-threaded MPI.
// The request is the caller's to wait for, once: that Wait returns it to
// the world's pool. A module instance keeps per-world state — the helper
// records it recycles, sm's and solo's rendezvous tables — so it serves one
// world at a time.
type Module interface {
	Name() string
	// Supports reports whether the module implements the given collective.
	Supports(k Kind) bool
	// Algs lists the algorithms selectable for the given collective.
	Algs(k Kind) []Alg

	Ibcast(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, root int, pr Params) *mpi.Request
	Ireduce(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, root int, pr Params) *mpi.Request
	Iallreduce(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, pr Params) *mpi.Request
	Igather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, root int, pr Params) *mpi.Request
	Iallgather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, pr Params) *mpi.Request
	Iscatter(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, root int, pr Params) *mpi.Request
}

// Base provides "unsupported" defaults so concrete modules only implement
// what they actually offer, and holds the pool their helpers' records are
// recycled through (seq.go).
type Base struct {
	ModName string
	runs    *arena.Pool[seqRun]
	// stepFree is the rest of the chunk newSeq carves step arrays from.
	stepFree []seqStep
}

func (b Base) unsupported(k Kind) string {
	return fmt.Sprintf("coll: module %s does not support %s", b.ModName, k)
}

// Supports defaults to false; modules override.
func (b Base) Supports(Kind) bool { return false }

// Algs defaults to empty; modules override.
func (b Base) Algs(Kind) []Alg { return nil }

// Ibcast panics; modules that support Bcast override it.
func (b Base) Ibcast(*mpi.Proc, *mpi.Comm, mpi.Buf, int, Params) *mpi.Request {
	panic(b.unsupported(Bcast)) //hanlint:allow typederr interface stub; Module.Supports gates dispatch, burn-down tracked in DESIGN.md
}

// Ireduce panics; modules that support Reduce override it.
func (b Base) Ireduce(*mpi.Proc, *mpi.Comm, mpi.Buf, mpi.Buf, mpi.Op, mpi.Datatype, int, Params) *mpi.Request {
	panic(b.unsupported(Reduce)) //hanlint:allow typederr interface stub; Module.Supports gates dispatch, burn-down tracked in DESIGN.md
}

// Iallreduce panics; modules that support Allreduce override it.
func (b Base) Iallreduce(*mpi.Proc, *mpi.Comm, mpi.Buf, mpi.Buf, mpi.Op, mpi.Datatype, Params) *mpi.Request {
	panic(b.unsupported(Allreduce)) //hanlint:allow typederr interface stub; Module.Supports gates dispatch, burn-down tracked in DESIGN.md
}

// Igather panics; modules that support Gather override it.
func (b Base) Igather(*mpi.Proc, *mpi.Comm, mpi.Buf, mpi.Buf, int, Params) *mpi.Request {
	panic(b.unsupported(Gather)) //hanlint:allow typederr interface stub; Module.Supports gates dispatch, burn-down tracked in DESIGN.md
}

// Iallgather panics; modules that support Allgather override it.
func (b Base) Iallgather(*mpi.Proc, *mpi.Comm, mpi.Buf, mpi.Buf, Params) *mpi.Request {
	panic(b.unsupported(Allgather)) //hanlint:allow typederr interface stub; Module.Supports gates dispatch, burn-down tracked in DESIGN.md
}

// Iscatter panics; modules that support Scatter override it.
func (b Base) Iscatter(*mpi.Proc, *mpi.Comm, mpi.Buf, mpi.Buf, int, Params) *mpi.Request {
	panic(b.unsupported(Scatter)) //hanlint:allow typederr interface stub; Module.Supports gates dispatch, burn-down tracked in DESIGN.md
}

// --- shared helpers used by the concrete modules ---

// async runs fn in a goroutine helper process of p's rank and returns a
// request that completes when fn returns: what is left of straight-line
// helper bodies, the GPU operations and thenBcast.
func async(p *mpi.Proc, name string, fn func(hp *mpi.Proc)) *mpi.Request {
	req := mpi.NewRequest()
	p.SpawnHelper(name, func(hp *mpi.Proc) {
		fn(hp)
		req.Complete(hp.W.Eng())
	})
	return req
}

// thenBcast is the second stage of the composed operations: once first has
// left its result in rank 0's rbuf, mod broadcasts it.
func thenBcast(p *mpi.Proc, name string, first *mpi.Request, mod Module, c *mpi.Comm, rbuf mpi.Buf) *mpi.Request {
	return async(p, name, func(hp *mpi.Proc) {
		hp.Wait(first)
		hp.Wait(mod.Ibcast(hp, c, rbuf, 0, Params{}))
	})
}

// allocLike returns a scratch buffer matching b's size and realness.
func allocLike(b mpi.Buf) mpi.Buf {
	if b.Real() {
		return mpi.Bytes(make([]byte, b.N))
	}
	return mpi.Phantom(b.N)
}

// segs is [0, n) split into chunks of at most seg bytes.
type segs struct{ n, seg int }

// segments splits [0, n) into chunks of at most seg bytes. seg <= 0 yields
// a single segment.
func segments(n, seg int) segs {
	if seg <= 0 || seg > n {
		seg = max(n, 1)
	}
	return segs{n, seg}
}

func (s segs) len() int { return (s.n + s.seg - 1) / s.seg }

// at returns the bounds of chunk i, width its length.
func (s segs) at(i int) (lo, hi int) {
	lo = i * s.seg
	return lo, min(lo+s.seg, s.n)
}

func (s segs) width(i int) int {
	lo, hi := s.at(i)
	return hi - lo
}

// vrank maps a comm rank to its virtual rank with `root` rotated to 0.
func vrank(rank, root, size int) int { return (rank - root + size) % size }

// unvrank is the inverse of vrank.
func unvrank(v, root, size int) int { return (v + root) % size }

// pickAlg resolves AlgDefault against a module's preference list.
func pickAlg(pr Params, def Alg, allowed []Alg) Alg {
	if pr.Alg == AlgDefault {
		return def
	}
	for _, a := range allowed {
		if a == pr.Alg {
			return a
		}
	}
	// The copy keeps allowed off the heap on the path that returns.
	panic(fmt.Sprintf("coll: algorithm %v not supported here (allowed %v)", pr.Alg, append([]Alg(nil), allowed...)))
}
