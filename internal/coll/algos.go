package coll

import (
	"fmt"

	"github.com/hanrepro/han/internal/mpi"
)

// The algorithms over point-to-point messages, as builders: each appends
// the steps of the calling rank's part to a helper's program (seq.go). All
// of them are straight-line once the tree shape, the segment bounds and the
// costs are known, which is at issue time. perMsg is the module's extra
// per-message progression work in CPU-seconds, reduceBps its reduction
// throughput.

// treeFn returns, for a virtual rank v in a tree of the given size, the
// parent virtual rank (-1 for the root) and the children virtual ranks in
// send order, appended to kids.
type treeFn func(v, size int, kids []int) (parent int, children []int)

// binomialTree is the classic binomial broadcast tree.
func binomialTree(v, size int, kids []int) (int, []int) {
	parent := -1
	mask := 1
	for mask < size {
		if v&mask != 0 {
			parent = v - mask
			break
		}
		mask <<= 1
	}
	if parent == -1 {
		// Root: walk the mask back down to emit children high-to-low so the
		// largest subtree starts first.
		mask = 1
		for mask < size {
			mask <<= 1
		}
	}
	for m := mask >> 1; m > 0; m >>= 1 {
		if v&(m-1) == 0 && v|m != v && v+m < size {
			kids = append(kids, v+m)
		}
	}
	return parent, kids
}

// binaryTree is a balanced binary tree rooted at virtual rank 0.
func binaryTree(v, size int, kids []int) (int, []int) {
	parent := -1
	if v != 0 {
		parent = (v - 1) / 2
	}
	for c := 2*v + 1; c <= 2*v+2 && c < size; c++ {
		kids = append(kids, c)
	}
	return parent, kids
}

// chainTree is a pipeline: each rank forwards to the next.
func chainTree(v, size int, kids []int) (int, []int) {
	if v+1 < size {
		kids = append(kids, v+1)
	}
	return v - 1, kids
}

// linearTree is a flat star: the root talks to everyone directly.
func linearTree(v, size int, kids []int) (int, []int) {
	if v != 0 {
		return 0, kids
	}
	for c := 1; c < size; c++ {
		kids = append(kids, c)
	}
	return -1, kids
}

func treeOf(a Alg) treeFn {
	switch a {
	case AlgLinear:
		return linearTree
	case AlgBinomial:
		return binomialTree
	case AlgBinary:
		return binaryTree
	case AlgChain:
		return chainTree
	}
	panic(fmt.Sprintf("coll: no tree shape for algorithm %v", a))
}

// tree returns the calling rank's place in a tree rooted at root.
func (s *seqRun) tree(p *mpi.Proc, c *mpi.Comm, root int, shape treeFn) (parent int, children []int) {
	parent, s.kids = shape(vrank(c.Rank(p), root, c.Size()), c.Size(), s.kids[:0])
	return parent, s.kids
}

// bcastTree is a (possibly segmented, pipelined) tree broadcast: every
// receive is posted up front, and a segment is forwarded to the children as
// soon as it is in.
func (s *seqRun) bcastTree(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, root int, shape treeFn, seg int, perMsg float64, tag int) {
	n := c.Size()
	if n <= 1 || buf.N == 0 {
		return
	}
	parentV, childV := s.tree(p, c, root, shape)
	sg := segments(buf.N, seg)
	first := len(s.args)
	if parentV != -1 {
		for i := 0; i < sg.len(); i++ {
			s.recv(buf.Slice(sg.at(i)), unvrank(parentV, root, n), tag)
		}
	}
	for i := 0; i < sg.len(); i++ {
		if parentV != -1 {
			s.wait(first+i, 1)
			s.cpu(perMsg)
		}
		for _, ch := range childV {
			s.cpu(perMsg)
			s.send(buf.Slice(sg.at(i)), unvrank(ch, root, n), tag)
		}
	}
	s.waitAll()
}

// reduceTree is a (possibly segmented, pipelined) tree reduction toward
// root using the reversed edges of the same tree shapes as bcastTree. The
// result lands in rbuf at the root; sbuf is every rank's contribution.
func (s *seqRun) reduceTree(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, root int, shape treeFn, seg int, perMsg, reduceBps float64, tag int) {
	n := c.Size()
	if n <= 1 {
		if rbuf.N == sbuf.N {
			s.copy(rbuf, sbuf)
		}
		return
	}
	if sbuf.N == 0 {
		return
	}
	parentV, childV := s.tree(p, c, root, shape)

	// Accumulator: root accumulates straight into rbuf, others into scratch.
	accum := rbuf
	if parentV != -1 {
		accum = allocLike(sbuf)
	}
	s.copy(accum, sbuf)

	sg := segments(sbuf.N, seg)
	// One child's partial is folded before the next one's receive is posted,
	// so a single landing buffer, sized at the largest segment, serves all.
	var in mpi.Buf
	if len(childV) > 0 {
		in = allocLike(sbuf.Slice(sg.at(0)))
	}
	for i := 0; i < sg.len(); i++ {
		lo, hi := sg.at(i)
		for _, ch := range childV {
			s.wait(s.recv(in.Slice(0, hi-lo), unvrank(ch, root, n), tag), 1)
			s.cpu(perMsg)
			s.reduce(reduceBps, op, dt, accum.Slice(lo, hi), in.Slice(0, hi-lo))
		}
		if parentV != -1 {
			s.cpu(perMsg)
			s.send(accum.Slice(lo, hi), unvrank(parentV, root, n), tag)
		}
	}
	s.waitAll()
}

// allreduce is the ring for AlgRing and recursive doubling otherwise.
func (s *seqRun) allreduce(alg Alg, p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, perMsg, reduceBps float64, tag int) {
	if alg == AlgRing {
		s.allreduceRing(p, c, sbuf, rbuf, op, dt, perMsg, reduceBps, tag)
	} else {
		s.allreduceRecDoubling(p, c, sbuf, rbuf, op, dt, perMsg, reduceBps, tag)
	}
}

// allreduceRecDoubling is the classic recursive-doubling allreduce,
// handling non-power-of-two sizes with the standard fold/unfold steps.
func (s *seqRun) allreduceRecDoubling(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, perMsg, reduceBps float64, tag int) {
	n := c.Size()
	me := c.Rank(p)
	s.copy(rbuf, sbuf)
	if n <= 1 {
		return
	}
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	tmp := allocLike(rbuf)

	// Fold: the first 2*rem ranks pair up so pof2 ranks remain.
	newRank := -1
	switch {
	case me < 2*rem && me%2 == 0:
		s.cpu(perMsg)
		s.wait(s.send(rbuf, me+1, tag), 1)
	case me < 2*rem:
		s.wait(s.recv(tmp, me-1, tag), 1)
		s.cpu(perMsg)
		s.reduce(reduceBps, op, dt, rbuf, tmp)
		newRank = me / 2
	default:
		newRank = me - rem
	}

	if newRank >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			peer := newRank ^ mask
			if peer < rem {
				peer = peer*2 + 1
			} else {
				peer += rem
			}
			s.cpu(perMsg)
			s.exchange(rbuf, peer, tmp, peer, tag)
			s.reduce(reduceBps, op, dt, rbuf, tmp)
		}
	}

	// Unfold: give the folded-away ranks the result.
	switch {
	case me < 2*rem && me%2 == 0:
		s.wait(s.recv(rbuf, me+1, tag), 1)
	case me < 2*rem:
		s.cpu(perMsg)
		s.wait(s.send(rbuf, me-1, tag), 1)
	}
}

// exchange sends sbuf to one peer while receiving rbuf from another, and
// waits for both at once.
func (s *seqRun) exchange(sbuf mpi.Buf, to int, rbuf mpi.Buf, from, tag int) {
	i := s.send(sbuf, to, tag)
	s.recv(rbuf, from, tag)
	s.wait(i, 2)
}

// allreduceRing is the bandwidth-optimal ring allreduce: a reduce-scatter
// pass followed by an allgather pass, each in n-1 steps of ~1/n of the
// buffer.
func (s *seqRun) allreduceRing(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, perMsg, reduceBps float64, tag int) {
	n := c.Size()
	me := c.Rank(p)
	total := rbuf.N
	elem := dt.Size()
	if n <= 1 || total/elem < n {
		// Too small to scatter: fall back to recursive doubling.
		s.allreduceRecDoubling(p, c, sbuf, rbuf, op, dt, perMsg, reduceBps, tag)
		return
	}
	s.copy(rbuf, sbuf)
	// Chunk boundaries aligned to elements.
	bounds := make([]int, n+1)
	per := total / elem / n
	extra := total/elem - per*n
	off := 0
	for i := 0; i < n; i++ {
		bounds[i] = off * elem
		off += per
		if i < extra {
			off++
		}
	}
	bounds[n] = total
	chunk := func(b mpi.Buf, i int) mpi.Buf { return b.Slice(bounds[i], bounds[i+1]) }

	left := (me - 1 + n) % n
	right := (me + 1) % n
	tmp := allocLike(rbuf.Slice(bounds[0], bounds[1]+elem))

	// Reduce-scatter: after step k, rank me holds the partial sum of chunk
	// (me-k+n)%n over k+1 contributions.
	for step := 0; step < n-1; step++ {
		into := chunk(rbuf, (me-step-1+n)%n)
		s.cpu(perMsg)
		s.exchange(chunk(rbuf, (me-step+n)%n), right, tmp.Slice(0, into.N), left, tag)
		s.reduce(reduceBps, op, dt, into, tmp.Slice(0, into.N))
	}
	// Allgather: circulate the finished chunks.
	for step := 0; step < n-1; step++ {
		s.cpu(perMsg)
		s.exchange(chunk(rbuf, (me+1-step+n)%n), right, chunk(rbuf, (me-step+n)%n), left, tag)
	}
}

// gatherLinear collects sbuf from every rank into rbuf at the root, laid
// out by comm rank. rbuf must be size*sbuf.N bytes at the root.
func (s *seqRun) gatherLinear(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, root int, perMsg float64, tag int) {
	n := c.Size()
	blk := sbuf.N
	if c.Rank(p) != root {
		s.cpu(perMsg)
		s.wait(s.send(sbuf, root, tag), 1)
		return
	}
	if rbuf.N != n*blk {
		panic(fmt.Sprintf("coll: gather buffer %d bytes, want %d", rbuf.N, n*blk))
	}
	for r := 0; r < n; r++ {
		if r == root {
			s.copy(rbuf.Slice(r*blk, (r+1)*blk), sbuf)
			continue
		}
		s.recv(rbuf.Slice(r*blk, (r+1)*blk), r, tag)
	}
	s.waitAll()
}

// scatterLinear distributes root's rbuf-sized blocks of sbuf to each rank's
// rbuf.
func (s *seqRun) scatterLinear(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, root int, perMsg float64, tag int) {
	n := c.Size()
	blk := rbuf.N
	if c.Rank(p) != root {
		s.wait(s.recv(rbuf, root, tag), 1)
		return
	}
	if sbuf.N != n*blk {
		panic(fmt.Sprintf("coll: scatter buffer %d bytes, want %d", sbuf.N, n*blk))
	}
	for r := 0; r < n; r++ {
		if r == root {
			s.copy(rbuf, sbuf.Slice(r*blk, (r+1)*blk))
			continue
		}
		s.cpu(perMsg)
		s.send(sbuf.Slice(r*blk, (r+1)*blk), r, tag)
	}
	s.waitAll()
}

// allgatherRing circulates each rank's block around the ring, n-1 steps.
func (s *seqRun) allgatherRing(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, perMsg float64, tag int) {
	n := c.Size()
	me := c.Rank(p)
	blk := sbuf.N
	if rbuf.N != n*blk {
		panic(fmt.Sprintf("coll: allgather buffer %d bytes, want %d", rbuf.N, n*blk))
	}
	block := func(i int) mpi.Buf { return rbuf.Slice(i*blk, (i+1)*blk) }
	s.copy(block(me), sbuf)
	for step := 0; step < n-1; step++ {
		s.cpu(perMsg)
		s.exchange(block((me-step+n)%n), (me+1)%n, block((me-step-1+n)%n), (me-1+n)%n, tag)
	}
}
