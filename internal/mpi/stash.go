package mpi

import "math/bits"

// stash keeps the grown backing arrays of a world's point-to-point queues —
// pair FIFOs and endpoint queues — for the next queue that fills up. A queue
// starts on a one-slot array inside its record; a full queue takes a
// twice-as-large array from the stash and gives its old one back, and a
// queue whose record is done with it (a released pair, a drained endpoint
// queue) gives its array back and starts over on its inline slot. So what a
// world's queues hold grows with the most entries they queue at once, not
// with how many pairs and endpoints take turns. Every array it hands out has
// a power-of-two capacity of 2 or more, so the capacity is its class.
type stash[T any] struct {
	free [stashClasses][][]T // free[k]: emptied arrays of capacity 1<<k
}

const (
	// stashClasses bounds the classes a stash keeps: an array of 1<<32
	// entries or more is not given back.
	stashClasses = 32
	// stashList is the capacity a class's list of free arrays starts at, so
	// a small world's stash grows its lists once, not once per doubling.
	stashList = 16
)

// grow returns s[head:] in an array of twice s's capacity, from the stash
// when it holds one, and gives s's array back.
func (st *stash[T]) grow(s []T, head int) []T {
	k := bits.Len(uint(cap(s)))
	var a []T
	if k < stashClasses && len(st.free[k]) > 0 {
		f := st.free[k]
		a = f[len(f)-1]
		f[len(f)-1] = nil
		st.free[k] = f[:len(f)-1]
	} else {
		a = make([]T, 0, 1<<k)
	}
	a = append(a, s[head:]...)
	st.put(s)
	return a
}

// push appends v to s, growing s from the stash if it is full.
func (st *stash[T]) push(s []T, v T) []T {
	if len(s) == cap(s) {
		s = st.grow(s, 0)
	}
	return append(s, v)
}

// put empties s's array and takes it back, unless it is an inline slot.
func (st *stash[T]) put(s []T) {
	s = s[:cap(s)]
	clear(s)
	k := bits.Len(uint(cap(s))) - 1
	if k < 1 || k >= stashClasses {
		return
	}
	if st.free[k] == nil {
		st.free[k] = make([][]T, 0, stashList)
	}
	st.free[k] = append(st.free[k], s[:0])
}

// remove shift-removes entry i of s, nil-ing the vacated tail slot — without
// that, the array pins the removed (possibly pool-recycled) record until the
// slot is overwritten — and restarts s on inline once it is empty.
func (st *stash[T]) remove(s []T, i int, inline *[1]T) []T {
	last := len(s) - 1
	if last == 0 {
		return st.restart(s, inline)
	}
	copy(s[i:], s[i+1:])
	var zero T
	s[last] = zero
	return s[:last]
}

// restart gives a queue's array back and returns the queue's inline slot,
// empty, to start over on.
func (st *stash[T]) restart(s []T, inline *[1]T) []T {
	st.put(s)
	return inline[:0]
}
