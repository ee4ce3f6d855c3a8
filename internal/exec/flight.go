package exec

import (
	"fmt"
	"sync"
)

// Flight is a single-flight cache: the first requester of a key runs the
// computation, concurrent requesters for the same key block on its result
// instead of running it again, and later requesters get the cached value
// immediately. The decision service (internal/serve) collapses concurrent
// on-demand tunes of one key through a Flight, and forgets a key whose
// tune failed or was superseded.
//
// The zero Flight is not usable; create one with NewFlight. A Flight is
// safe for concurrent use.
type Flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*flightCall[V]
}

type flightCall[V any] struct {
	done   chan struct{}
	val    V
	failed bool
}

// NewFlight returns an empty cache.
func NewFlight[K comparable, V any]() *Flight[K, V] {
	return &Flight[K, V]{calls: make(map[K]*flightCall[V])}
}

// Do returns the value for key, computing it with fn if this is the first
// request. Exactly one call of fn happens per distinct key, no matter how
// many goroutines request it concurrently; the others block until the
// computation finishes. fn must be deterministic in key — every requester
// receives the first computation's value.
func (f *Flight[K, V]) Do(key K, fn func() V) V {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-c.done
		if c.failed {
			panic(fmt.Sprintf("exec: single-flight computation for %v panicked in another requester", key))
		}
		return c.val
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	completed := false
	defer func() {
		if !completed {
			// fn panicked: release waiters with a poisoned entry so they
			// fail loudly instead of deadlocking, and let the panic
			// propagate to the caller.
			c.failed = true
			close(c.done)
		}
	}()
	c.val = fn()
	completed = true
	close(c.done)
	return c.val
}

// Forget drops the cached computation for key, so the next Do performs a
// fresh one. The serving layer calls it when a re-tune invalidates a
// cached result, and to clear a poisoned entry (a computation that
// panicked) before a retry. Requesters already blocked on the forgotten
// call still receive its outcome — value or poison panic — Forget only
// decouples future requesters. Forgetting a key with no entry is a no-op.
func (f *Flight[K, V]) Forget(key K) {
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
}
