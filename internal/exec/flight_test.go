package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFlightForget pins the basic invalidation contract: a forgotten key
// recomputes, an unknown key is a no-op, and untouched keys stay cached.
func TestFlightForget(t *testing.T) {
	f := NewFlight[string, int](nil)
	var computed atomic.Int32
	compute := func(v int) func() int {
		return func() int { computed.Add(1); return v }
	}
	if got := f.Do("a", compute(1)); got != 1 {
		t.Fatalf("Do = %d, want 1", got)
	}
	if got := f.Do("b", compute(2)); got != 2 {
		t.Fatalf("Do = %d, want 2", got)
	}
	f.Forget("a")
	f.Forget("never-seen") // no-op
	if f.Len() != 1 {
		t.Fatalf("Len after Forget = %d, want 1", f.Len())
	}
	if got := f.Do("a", compute(10)); got != 10 {
		t.Fatalf("post-Forget Do = %d, want a fresh 10", got)
	}
	if got := f.Do("b", compute(-1)); got != 2 {
		t.Fatalf("unforgotten key recomputed: Do = %d, want cached 2", got)
	}
	if got := computed.Load(); got != 3 {
		t.Fatalf("computed %d times, want 3 (a, b, a-again)", got)
	}
}

// TestFlightPoisonForgetRetry is the serving-path scenario: a computation
// panics and poisons its key, later requesters fail loudly, Forget clears
// the poison, and a retry computes cleanly.
func TestFlightPoisonForgetRetry(t *testing.T) {
	f := NewFlight[string, int](nil)
	mustPanic := func(fn func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		fn()
		return
	}
	if !mustPanic(func() { f.Do("k", func() int { panic("tune failed") }) }) {
		t.Fatal("poisoning computation did not panic")
	}
	// The key is poisoned: requesters panic instead of deadlocking.
	if !mustPanic(func() { f.Do("k", func() int { return 1 }) }) {
		t.Fatal("request for a poisoned key did not panic")
	}
	if _, ok := f.Get("k"); ok {
		t.Fatal("Get returned a value for a poisoned key")
	}
	f.Forget("k")
	if got := f.Do("k", func() int { return 7 }); got != 7 {
		t.Fatalf("retry after Forget = %d, want 7", got)
	}
	if v, ok := f.Get("k"); !ok || v != 7 {
		t.Fatalf("Get after retry = %d, %v; want 7, true", v, ok)
	}
}

// TestFlightForgetInFlight checks the decoupling rule under -race: a
// Forget racing an in-flight computation leaves already-blocked waiters
// attached to the old call, while post-Forget requesters compute fresh.
func TestFlightForgetInFlight(t *testing.T) {
	stats := &Stats{}
	f := NewFlight[int, int](stats)
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if got := f.Do(1, func() int { close(inFlight); <-release; return 100 }); got != 100 {
			t.Errorf("first computation returned %d, want 100", got)
		}
	}()
	go func() {
		defer wg.Done()
		<-inFlight
		if got := f.Do(1, func() int { return -1 }); got != 100 {
			t.Errorf("waiter got %d, want the old 100: it joined before the Forget", got)
		}
	}()
	// Do counts a wait before it blocks: once the count shows, the waiter is
	// attached to the in-flight call, and the Forget below cannot detach it.
	for stats.CacheWaits() != 1 {
		runtime.Gosched()
	}
	f.Forget(1)
	// A requester arriving after the Forget starts a fresh computation even
	// though the old one is still running.
	done := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		done <- f.Do(1, func() int { return 200 })
	}()
	if got := <-done; got != 200 {
		t.Fatalf("post-Forget requester got %d, want a fresh 200", got)
	}
	close(release)
	wg.Wait()
}

// TestFlightForgetConcurrent hammers Do/Forget from many goroutines under
// -race: no lost updates, every Do returns its key's deterministic value.
func TestFlightForgetConcurrent(t *testing.T) {
	f := NewFlight[int, int](nil)
	var wg sync.WaitGroup
	const workers, rounds, keys = 8, 200, 5
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (self + r) % keys
				if got := f.Do(k, func() int { return k * 3 }); got != k*3 {
					t.Errorf("Do(%d) = %d, want %d", k, got, k*3)
					return
				}
				if r%7 == self%7 {
					f.Forget(k)
				}
			}
		}(w)
	}
	wg.Wait()
}
