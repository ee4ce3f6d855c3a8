package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the long-running counterpart of Executor: a persistent team of
// host workers that executes many short barrier-synchronized rounds over
// the same index space. Executor.Run spins workers up and down per call,
// which is right for one sweep of expensive measurements but wrong for a
// windowed parallel simulation that performs thousands of cheap rounds —
// there the per-round goroutine churn would dominate. A Pool keeps its
// workers parked between rounds and hands them each round over channels.
//
// The contract matches Executor.Run: jobs within a round are independent,
// Run returns only after every job completed, and the return establishes a
// happens-before edge over all job effects (the collection channel
// provides it), so a caller — e.g. sim.Parallel — may freely migrate
// per-index state between workers across rounds. Index→worker assignment
// uses an atomic cursor and is intentionally unspecified: like Executor's
// stealing, it balances uneven rounds, and determinism must come from job
// independence, never from placement.
type Pool struct {
	workers int
	rounds  []chan poolRound
	done    chan struct{}
	jobs    atomic.Uint64
	nrounds atomic.Uint64

	mu       sync.Mutex
	panicVal interface{}
	panicked bool
	closed   bool
}

// poolRound is one barrier round handed to every worker: claim indices
// from the shared cursor until they run out.
type poolRound struct {
	n      int
	job    func(int)
	cursor *int64
}

// NewPool returns a pool with the given worker count; workers <= 0 means
// GOMAXPROCS. A pool with one worker spawns no goroutines at all — Run
// degenerates to an inline loop. Call Close when done with a multi-worker
// pool to release its goroutines.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers == 1 {
		return p
	}
	p.done = make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		ch := make(chan poolRound)
		p.rounds = append(p.rounds, ch)
		// Pool workers are the sanctioned host concurrency of this package
		// (internal/exec is exempt from the fence's goroutine ban); they run
		// opaque round jobs and never see engine state.
		go p.worker(ch)
	}
	return p
}

// Workers returns the configured worker count.
func (p *Pool) Workers() int { return p.workers }

// Rounds returns how many rounds have been run. No binary asks:
// TestPoolRunsEveryIndexOncePerRound counts with it and Jobs, and ROADMAP
// item 6 deletes Pool with sim.Parallel.
func (p *Pool) Rounds() uint64 { return p.nrounds.Load() }

// Jobs returns how many jobs have been executed across all rounds. Like
// Rounds it serves TestPoolRunsEveryIndexOncePerRound and goes with
// ROADMAP item 6.
func (p *Pool) Jobs() uint64 { return p.jobs.Load() }

// Run executes job(0..n-1) on the pool's workers and returns when every
// job has finished. If a job panics, Run re-panics the first recorded
// panic in the caller's goroutine after the round has drained.
func (p *Pool) Run(n int, job func(i int)) {
	if n <= 0 {
		return
	}
	p.nrounds.Add(1)
	if p.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			p.jobs.Add(1)
			job(i)
		}
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("exec: Pool.Run after Close")
	}
	p.mu.Unlock()
	var cursor int64
	r := poolRound{n: n, job: job, cursor: &cursor}
	for _, ch := range p.rounds {
		ch <- r
	}
	for range p.rounds {
		<-p.done
	}
	p.mu.Lock()
	panicked, val := p.panicked, p.panicVal
	p.panicked, p.panicVal = false, nil
	p.mu.Unlock()
	if panicked {
		panic(fmt.Sprintf("exec: pool job panicked: %v", val))
	}
}

// worker parks on its round channel; within a round it claims indices from
// the shared cursor until the space is exhausted, then signals the barrier.
func (p *Pool) worker(ch chan poolRound) {
	for r := range ch {
		p.runRound(r)
		p.done <- struct{}{}
	}
}

// runRound claims and runs indices, converting a job panic into a recorded
// value so the barrier still completes and Run can re-panic it.
func (p *Pool) runRound(r poolRound) {
	defer func() {
		if rec := recover(); rec != nil {
			p.mu.Lock()
			if !p.panicked {
				p.panicked, p.panicVal = true, rec
			}
			p.mu.Unlock()
		}
	}()
	for {
		i := int(atomic.AddInt64(r.cursor, 1) - 1)
		if i >= r.n {
			return
		}
		p.jobs.Add(1)
		r.job(i)
	}
}

// Close releases the pool's worker goroutines. Close is idempotent; Run
// after Close panics. A one-worker pool has nothing to release.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.rounds {
		close(ch)
	}
}
