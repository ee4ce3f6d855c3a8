package exec

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hanrepro/han/internal/metrics"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 17} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		x := New(workers)
		x.Run(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, got)
			}
		}
		if got := x.Stats().Jobs(); got != n {
			t.Errorf("workers=%d: Jobs() = %d, want %d", workers, got, n)
		}
	}
}

func TestRunZeroAndNegativeJobs(t *testing.T) {
	x := New(4)
	x.Run(0, func(int) { t.Error("job ran for n=0") })
	x.Run(-3, func(int) { t.Error("job ran for n<0") })
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if New(0).Workers() <= 0 {
		t.Error("New(0) produced a zero-worker pool")
	}
	if got := New(7).Workers(); got != 7 {
		t.Errorf("Workers() = %d, want 7", got)
	}
}

// Index-addressed slots plus serial merge is the executor's determinism
// recipe; this pins that the collected slice is independent of the worker
// count even with deliberately uneven job costs.
func TestIndexAddressedResultsDeterministic(t *testing.T) {
	const n = 257
	run := func(workers int) []int {
		out := make([]int, n)
		New(workers).Run(n, func(i int) {
			v := i
			// Uneven, index-dependent spin so schedules differ wildly.
			for k := 0; k < (i%13)*1000; k++ {
				v += k % 7
			}
			out[i] = v
		})
		return out
	}
	want := run(1)
	for _, w := range []int{2, 4, 16} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestStealsHappenUnderImbalance(t *testing.T) {
	if New(0).Workers() < 2 {
		t.Skip("single-CPU host: two workers cannot run concurrently enough to guarantee a steal")
	}
	// All the work lands in the first worker's partition: job 0 is huge,
	// the rest trivial — the other workers must steal to help.
	x := New(4)
	var spin atomic.Uint64
	x.Run(400, func(i int) {
		if i < 100 {
			for k := 0; k < 100000; k++ {
				spin.Add(1)
			}
		}
	})
	if x.Stats().Steals() == 0 {
		t.Error("no steals despite a deliberately imbalanced partition")
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic lost its payload: %v", r)
		}
	}()
	New(4).Run(64, func(i int) {
		if i == 33 {
			panic("boom")
		}
	})
}

func TestFlightSingleComputation(t *testing.T) {
	x := New(8)
	f := NewFlight[int, int]()
	var computed atomic.Int32
	const n, keys = 400, 7
	out := make([]int, n)
	x.Run(n, func(i int) {
		k := i % keys
		out[i] = f.Do(k, func() int {
			computed.Add(1)
			return k * 10
		})
	})
	if got := computed.Load(); got != keys {
		t.Errorf("computed %d times, want %d (one per distinct key)", got, keys)
	}
	for i, v := range out {
		if v != (i%keys)*10 {
			t.Errorf("slot %d = %d, want %d", i, v, (i%keys)*10)
		}
	}
}

func TestFlightConcurrentSameKeyBlocksOnce(t *testing.T) {
	// Two raw goroutines race on one key; the gate guarantees the second
	// arrives while the first computation is still in flight.
	f := NewFlight[int, int]()
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	var computed atomic.Int32
	wg.Add(2)
	go func() {
		defer wg.Done()
		f.Do(1, func() int {
			computed.Add(1)
			close(inFlight)
			<-release
			return 11
		})
	}()
	go func() {
		defer wg.Done()
		<-inFlight
		if got := f.Do(1, func() int { computed.Add(1); return -1 }); got != 11 {
			t.Errorf("waiter got %d, want the first computation's 11", got)
		}
	}()
	<-inFlight
	close(release)
	wg.Wait()
	if computed.Load() != 1 {
		t.Errorf("computed %d times", computed.Load())
	}
}

func TestStatsNilSafe(t *testing.T) {
	var s *Stats
	s.noteRunning(1)
	s.noteQueueDepth(5)
	s.Publish(metrics.New(), 4)
	if s.Jobs()+s.Steals()+s.Stolen() != 0 {
		t.Error("nil Stats reported nonzero counters")
	}
	if s.PeakParallel() != 0 || s.PeakQueueDepth() != 0 {
		t.Error("nil Stats reported nonzero peaks")
	}
}

// TestExecMetricsDocCoverage is the exec_* leg of the observability
// contract: every family Publish registers must be documented in
// docs/OBSERVABILITY.md.
func TestExecMetricsDocCoverage(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatalf("observability contract missing: %v", err)
	}
	x := New(2)
	x.Run(8, func(int) {})
	reg := metrics.New()
	x.Stats().Publish(reg, x.Workers())
	fams := reg.Families()
	if len(fams) < 6 {
		t.Fatalf("suspiciously few exec families: %v", fams)
	}
	sort.Strings(fams)
	for _, f := range fams {
		if !strings.HasPrefix(f, "exec_") {
			t.Errorf("executor registered non-exec family %q", f)
		}
		if !bytes.Contains(doc, []byte("`"+f+"`")) {
			t.Errorf("docs/OBSERVABILITY.md does not document metric family %q", f)
		}
	}
}

func TestPublishCounts(t *testing.T) {
	x := New(3)
	x.Run(30, func(int) {})
	reg := metrics.New()
	x.Stats().Publish(reg, x.Workers())
	if got := reg.Counter(metrics.Opts{Name: "exec_jobs"}).Value(); got != 30 {
		t.Errorf("exec_jobs = %v, want 30", got)
	}
	if got := reg.Gauge(metrics.Opts{Name: "exec_workers"}).Value(); got != 3 {
		t.Errorf("exec_workers = %v, want 3", got)
	}
}
