package autotune

import (
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
)

// OnlineTuner implements the online-tuning approach of STAR-MPI (Faraj et
// al., ICS'06) that the paper's related-work section contrasts HAN's
// offline tuning against: instead of benchmarking ahead of time, it times
// the application's own collective calls, cycling through the candidate
// configurations for the first calls of each (kind, size-class) pair and
// locking in the fastest one afterwards.
//
// Its two known downsides — an unpredictable convergence period during
// which the application runs mispicked configurations, and the bookkeeping
// overhead of timing every call — are reproduced faithfully, so the
// offline-vs-online comparison (hanexp -ablate online) comes out the way
// the paper argues.
//
// All ranks of a world share one tuner. Because every rank must use the
// same configuration for the same collective call, the trial schedule is a
// pure function of the per-rank call index, and a one-time barrier at the
// convergence boundary publishes rank 0's measured winner to everyone.
type OnlineTuner struct {
	h *han.HAN
	// TrialsPerConfig is how many timed calls each candidate receives.
	TrialsPerConfig int
	// Overhead is the per-call bookkeeping cost in CPU-seconds charged to
	// the calling rank (timing, decision-matrix maintenance).
	Overhead float64

	expand func(kind coll.Kind, m int) []Candidate
	states map[onlineKey]*onlineState
}

type onlineKey struct {
	kind coll.Kind
	mLog int // size class: floor(log2(m))
}

type onlineState struct {
	cands []Candidate
	calls map[int]int // per world-rank call index
	sums  []float64   // per candidate: summed durations (rank 0's clock)
	best  han.Config
	done  bool // best computed and published
}

// NewOnlineTuner wraps a HAN instance with online tuning over the given
// search space.
func NewOnlineTuner(h *han.HAN, space Space) *OnlineTuner {
	nodes := h.W.Mach.Spec.Nodes
	return &OnlineTuner{
		h:               h,
		TrialsPerConfig: 2,
		Overhead:        0.5e-6,
		expand: func(kind coll.Kind, m int) []Candidate {
			return space.Expand(kind, m, true, nodes)
		},
		states: make(map[onlineKey]*onlineState),
	}
}

func (t *OnlineTuner) state(kind coll.Kind, m int) *onlineState {
	k := onlineKey{kind, log2(m)}
	st := t.states[k]
	if st == nil {
		cands := t.expand(kind, m)
		if len(cands) == 0 {
			cands = []Candidate{{Cfg: han.DefaultDecision(kind, m)}}
		}
		st = &onlineState{cands: cands, calls: make(map[int]int), sums: make([]float64, len(cands))}
		t.states[k] = st
	}
	return st
}

func log2(m int) int {
	l := 0
	for m > 1 {
		m >>= 1
		l++
	}
	return l
}

// trialCalls is the length of the trial schedule for a state.
func (t *OnlineTuner) trialCalls(st *onlineState) int {
	return len(st.cands) * t.TrialsPerConfig
}

// Converged reports whether the size class of (kind, m) has locked in a
// configuration. No binary asks yet: TestOnlineTunerConvergesToGoodConfig
// does, and ROADMAP item 10(c) keeps it only if -ablate online becomes a
// checked shape.
func (t *OnlineTuner) Converged(kind coll.Kind, m int) bool {
	st := t.states[onlineKey{kind, log2(m)}]
	return st != nil && st.done
}

// Chosen returns the locked-in configuration for a size class (zero Config
// before convergence). Like Converged it serves
// TestOnlineTunerConvergesToGoodConfig and waits on ROADMAP item 10(c).
func (t *OnlineTuner) Chosen(kind coll.Kind, m int) han.Config {
	st := t.states[onlineKey{kind, log2(m)}]
	if st != nil && st.done {
		return st.best
	}
	return han.Config{}
}

// begin resolves the configuration for this rank's next call of the state
// and reports the call index. The trial schedule is deterministic in the
// call index, so all ranks agree without communicating; the first
// post-trial call performs a barrier that orders rank 0's final measurement
// before anyone reads the winner.
func (t *OnlineTuner) begin(p *mpi.Proc, st *onlineState) (han.Config, int) {
	idx := st.calls[p.Rank]
	st.calls[p.Rank] = idx + 1
	trial := t.trialCalls(st)
	if idx < trial {
		return st.cands[idx/t.TrialsPerConfig].Cfg, idx
	}
	if idx == trial {
		// Convergence boundary: rank 0 has recorded the last trial before
		// it enters this barrier, so everyone leaves with the winner
		// published.
		t.h.W.World().Barrier(p)
		if !st.done {
			best := 0
			for c := range st.sums {
				if st.sums[c] < st.sums[best] {
					best = c
				}
			}
			st.best = st.cands[best].Cfg
			st.done = true
		}
	}
	return st.best, idx
}

// record folds one measured duration into the state (rank 0's measurements
// drive the decision, as a single timing stream keeps the matrix
// consistent).
func (t *OnlineTuner) record(p *mpi.Proc, st *onlineState, idx int, d float64) {
	if p.Rank != 0 || idx >= t.trialCalls(st) {
		return
	}
	st.sums[idx/t.TrialsPerConfig] += d
}

// Bcast runs a HAN broadcast under online tuning.
func (t *OnlineTuner) Bcast(p *mpi.Proc, buf mpi.Buf, root int) {
	st := t.state(coll.Bcast, buf.N)
	cfg, idx := t.begin(p, st)
	cpuWaitTuner(p, t.Overhead)
	t0 := p.Now()
	t.h.Bcast(p, buf, root, cfg)
	t.record(p, st, idx, float64(p.Now()-t0))
}

func cpuWaitTuner(p *mpi.Proc, seconds float64) {
	if seconds <= 0 {
		return
	}
	f := p.W.Mach.CPUWork(p.Rank, seconds)
	p.Sim.Wait(f.Done())
}
