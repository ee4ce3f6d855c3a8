// Package autotune implements HAN's task-based autotuning component, the
// paper's second contribution (section III-C).
//
// Instead of measuring whole collective operations for every message size
// (exhaustive search, cost M x S x N x P x A), it benchmarks HAN's *tasks*
// once per configuration (cost T x S x N x P x A) and composes their
// empirically measured costs through the cost model of equations (3) and
// (4). Task costs are reused across message sizes — and across collectives
// that share tasks (sb appears in both MPI_Bcast and MPI_Allreduce) — which
// is what cuts tuning time by an order of magnitude while keeping the
// accuracy of direct measurement (Figs 8 and 9).
//
// The package also implements the exhaustive and heuristic searches the
// paper compares against, the lookup table keyed by the Table I inputs
// (n, p, m, t), and its JSON persistence and interpolation logic.
package autotune

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"sort"
	"sync"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// Input is one autotuning input point — Table I of the paper.
type Input struct {
	N int       // number of nodes
	P int       // processes per node
	M int       // message size in bytes
	T coll.Kind // collective operation type
}

// String formats the input for reports.
func (in Input) String() string {
	return fmt.Sprintf("n=%d p=%d m=%s t=%s", in.N, in.P, han.SizeString(in.M), in.T)
}

// Space is the configuration search space. The cross product of its fields
// (filtered by module capabilities and, optionally, heuristics) is what the
// searches enumerate.
type Space struct {
	// Msgs is the sampled message-size axis (M).
	Msgs []int
	// FS is the HAN segment-size axis (S).
	FS []int
	// IMods and SMods are the submodule choices.
	IMods []string
	SMods []string
	// IBS is the inter-node internal segment-size axis (applies to ADAPT).
	IBS []int
}

// DefaultSpace returns the search space used throughout the evaluation:
// power-of-four message sizes from 4 B to 4 MB, segment sizes from 64 KB to
// 1 MB, both inter- and intra-node submodules, and three ADAPT internal
// segment sizes.
func DefaultSpace() Space {
	return Space{
		Msgs:  []int{4, 64, 1 << 10, 16 << 10, 256 << 10, 1 << 20, 4 << 20},
		FS:    []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20},
		IMods: han.InterNames(),
		SMods: han.IntraNames(),
		IBS:   []int{32 << 10, 64 << 10, 128 << 10},
	}
}

// Candidate is one fully-specified configuration paired with the segment
// size it was expanded at.
type Candidate struct {
	Cfg han.Config
}

// Expand enumerates every configuration in the space for the given
// collective kind and message size m (fs > m is skipped: a segment cannot
// exceed the message). When heuristics is true, the paper's pruning rules
// apply: SOLO only for segments larger than 512 KB, and the chain algorithm
// only when there are enough segments to fill its pipeline.
func (s Space) Expand(kind coll.Kind, m int, heuristics bool, nodes int) []Candidate {
	var out []Candidate
	fsAxis := s.FS
	// Always consider the unsegmented configuration for small messages.
	if m < fsAxis[0] {
		fsAxis = append([]int{m}, fsAxis...)
	}
	for _, fs := range fsAxis {
		if fs > m {
			continue
		}
		u := (m + fs - 1) / fs
		for _, imod := range s.IMods {
			algs := interAlgs(imod, kind)
			ibsAxis := []int{0}
			if imod == "adapt" {
				ibsAxis = s.IBS
			}
			for _, alg := range algs {
				if heuristics && alg == coll.AlgChain && u*1 < nodes/2 {
					// Chain needs enough segments to kick-start its
					// pipeline (paper's heuristic example).
					continue
				}
				for _, ibs := range ibsAxis {
					if ibs > fs {
						continue
					}
					for _, smod := range s.SMods {
						if heuristics && smod == "solo" && fs <= 512<<10 {
							// SM beats SOLO below 512 KB (paper's
							// heuristic example).
							continue
						}
						cfg := han.Config{FS: fs, IMod: imod, SMod: smod, IBAlg: alg, IRAlg: alg, IBS: ibs, IRS: ibs}
						out = append(out, Candidate{Cfg: cfg})
					}
				}
			}
		}
	}
	return out
}

func interAlgs(imod string, kind coll.Kind) []coll.Alg {
	switch imod {
	case "adapt":
		return []coll.Alg{coll.AlgChain, coll.AlgBinary, coll.AlgBinomial}
	case "libnbc":
		return []coll.Alg{coll.AlgLinear, coll.AlgBinomial}
	}
	panic("autotune: unknown inter module " + imod)
}

// TaskSignature identifies the task-cost benchmark a configuration needs:
// everything in the config except nothing — task costs depend on the full
// configuration including fs — but they do NOT depend on the message size,
// which is the axis the task-based search eliminates.
type TaskSignature struct {
	Cfg han.Config
}

// Env binds a machine spec and P2P personality for measurements. Seed and
// Faults, when set, apply to every measurement world the environment
// creates, so a tuning sweep can be replayed bit-for-bit — including one
// that tunes a degraded machine.
type Env struct {
	Spec cluster.Spec
	Pers *mpi.Personality
	// Seed reseeds each measurement world's RNG (0 keeps the default).
	Seed int64
	// Faults, when non-nil and non-zero, is injected into every
	// measurement world.
	Faults *fault.Plan

	// worlds recycles measurement worlds for the length of a sweep
	// (RunSearch sets it); nil builds a world per measurement.
	worlds *worldList
}

// NewEnv returns a measurement environment.
func NewEnv(spec cluster.Spec, pers *mpi.Personality) Env { return Env{Spec: spec, Pers: pers} }

// faulty reports whether the environment injects a fault plan.
func (e Env) faulty() bool { return e.Faults != nil && !e.Faults.IsZero() }

// newWorld builds a measurement world: a private engine, machine, world and
// HAN instance, so concurrent measurements never share simulation state —
// the property the parallel executor relies on. A sweep builds one per
// worker and recycles it (worldList); every other caller — hanexp's
// figures, benchmark/'s probe of one task measurement — runs one measurement
// on it.
func (e Env) newWorld() *han.HAN {
	w := mpi.NewWorld(cluster.NewMachine(sim.New(), e.Spec), e.Pers)
	if e.Seed != 0 {
		w.Seed(e.Seed)
	}
	if e.faulty() {
		w.AttachFaults(*e.Faults)
	}
	return han.New(w)
}

// runWorld has start put the ranks of a measurement world on their
// measurement, runs it and returns the final virtual time. Measurement ranks
// only loop over barriers, collectives and timers, so they are routines
// (mpi.World.StartSteps): a measurement world starts no goroutine.
func (e Env) runWorld(start func(h *han.HAN)) sim.Time {
	h := e.worlds.get(e)
	start(h)
	eng := h.W.Eng()
	if err := eng.Run(); err != nil {
		panic(fmt.Sprintf("autotune: measurement world failed: %v", err))
	}
	end := eng.Now()
	e.worlds.put(e, h)
	return end
}

// worldList is the free list of measurement worlds a sweep keeps: a job
// takes a world off it, or builds one when it is empty, and puts it back
// reset once its measurement has drained. So a sweep builds as many worlds
// as it ever ran at once — at most one per worker — and no two jobs hold one
// at the same time. A reset world simulates the bits a new one would
// (han.HAN.Reset, down through the world, the network and the engine):
// which world a job draws reaches no bit of the table. A nil list builds a
// world per measurement and keeps none.
type worldList struct {
	mu    sync.Mutex
	free  []*han.HAN
	built int // worlds built for the list's jobs
}

// get takes a world off the list, or builds one.
func (l *worldList) get(e Env) *han.HAN {
	if l != nil {
		l.mu.Lock()
		if n := len(l.free); n > 0 {
			h := l.free[n-1]
			l.free = l.free[:n-1]
			l.mu.Unlock()
			return h
		}
		l.built++
		l.mu.Unlock()
	}
	return e.newWorld()
}

// put resets a world whose measurement has drained and returns it to the
// list. A world that ran under a fault plan is dropped instead: a crash
// leaves records out and processes unwound in storage nobody reclaims, and a
// flap rewrites capacities.
func (l *worldList) put(e Env, h *han.HAN) {
	if l == nil || e.faulty() {
		return
	}
	h.Reset()
	if e.Seed != 0 {
		h.W.Seed(e.Seed)
	}
	l.mu.Lock()
	l.free = append(l.free, h)
	l.mu.Unlock()
}

// Entry is one lookup-table row: the best configuration for an input.
type Entry struct {
	In      Input
	Cfg     han.Config
	EstCost float64 // model-estimated or measured cost in seconds
}

// Table is the autotuner's output: best configurations per input, plus
// bookkeeping about how the search was run.
type Table struct {
	Machine string
	Method  string // "exhaustive", "task", "exhaustive+heur", "task+heur"
	// TuningCost is the total virtual machine-time spent benchmarking.
	TuningCost float64
	// Measurements counts individual benchmark runs.
	Measurements int
	Entries      []Entry

	// idx is the per-kind decision table Decide indexes. Built lazily (and
	// rebuilt when Entries grows); BuildIndex constructs it eagerly for
	// callers that will Decide from multiple goroutines.
	idx *decideIndex
}

// decideIndex tabulates Decide for every collective kind. The scan ranks
// an entry by how many powers of two its size lies from the query, so the
// query size m matters only through bits.Len(m): every m of one bit length
// has the same winner. The index captures the entry count it was built
// from; Decide rebuilds it when entries were appended since.
type decideIndex struct {
	n int
	// at[kind][b] is the winning entry index for a query of that kind whose
	// size m has bits.Len(m) == b, that is 2^(b-1) <= m < 2^b; at[kind][0]
	// answers m <= 0 (the kind's first entry, as every distance is the same
	// sentinel). at[kind] is nil for a kind with no entries.
	at [coll.Scatter + 1]*[64]int
}

// BuildIndex constructs the decision index eagerly. A table is safe for
// concurrent Decide calls only after BuildIndex (Load and RunSearch call
// it; the batch paths that mutate Entries rely on Decide's lazy rebuild
// instead).
func (t *Table) BuildIndex() {
	t.idx = t.buildIndex()
}

// EnsureIndex builds the decision index only if it is missing or stale
// (entries appended since the last build). Unlike BuildIndex it never
// rewrites a current index, so a publisher that installs one table under
// several keys can make it visible to concurrent Decide readers after the
// first call and still invoke EnsureIndex before each later install
// without racing them. Callers must serialize EnsureIndex calls.
func (t *Table) EnsureIndex() {
	if t.idx == nil || t.idx.n != len(t.Entries) {
		t.idx = t.buildIndex()
	}
}

// buildIndex fills every kind's slots with the scan's own answer for the
// smallest size of the slot, so Decide equals decideScan by construction.
func (t *Table) buildIndex() *decideIndex {
	idx := &decideIndex{n: len(t.Entries)}
	for _, e := range t.Entries {
		kind := e.In.T
		if uint(kind) >= uint(len(idx.at)) || idx.at[kind] != nil {
			continue
		}
		at := new([64]int)
		for b := range at {
			m := 0
			if b > 0 {
				m = 1 << (b - 1)
			}
			at[b] = t.scan(kind, m)
		}
		idx.at[kind] = at
	}
	return idx
}

// Decide returns the best configuration for the given kind and message
// size, choosing the entry whose sampled message size is nearest in
// log-space (the paper's step-2 interpolation). The lookup is one index
// into the kind's tabulated winners and allocates nothing; it answers
// exactly what the reference linear scan (decideScan) does, which the
// differential tests pin. A kind outside coll's six has no slot and is
// answered by the scan.
func (t *Table) Decide(kind coll.Kind, m int) han.Config {
	idx := t.idx
	if idx == nil || idx.n != len(t.Entries) {
		idx = t.buildIndex()
		t.idx = idx
	}
	if uint(kind) >= uint(len(idx.at)) {
		return t.decideScan(kind, m)
	}
	at := idx.at[kind]
	if at == nil {
		return han.DefaultDecision(kind, m)
	}
	return t.clamped(at[bits.Len(uint(max(m, 0)))], m)
}

// clamped returns entry i's configuration with the segment size clamped to
// the actual message.
func (t *Table) clamped(i, m int) han.Config {
	cfg := t.Entries[i].Cfg
	if cfg.FS > m {
		cfg.FS = m
	}
	return cfg
}

// decideScan is the reference decision rule: a linear scan of the entries.
// Decide answers with it for a kind it has no slot for, and the index is
// built from its rule (scan); TestDecideMatchesScan, TestDecideIndexRebuild
// and FuzzLoadTable hold Decide to it.
func (t *Table) decideScan(kind coll.Kind, m int) han.Config {
	best := t.scan(kind, m)
	if best == -1 {
		return han.DefaultDecision(kind, m)
	}
	return t.clamped(best, m)
}

// scan returns the index of the entry of kind nearest m by logDist, ties
// broken by the lowest entry index, or -1 when no entry has kind.
func (t *Table) scan(kind coll.Kind, m int) int {
	best := -1
	bestDist := 0.0
	for i, e := range t.Entries {
		if e.In.T != kind {
			continue
		}
		d := logDist(e.In.M, m)
		if best == -1 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// DecisionFunc adapts the table to han.DecisionFunc.
func (t *Table) DecisionFunc() han.DecisionFunc {
	return func(kind coll.Kind, m int) han.Config { return t.Decide(kind, m) }
}

// logDist is the distance the scan ranks entries by: how many powers of
// two apart a and b are (the difference of their bit lengths), or a
// sentinel larger than any such difference when either is not positive.
func logDist(a, b int) float64 {
	if a <= 0 || b <= 0 {
		return 1e18
	}
	d := bits.Len(uint(a)) - bits.Len(uint(b))
	if d < 0 {
		d = -d
	}
	return float64(d)
}

// Save writes the table as JSON.
func (t *Table) Save(path string) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("autotune: marshal table: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads a table written by Save.
func Load(path string) (*Table, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("autotune: read table: %w", err)
	}
	var t Table
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("autotune: parse table %s: %w", path, err)
	}
	for _, e := range t.Entries {
		if c := e.Cfg; c.Top != "" || c.SBMod != "" || c.Levels != "" {
			// Outside Table II: no search sets them, and hand's wire frame
			// cannot carry them, so it would serve two split levels instead.
			return nil, fmt.Errorf("autotune: table %s, entry %v: %w", path, e.In, &han.ConfigError{
				Op: "Load", Param: "top/sbmod/levels", Value: fmt.Sprintf("%q/%q/%q (no search sets them)", c.Top, c.SBMod, c.Levels)})
		}
	}
	sort.SliceStable(t.Entries, func(i, j int) bool { return t.Entries[i].In.M < t.Entries[j].In.M })
	t.BuildIndex()
	return &t, nil
}
