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

	// idx is the per-kind decision index Decide binary-searches. Built
	// lazily (and rebuilt when Entries grows); BuildIndex constructs it
	// eagerly for callers that will Decide from multiple goroutines.
	idx *decideIndex
}

// decideIndex precomputes, per collective kind, the sorted log2 boundaries
// of the table's sampled message sizes, so Decide can binary-search the
// nearest sample instead of scanning every entry. The index captures the
// entry count it was built from; Decide rebuilds it when entries were
// appended since.
type decideIndex struct {
	n     int
	kinds map[coll.Kind]*kindIndex
}

// kindIndex indexes the entries of one collective kind. Distances in
// Decide depend only on the bit length of the sampled size, so entries
// collapse onto their bit-length class; firstAt keeps the lowest entry
// index per class, which is exactly the entry the reference scan's
// first-strict-winner rule would pick.
type kindIndex struct {
	bls      []int // sorted unique bit lengths of entries with M > 0
	firstAt  []int // firstAt[i]: lowest entry index whose bit length is bls[i]
	firstAny int   // lowest entry index of this kind (degenerate fallback)
}

// BuildIndex constructs the decision index eagerly. A table is safe for
// concurrent Decide calls only after BuildIndex (Load calls it; the batch
// paths that mutate Entries rely on Decide's lazy rebuild instead).
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

func (t *Table) buildIndex() *decideIndex {
	idx := &decideIndex{n: len(t.Entries), kinds: make(map[coll.Kind]*kindIndex)}
	for i, e := range t.Entries {
		ki := idx.kinds[e.In.T]
		if ki == nil {
			ki = &kindIndex{firstAny: i}
			idx.kinds[e.In.T] = ki
		}
		if e.In.M <= 0 {
			continue // infinite distance to every query; firstAny covers it
		}
		bl := bitLen(e.In.M)
		pos := sort.SearchInts(ki.bls, bl)
		if pos < len(ki.bls) && ki.bls[pos] == bl {
			continue // a lower entry index already owns this class
		}
		ki.bls = append(ki.bls, 0)
		copy(ki.bls[pos+1:], ki.bls[pos:])
		ki.bls[pos] = bl
		ki.firstAt = append(ki.firstAt, 0)
		copy(ki.firstAt[pos+1:], ki.firstAt[pos:])
		ki.firstAt[pos] = i
	}
	return idx
}

// Decide returns the best configuration for the given kind and message
// size, choosing the entry whose sampled message size is nearest in
// log-space (the paper's step-2 interpolation). The lookup binary-searches
// a per-kind index of sampled-size boundaries and allocates nothing on the
// hot path; it is byte-for-byte equivalent to the reference linear scan
// (decideScan), which the differential tests pin.
func (t *Table) Decide(kind coll.Kind, m int) han.Config {
	idx := t.idx
	if idx == nil || idx.n != len(t.Entries) {
		idx = t.buildIndex()
		t.idx = idx
	}
	ki := idx.kinds[kind]
	if ki == nil {
		return han.DefaultDecision(kind, m)
	}
	best := ki.lookup(m)
	cfg := t.Entries[best].Cfg
	// Clamp the segment size to the actual message.
	if cfg.FS > m {
		cfg.FS = m
	}
	return cfg
}

// lookup returns the winning entry index for a query of m bytes,
// replicating the scan's selection rule: minimal |log2 m - log2 M|, ties
// broken by the lowest entry index.
func (ki *kindIndex) lookup(m int) int {
	if m <= 0 || len(ki.bls) == 0 {
		// Every distance is the same sentinel; the scan keeps the first
		// entry of the kind.
		return ki.firstAny
	}
	bl := bitLen(m)
	// Hand-rolled lower bound: sort.SearchInts would pass a closure to
	// sort.Search, and the hot path pins 0 allocs/op.
	lo, hi := 0, len(ki.bls)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ki.bls[mid] < bl {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pos := lo
	if pos < len(ki.bls) && ki.bls[pos] == bl {
		return ki.firstAt[pos] // exact class: distance 0, unbeatable
	}
	switch {
	case pos == 0:
		return ki.firstAt[0]
	case pos == len(ki.bls):
		return ki.firstAt[pos-1]
	}
	dlo := bl - ki.bls[pos-1]
	dhi := ki.bls[pos] - bl
	switch {
	case dlo < dhi:
		return ki.firstAt[pos-1]
	case dhi < dlo:
		return ki.firstAt[pos]
	}
	// Equidistant classes: the scan saw whichever entry came first.
	if ki.firstAt[pos-1] < ki.firstAt[pos] {
		return ki.firstAt[pos-1]
	}
	return ki.firstAt[pos]
}

// bitLen is floor(log2 v) for v >= 1 — the shift count logDist compares.
func bitLen(v int) int {
	n := 0
	for ; v > 1; v >>= 1 {
		n++
	}
	return n
}

// decideScan is the reference decision rule: the linear entry scan the
// binary-search index replaced. It is kept as the oracle for the
// differential tests (the same pattern as flow's reference allocator and
// arena's reference pools).
func (t *Table) decideScan(kind coll.Kind, m int) han.Config {
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
	if best == -1 {
		return han.DefaultDecision(kind, m)
	}
	cfg := t.Entries[best].Cfg
	if cfg.FS > m {
		cfg.FS = m
	}
	return cfg
}

// DecisionFunc adapts the table to han.DecisionFunc.
func (t *Table) DecisionFunc() han.DecisionFunc {
	return func(kind coll.Kind, m int) han.Config { return t.Decide(kind, m) }
}

func logDist(a, b int) float64 {
	if a <= 0 || b <= 0 {
		return 1e18
	}
	la, lb := float64(0), float64(0)
	for v := a; v > 1; v >>= 1 {
		la++
	}
	for v := b; v > 1; v >>= 1 {
		lb++
	}
	if la > lb {
		return la - lb
	}
	return lb - la
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
