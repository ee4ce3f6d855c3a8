// Package detflow implements hanlint's whole-program determinism taint
// analysis: it tracks nondeterministic values (wall-clock reads, global
// RNG draws, pointer identity) and nondeterministic orderings (map
// iteration, unordered select arms, pointer-identity sorts, shared
// mutation from exec worker closures) interprocedurally, from the
// expression that produced them to the simulation-side call that consumes
// them, and reports the full source→sink call path.
//
// The upstream shape of this analysis would sit on golang.org/x/tools/go/ssa
// with a CHA call graph and analysis facts; that module is not vendored
// here, so — like the rest of internal/lint, which mirrors the x/tools
// analysis API on the standard library — detflow runs the same
// summary-based algorithm over the type-checked AST:
//
//   - Per function, a monotone taint environment (types.Object → taint
//     set) is iterated to a fixed point over the body in source order.
//     Taint propagates through assignments, composite literals, struct
//     fields (field-insensitively: a tainted field taints the object),
//     conversions, closures (a closure value carries the taint of its
//     captured variables), and calls.
//   - Per function, a Summary records which results are tainted
//     unconditionally, which argument positions flow to which results,
//     and which argument positions reach a sink inside the callee. Call
//     sites apply callee summaries, so taint crosses any number of
//     frames; summaries of dependency packages arrive as facts (JSON
//     blobs riding the go vet .vetx protocol, or an in-memory store in
//     standalone mode).
//   - Calls through interfaces resolve with class-hierarchy analysis
//     (CHA): every named type in the package universe whose method set
//     implements the interface contributes its method's summary.
//
// Order taint is killed by sorting (sort.* / slices.Sort*), the
// collect-then-sort idiom — unless the sort's comparison itself reads
// pointer identity, which instead makes the sorted slice order-tainted.
// The kill is position-approximate (a later use of a sorted slice is
// considered clean), which is the right bias for a linter.
package detflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Kind classifies what about a value is nondeterministic.
type Kind uint8

const (
	// Value means the value itself differs between replays (wall-clock
	// time, a global RNG draw, pointer identity, racy shared mutation).
	Value Kind = iota + 1
	// Order means the value is a collection whose element order differs
	// between replays (built under map iteration, pointer-identity
	// sorting). Sorting with a deterministic comparison cleanses it.
	Order
)

func (k Kind) String() string {
	if k == Order {
		return "ordering"
	}
	return "value"
}

// Taint is one nondeterminism witness attached to a value.
type Taint struct {
	Kind   Kind     `json:"k"`
	Source string   `json:"s"`             // e.g. "time.Now", "map iteration order"
	At     string   `json:"at,omitempty"`  // source position, file:line
	Via    []string `json:"via,omitempty"` // call chain toward the source: Via[0] is the immediate callee, the last element is the function containing the source
}

func (t Taint) key() string {
	return fmt.Sprintf("%d|%s|%s|%s", t.Kind, t.Source, t.At, strings.Join(t.Via, "→"))
}

// SinkRef records that an argument position of a summarized function
// reaches a sink somewhere below it.
type SinkRef struct {
	Sink string   `json:"sink"`          // sink description, e.g. "sim engine event time"
	Via  []string `json:"via,omitempty"` // call chain toward the sink, the sink call last
}

// Summary is the interprocedural model of one function. Argument indexes
// are 1-based; index 0 is the method receiver.
type Summary struct {
	// Results maps result index (0-based) to taints present on that
	// result regardless of the arguments.
	Results map[int][]Taint `json:"results,omitempty"`
	// Flows maps argument index to the result indexes its taint reaches.
	Flows map[int][]int `json:"flows,omitempty"`
	// Sinks maps argument index to the sinks it reaches inside.
	Sinks map[int][]SinkRef `json:"sinks,omitempty"`
}

func (s *Summary) empty() bool {
	return s == nil || (len(s.Results) == 0 && len(s.Flows) == 0 && len(s.Sinks) == 0)
}

// Diag is one source→sink finding, positioned at the sink call.
type Diag struct {
	Pos     token.Pos
	Message string
}

// Result is the analysis output for one package.
type Result struct {
	// Summaries holds this package's function summaries, keyed
	// "pkgpath.Func" / "pkgpath.(Recv).Method".
	Summaries map[string]*Summary
	// Diags are the source→sink findings.
	Diags []Diag
	// RangeTaint records, for every range statement, the taint of the
	// ranged-over operand — the floatorder pass consumes it.
	RangeTaint map[*ast.RangeStmt][]Taint
}

// Config is the analysis input for one package.
type Config struct {
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	PkgPath string // import path used in summary keys and diagnostics
	// Deps holds the merged summaries of dependency packages, keyed like
	// Result.Summaries. Missing callees fall back to the intrinsic model.
	Deps map[string]*Summary
}

// Analyze runs the taint analysis over one package. Function summaries
// are iterated to a package-level fixed point so intra-package call
// cycles converge; diagnostics are collected on the final pass.
func Analyze(cfg *Config) *Result {
	res := &Result{
		Summaries:  make(map[string]*Summary),
		RangeTaint: make(map[*ast.RangeStmt][]Taint),
	}
	if cfg.Info == nil || cfg.Pkg == nil {
		return res
	}
	an := &analyzer{
		cfg:   cfg,
		res:   res,
		sums:  make(map[string]*Summary, len(cfg.Deps)),
		seen:  make(map[string]bool),
		impls: make(map[*types.Interface][]*types.Named),
	}
	for k, s := range cfg.Deps {
		an.sums[k] = s
	}
	an.buildUniverse()

	fns := an.collectFuncs()
	// Package-level fixed point: summaries start empty and grow until
	// stable, so mutually recursive helpers converge. The iteration cap
	// bounds pathological cycles; monotone growth makes reaching it
	// harmless (the summary is merely less complete).
	for iter := 0; iter < 8; iter++ {
		changed := false
		for _, fn := range fns {
			if an.analyzeFunc(fn, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Final reporting pass with converged summaries.
	for _, fn := range fns {
		an.analyzeFunc(fn, true)
	}
	sort.Slice(res.Diags, func(i, j int) bool {
		if res.Diags[i].Pos != res.Diags[j].Pos {
			return res.Diags[i].Pos < res.Diags[j].Pos
		}
		return res.Diags[i].Message < res.Diags[j].Message
	})
	return res
}

// funcKey builds the summary key for a declared function or method.
func funcKey(pkgPath string, fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name := "?"
		switch tt := t.(type) {
		case *types.Named:
			name = tt.Obj().Name()
		case *types.Interface:
			return "" // interface methods have no body to summarize
		}
		return pkgPath + ".(" + name + ")." + fn.Name()
	}
	return pkgPath + "." + fn.Name()
}

// shortName renders a callee for path reporting: Pkg.Func or
// (Recv).Method.
func shortName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return "(" + n.Obj().Name() + ")." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
