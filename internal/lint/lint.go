// Package lint implements hanlint: a suite of static analyzers that
// mechanically enforce the repository's simulation-determinism, request
// hygiene, and typed-error invariants across internal/....
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Diagnostic) so the passes can migrate to the upstream
// framework verbatim if the dependency ever becomes available; everything
// here is built on the standard library only (go/ast, go/parser, go/types).
//
// Violations are suppressed with an annotation on the offending line or
// the line directly above it:
//
//	//hanlint:allow <pass> <reason>
//
// The reason is mandatory: an allow annotation is a reviewed debt marker,
// not an off switch. Stale annotations (ones that no longer suppress
// anything) are themselves reported, so the burn-down list shrinks
// monotonically.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant pass.
type Analyzer struct {
	// Name is the pass name used in diagnostics and allow annotations.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// AppliesTo reports whether the pass runs on the package with the
	// given import path. A nil AppliesTo means the pass runs everywhere.
	AppliesTo func(pkgPath string) bool
	// UsesFacts marks an interprocedural pass: its Run consumes the facts
	// its dependencies exported (Pass.DepFacts) and exports this package's
	// own facts (Pass.ExportFact). Drivers must run fact passes over
	// dependency packages first — hanlint walks `go list -test -deps`
	// output, which lists dependencies before dependents.
	UsesFacts bool
	// Run inspects one type-checked package and reports violations.
	Run func(*Pass)
}

// Facts is one package's serialized interprocedural output, keyed by
// analyzer name. The blobs are opaque to the driver layer (detflow uses
// JSON-encoded function summaries), which keeps them in memory and hands
// each package the facts of the packages it imports.
type Facts map[string][]byte

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// DepFacts holds the facts exported by already-analyzed dependencies,
	// keyed by the driver's package ID. Missing entries (stdlib, packages outside the
	// analyzed set) are normal; fact passes must degrade gracefully to
	// their intrinsic models.
	DepFacts map[string]Facts

	// Cache lets the analyzers of one RunAnalyzers invocation share
	// expensive computed state (the detflow taint analysis is consumed by
	// both the detflow and maporder passes).
	Cache *Cache

	diags *[]Diagnostic
	facts Facts
}

// ExportFact records this package's serialized facts for the running
// analyzer, to be offered as DepFacts to dependents.
func (p *Pass) ExportFact(blob []byte) {
	p.facts[p.Analyzer.Name] = blob
}

// Cache is a string-keyed scratch space shared by the analyzers of one
// RunAnalyzers call.
type Cache struct{ m map[string]interface{} }

// Get returns the cached value under key, if any.
func (c *Cache) Get(key string) (interface{}, bool) {
	v, ok := c.m[key]
	return v, ok
}

// Put stores v under key.
func (c *Cache) Put(key string, v interface{}) { c.m[key] = v }

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pass:    p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation, already positioned.
type Diagnostic struct {
	Pass    string
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Pass, d.Message)
}

// All returns the full hanlint suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		DetflowAnalyzer,
		EpochsafeAnalyzer,
		FenceAnalyzer,
		MaporderAnalyzer,
		MetriclabelAnalyzer,
		ReqwaitAnalyzer,
		TypederrAnalyzer,
	}
}

// ByName resolves a comma-free pass name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers runs the given analyzers over one loaded package, applies
// the //hanlint:allow annotations, and returns the surviving diagnostics
// sorted by position. Stale or malformed annotations are returned as
// diagnostics of the synthetic pass "allow". Interprocedural passes run
// without dependency facts; use RunAnalyzersFacts to thread them.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunAnalyzersFacts(pkg, analyzers, nil)
	return diags
}

// RunAnalyzersFacts is RunAnalyzers with the interprocedural facts layer:
// deps maps each dependency import path to the facts its own analysis
// exported, and the returned Facts carry this package's exports for its
// dependents.
func RunAnalyzersFacts(pkg *Package, analyzers []*Analyzer, deps map[string]Facts) ([]Diagnostic, Facts) {
	var raw []Diagnostic
	out := make(Facts)
	cache := &Cache{m: make(map[string]interface{})}
	for _, a := range analyzers {
		// Fact passes run even where AppliesTo declines diagnostics: their
		// summaries must exist for dependents. The pass itself checks
		// AppliesTo before reporting.
		if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) && !a.UsesFacts {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			DepFacts:  deps,
			Cache:     cache,
			diags:     &raw,
			facts:     out,
		}
		a.Run(pass)
	}
	allows, bad := collectAllows(pkg, analyzers)
	kept := raw[:0]
	for _, d := range raw {
		if al := allows.match(d); al != nil {
			al.used = true
			continue
		}
		kept = append(kept, d)
	}
	kept = append(kept, bad...)
	for _, al := range allows.all {
		if !al.used {
			kept = append(kept, Diagnostic{
				Pass: "allow",
				Pos:  al.pos,
				Message: fmt.Sprintf(
					"stale //hanlint:allow %s annotation: it suppresses nothing; delete it", al.pass),
			})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	// A statement nested in two order-sensitive constructs (e.g. an append
	// inside two stacked map-range loops) is reported once per construct;
	// collapse the identical reports.
	dedup := kept[:0]
	for i, d := range kept {
		if i > 0 && d == kept[i-1] {
			continue
		}
		dedup = append(dedup, d)
	}
	return dedup, out
}
