package lint

import (
	"go/ast"
	"strings"
)

// TypederrAnalyzer forbids panics on the public entry points of the
// collective frameworks (internal/han, internal/coll). PR 2 established
// the discipline: recoverable conditions surface as typed errors
// (*HierarchyError, *BufferSizeError, *ConfigError, *FallbackError) so an
// application mistake degrades or reports instead of killing the whole
// simulation. Exported functions and methods are the contract surface;
// panics behind them (unexported helpers asserting invariants already
// validated at the entry point) remain legitimate. Pre-existing public
// panics carry //hanlint:allow typederr burn-down annotations.
var TypederrAnalyzer = &Analyzer{
	Name: "typederr",
	Doc: "forbid panic on exported entry points of internal/han and internal/coll; " +
		"return typed errors (*HierarchyError, *BufferSizeError, *ConfigError, ...)",
	AppliesTo: typederrApplies,
	Run:       runTypederr,
}

func typederrApplies(pkgPath string) bool {
	for _, suf := range []string{"internal/han", "internal/coll"} {
		if isPkg(pkgPath, suf) {
			return true
		}
	}
	// Fixture packages opt in by name so the pass is testable.
	return strings.HasPrefix(pathBase(pkgPath), "typederr")
}

func pathBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

func runTypederr(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "panic" {
					return true
				}
				if obj := pass.TypesInfo.Uses[id]; obj != nil && obj.Pkg() != nil {
					return true // shadowed: a user-defined panic function
				}
				pass.Reportf(call.Pos(),
					"panic on public entry point %s; return a typed error "+
						"(*HierarchyError, *BufferSizeError, *ConfigError) or fall back, "+
						"per the PR 2 error discipline", fd.Name.Name)
				return true
			})
		}
	}
}
