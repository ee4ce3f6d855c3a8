package lint

import (
	"go/ast"
	"go/types"
)

// ArenaallocAnalyzer protects the arena ownership discipline introduced
// with the pooled hot path: types whose lifecycle is managed by an
// internal/arena pool (flow.Flow, mpi.Request) must be obtained from
// their owning package's constructors — Network.StartOn, Comm.Isend/Irecv,
// mpi.NewRequest — never built raw with a composite literal, new(), or a
// zero-value var in another package. A raw instance bypasses the pool's
// Init hook (its persistent closures and slot back-pointer are nil) and
// can alias a recycled slot's state; the debug generation checks only
// cover handles the pool itself issued.
//
// The owning package is exempt: constructors and pool Init/Reset hooks
// are exactly the raw-construction sites the discipline channels
// everything through. (The unexported pooled records, mpi.sendOp and
// mpi.recvReq, are protected by the compiler already.) Deliberate
// exceptions carry //hanlint:allow arenaalloc annotations.
var ArenaallocAnalyzer = &Analyzer{
	Name: "arenaalloc",
	Doc: "forbid raw construction (composite literal, new, zero-value var) of " +
		"arena-managed types (flow.Flow, mpi.Request) outside their owning package; " +
		"use the owning constructors so instances come from the pool",
	Run: runArenaalloc,
}

// arenaManaged lists the pool-managed types by owning-package path
// suffix.
var arenaManaged = []struct {
	ownerSuffix string
	typeName    string
}{
	{"internal/flow", "Flow"},
	{"internal/mpi", "Request"},
}

// managedOwner returns the owning-path suffix if t (after stripping
// pointers) is an arena-managed named type, and whether pkg is a package
// other than the owner.
func managedForeign(pkg *types.Package, t types.Type) (string, bool) {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	owner := named.Obj().Pkg().Path()
	for _, m := range arenaManaged {
		if !isPkg(owner, m.ownerSuffix) {
			continue
		}
		if named.Obj().Name() == m.typeName {
			return m.ownerSuffix, pkg.Path() != owner
		}
	}
	return "", false
}

func runArenaalloc(pass *Pass) {
	report := func(n ast.Node, what string, t types.Type) {
		pass.Reportf(n.Pos(),
			"%s of arena-managed type %s outside its owning package; "+
				"obtain instances from the owning constructor so they come from the pool",
			what, types.TypeString(t, func(p *types.Package) string { return p.Name() }))
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CompositeLit:
				if t, ok := pass.TypesInfo.Types[v]; ok {
					if _, foreign := managedForeign(pass.Pkg, t.Type); foreign {
						report(v, "composite literal", t.Type)
					}
				}
			case *ast.CallExpr:
				id, ok := v.Fun.(*ast.Ident)
				if !ok || id.Name != "new" || len(v.Args) != 1 {
					return true
				}
				if obj := pass.TypesInfo.Uses[id]; obj != nil && obj.Pkg() != nil {
					return true // shadowed: a user-defined new function
				}
				if t, ok := pass.TypesInfo.Types[v.Args[0]]; ok && t.IsType() {
					if _, foreign := managedForeign(pass.Pkg, t.Type); foreign {
						report(v, "new()", t.Type)
					}
				}
			case *ast.ValueSpec:
				// `var f flow.Flow` mints an uninitialised value just like a
				// literal would. Pointer declarations are fine: they hold
				// instances, they don't create them.
				if v.Type == nil {
					return true
				}
				if _, isPtr := pass.TypesInfo.Types[v.Type].Type.(*types.Pointer); isPtr {
					return true
				}
				if t, ok := pass.TypesInfo.Types[v.Type]; ok {
					if _, foreign := managedForeign(pass.Pkg, t.Type); foreign {
						report(v, "zero-value var", t.Type)
					}
				}
			}
			return true
		})
	}
}
