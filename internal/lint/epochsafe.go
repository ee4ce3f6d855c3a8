package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EpochsafeAnalyzer enforces the shrink-epoch discipline: an mpi.Comm or
// a rank-set snapshot obtained before World.Shrink describes the
// pre-failure epoch and must not be used after the shrink. The sanctioned
// pattern is to re-derive the communicator from the shrunken world (and
// compare World.DeathEpoch values to detect that an epoch has passed);
// holding a stale handle across the boundary silently addresses dead
// ranks.
//
// Each function literal is its own scope: source position does not order
// a closure's execution against its enclosing function, so a Shrink
// inside a closure says nothing about the handles the outer body touches
// later (and vice versa). Staleness is tracked only between a binding, a
// shrink, and a use that all sit in the same function body.
var EpochsafeAnalyzer = &Analyzer{
	Name: "epochsafe",
	Doc: "an mpi.Comm or rank-set snapshot obtained before World.Shrink is stale " +
		"after it; re-derive from the shrunken world and compare DeathEpoch",
	Run: runEpochsafe,
}

// rankSetMethods are the mpi.World accessors whose results snapshot the
// current epoch's membership.
var rankSetMethods = map[string]bool{
	"DeadRanks": true, "Ranks": true, "Live": true, "Alive": true, "Survivors": true,
}

func runEpochsafe(pass *Pass) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkEpochs(pass, fd.Body, fieldLists(fd))
		}
		// Function literals anywhere in the file are separate scopes.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
				var fields []*ast.Field
				if lit.Type.Params != nil {
					fields = lit.Type.Params.List
				}
				checkEpochs(pass, lit.Body, fields)
			}
			return true
		})
	}
}

// inspectScope walks body without descending into nested function
// literals — those are analyzed as their own scopes.
func inspectScope(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// epochVar tracks one epoch-bound object within a function.
type epochVar struct {
	obj     types.Object
	what    string      // "mpi.Comm" or "rank set"
	assigns []token.Pos // effective positions (End of the assignment)
	flagged map[token.Pos]bool
}

func checkEpochs(pass *Pass, body *ast.BlockStmt, fields []*ast.Field) {
	info := pass.TypesInfo

	// Pass 1: shrink boundaries and epoch-bound variables.
	var shrinks []token.Pos
	vars := map[types.Object]*epochVar{}
	lhsUse := map[token.Pos]bool{} // plain-ident assignment targets: rebindings, not uses
	track := func(obj types.Object, what string, at token.Pos) {
		if obj == nil || obj.Name() == "_" {
			return
		}
		ev := vars[obj]
		if ev == nil {
			ev = &epochVar{obj: obj, what: what, flagged: map[token.Pos]bool{}}
			vars[obj] = ev
		}
		ev.assigns = append(ev.assigns, at)
	}

	// Parameters and receivers of epoch-bound type are bound at their
	// declaration.
	for _, field := range fields {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil && isMpiComm(obj.Type()) {
				track(obj, "mpi.Comm", obj.Pos())
			}
		}
	}

	inspectScope(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if recv, m := mpiMethodCall(info, v); recv != "" && m == "Shrink" {
				shrinks = append(shrinks, v.Pos())
			}
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					lhsUse[id.Pos()] = true
				}
				obj := lhsObj(info, lhs)
				if obj == nil {
					continue
				}
				var rhs ast.Expr
				if i < len(v.Rhs) {
					rhs = v.Rhs[i]
				} else if len(v.Rhs) == 1 {
					rhs = v.Rhs[0]
				}
				switch {
				case isMpiComm(obj.Type()):
					track(obj, "mpi.Comm", v.End())
				case rhs != nil && isRankSetCall(info, rhs):
					track(obj, "rank set", v.End())
				}
			}
		case *ast.ValueSpec:
			for i, name := range v.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				if isMpiComm(obj.Type()) {
					track(obj, "mpi.Comm", v.End())
				} else if i < len(v.Values) && isRankSetCall(info, v.Values[i]) {
					track(obj, "rank set", v.End())
				}
			}
		}
		return true
	})
	if len(shrinks) == 0 || len(vars) == 0 {
		return
	}

	// Pass 2: uses that cross a shrink boundary. A use is stale when some
	// shrink sits between the variable's last (re)binding and the use.
	inspectScope(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		ev := vars[obj]
		if ev == nil || lhsUse[id.Pos()] {
			return true
		}
		use := id.Pos()
		last := token.NoPos
		for _, a := range ev.assigns {
			if a <= use && a > last {
				last = a
			}
		}
		if last == token.NoPos {
			return true
		}
		for _, s := range shrinks {
			if last < s && s < use && !ev.flagged[use] {
				ev.flagged[use] = true
				pass.Reportf(use,
					"%s %q was obtained before World.Shrink and is stale in the new epoch; "+
						"re-derive it from the shrunken world (guard with DeathEpoch)",
					ev.what, obj.Name())
				break
			}
		}
		return true
	})
}

// fieldLists yields the receiver and parameter fields of a declaration.
func fieldLists(fd *ast.FuncDecl) []*ast.Field {
	var out []*ast.Field
	if fd.Recv != nil {
		out = append(out, fd.Recv.List...)
	}
	if fd.Type.Params != nil {
		out = append(out, fd.Type.Params.List...)
	}
	return out
}

// lhsObj resolves an assignment target to its object when the target is a
// plain identifier (field or element writes rebind nothing).
func lhsObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// isMpiComm reports whether t is (a pointer to) the mpi package's Comm.
func isMpiComm(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Comm" && mpiPkgPath(named.Obj().Pkg().Path())
}

// isRankSetCall reports whether e snapshots epoch membership: a call to a
// rank-set method on an mpi receiver.
func isRankSetCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	recv, m := mpiMethodCall(info, call)
	return recv != "" && rankSetMethods[m]
}

// mpiMethodCall resolves a method call on a value of a type declared in
// internal/mpi, returning the receiver type name and the method name.
func mpiMethodCall(info *types.Info, call *ast.CallExpr) (recvType, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", ""
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !mpiPkgPath(named.Obj().Pkg().Path()) {
		return "", ""
	}
	return named.Obj().Name(), sel.Sel.Name
}

func mpiPkgPath(path string) bool {
	return isPkg(path, "internal/mpi")
}
