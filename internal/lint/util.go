package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// pkgFuncCall resolves a call to a package-level function and returns the
// package path and function name ("", "" when the callee is anything
// else: a method, a local func value, a conversion, a builtin).
func pkgFuncCall(info *types.Info, call *ast.CallExpr) (pkgPath, fn string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// methodCallOn resolves a method call and returns the method name plus the
// package path of the receiver's named type ("", "" for non-method calls
// or receivers without a named type).
func methodCallOn(info *types.Info, call *ast.CallExpr) (recvPkg, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", ""
	}
	t := s.Recv()
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path(), sel.Sel.Name
}

// isPkg reports whether path is the package suffix itself (a fixture
// path) or a module path ending in it.
func isPkg(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// simSidePkg reports whether path names one of the packages whose methods
// schedule simulation events or traffic: iterating a map while calling
// into them replays in a different order run to run.
func simSidePkg(path string) bool {
	for _, suf := range []string{
		"internal/sim", "internal/mpi", "internal/trace", "internal/flow", "internal/fault",
	} {
		if isPkg(path, suf) {
			return true
		}
	}
	return false
}

// rootIdent walks to the base identifier of an lvalue chain
// (x, x.f, x[i].f, ...), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != 0 &&
		obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// isFloat reports whether t's underlying type is a floating-point (or
// complex) type, the kinds whose accumulation is order-sensitive.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// funcBodies returns the outermost function bodies of the file: FuncDecl
// bodies plus FuncLits that sit outside any FuncDecl (package-level var
// initializers). Nested closures are reached by walking the outer body,
// so every statement is visited exactly once.
func funcBodies(f *ast.File) []funcBody {
	var out []funcBody
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncDecl:
			if v.Body != nil {
				out = append(out, funcBody{decl: v, body: v.Body})
			}
			return false
		case *ast.FuncLit:
			out = append(out, funcBody{body: v.Body})
			return false
		}
		return true
	})
	return out
}

type funcBody struct {
	decl *ast.FuncDecl // nil for func literals
	body *ast.BlockStmt
}

// innermostBlock returns the smallest *ast.BlockStmt within root that
// contains pos, or nil. Linear scan — fine at lint scale.
func innermostBlock(root ast.Node, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(root, func(n ast.Node) bool {
		b, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		if pos < b.Pos() || pos >= b.End() {
			return false
		}
		if best == nil || (b.End()-b.Pos()) < (best.End()-best.Pos()) {
			best = b
		}
		return true
	})
	return best
}
