package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/hanrepro/han/internal/lint/detflow"
)

// MaporderAnalyzer flags range loops over maps whose bodies do
// order-sensitive work: Go randomizes map iteration order per run, so a
// body that emits simulation events, appends to a result slice, or
// accumulates floating-point values silently breaks byte-identical
// replay. The classic fix — collect keys, sort, iterate the sorted
// slice — stays clean: an appended slice that is sorted later in the same
// function is not reported.
var MaporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc: "flag map iteration that emits events, builds result slices, or accumulates " +
		"floats: map order is randomized per run and breaks deterministic replay",
	Run: runMaporder,
}

func runMaporder(pass *Pass) {
	for _, f := range pass.Files {
		for _, fb := range funcBodies(f) {
			checkMapRanges(pass, fb.body)
		}
	}
}

func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, body, rng)
		return true
	})
}

func checkMapRangeBody(pass *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	info := pass.TypesInfo
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			switch v.Tok {
			case token.ASSIGN, token.DEFINE:
				for i, rhs := range v.Rhs {
					if i >= len(v.Lhs) {
						break
					}
					if call, ok := rhs.(*ast.CallExpr); ok && isAppendCall(info, call) {
						if obj := outerObj(info, v.Lhs[i], rng); obj != nil &&
							!sortedAfter(info, fnBody, rng, obj) {
							pass.Reportf(v.Pos(),
								"append to %q inside a map-range loop builds a slice in "+
									"randomized map order; collect keys and sort, or sort %q "+
									"before it is used", obj.Name(), obj.Name())
						}
					}
					if selfAccumFloat(info, v.Tok, v.Lhs[i], rhs) {
						if obj := outerObj(info, v.Lhs[i], rng); obj != nil {
							pass.Reportf(v.Pos(),
								"floating-point accumulation into %q inside a map-range loop "+
									"is order-sensitive; iterate a sorted key slice", obj.Name())
						}
					}
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				lhs := v.Lhs[0]
				if t := info.TypeOf(lhs); t != nil && isFloat(t) {
					if obj := outerObj(info, lhs, rng); obj != nil {
						pass.Reportf(v.Pos(),
							"floating-point accumulation into %q inside a map-range loop "+
								"is order-sensitive; iterate a sorted key slice", obj.Name())
					}
				}
			}
		case *ast.CallExpr:
			if recvPkg, method := methodCallOn(info, v); simSidePkg(recvPkg) {
				pass.Reportf(v.Pos(),
					"%s call inside a map-range loop emits simulation events in randomized "+
						"map order; iterate a sorted key slice", method)
			}
		}
		return true
	})
}

// isAppendCall reports whether call invokes the append builtin.
func isAppendCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// outerObj returns the object at the root of lvalue e when that object is
// declared outside the range statement (loop-local state cannot leak
// order), or nil.
func outerObj(info *types.Info, e ast.Expr, rng *ast.RangeStmt) types.Object {
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil || declaredWithin(obj, rng) {
		return nil
	}
	return obj
}

// selfAccumFloat recognizes the `x = x + v` spelling of float
// accumulation for a plain identifier x.
func selfAccumFloat(info *types.Info, tok token.Token, lhs, rhs ast.Expr) bool {
	if tok != token.ASSIGN {
		return false
	}
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return false
	}
	t := info.TypeOf(lhs)
	if t == nil || !isFloat(t) {
		return false
	}
	bin, ok := rhs.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	found := false
	ast.Inspect(bin, func(n ast.Node) bool {
		if u, ok := n.(*ast.Ident); ok && info.Uses[u] == obj && obj != nil {
			found = true
		}
		return !found
	})
	return found
}

// sortedAfter reports whether obj is passed to a sort.* or slices.Sort*
// call after the range loop within the same function body — the
// collect-then-sort idiom.
func sortedAfter(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		if !detflow.IsSortCall(pkgFuncCall(info, call)) {
			return true
		}
		if id := rootIdent(call.Args[0]); id != nil && (info.Uses[id] == obj) {
			sorted = true
		}
		return true
	})
	return sorted
}
