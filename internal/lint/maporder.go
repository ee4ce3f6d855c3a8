package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/hanrepro/han/internal/lint/detflow"
)

// MaporderAnalyzer flags range loops whose element order changes from run
// to run and whose bodies do order-sensitive work, which silently breaks
// byte-identical replay. Two kinds of range qualify:
//
//   - a map, whose iteration order Go randomizes per run: its body may not
//     emit simulation events, append to an outer slice, or accumulate
//     floats. The classic fix — collect keys, sort, iterate the sorted
//     slice — stays clean: an appended slice that is sorted later in the
//     same function is not reported.
//   - a collection detflow's interprocedural taint marks order-tainted
//     (built under map iteration in another function, sorted by pointer
//     identity, ...): its body may not accumulate floats, because float
//     addition is not associative. This half runs where a last-bit
//     difference flips argmin decisions, the score and cost arithmetic of
//     autotune and bench; elsewhere detflow's taint of a map range's value
//     variable (a slice stored in the map, say) would flag sums that are
//     deterministic.
var MaporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc: "flag map iteration that emits events, builds result slices, or accumulates " +
		"floats, and (in autotune and bench) float accumulation over a collection whose " +
		"element order detflow marks nondeterministic: either order varies per run and " +
		"breaks deterministic replay",
	Run: runMaporder,
}

// orderTaintPkgs scope the order-tainted half; "floatorder" is its fixture.
var orderTaintPkgs = []string{"internal/autotune", "internal/bench", "floatorder"}

func runMaporder(pass *Pass) {
	var tainted map[*ast.RangeStmt][]detflow.Taint
	if isPkgIn(pass.Pkg.Path(), orderTaintPkgs) {
		tainted = detflowResult(pass).RangeTaint
	}
	for _, f := range pass.Files {
		for _, fb := range funcBodies(f) {
			ast.Inspect(fb.body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if tv, ok := pass.TypesInfo.Types[rng.X]; ok && tv.Type != nil {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						checkRangeBody(pass, fb.body, rng, "")
						return true
					}
				}
				for _, t := range tainted[rng] {
					if t.Kind == detflow.Order {
						checkRangeBody(pass, fb.body, rng, t.Source)
						break
					}
				}
				return true
			})
		}
	}
}

// checkRangeBody reports the order-sensitive work in rng's body. source
// names the order taint of a non-map range; it is empty for a map range,
// which is also checked for appends and simulation events.
func checkRangeBody(pass *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, source string) {
	info := pass.TypesInfo
	floatAccum := func(as *ast.AssignStmt, lhs ast.Expr) {
		obj := outerObj(info, lhs, rng)
		switch {
		case obj == nil:
		case source == "":
			pass.Reportf(as.Pos(),
				"floating-point accumulation into %q inside a map-range loop "+
					"is order-sensitive; iterate a sorted key slice", obj.Name())
		default:
			pass.Reportf(as.Pos(),
				"floating-point accumulation into %q over a collection whose order is "+
					"nondeterministic (%s); float addition is not associative — sort first "+
					"or fold in canonical index order", obj.Name(), source)
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			switch v.Tok {
			case token.ASSIGN, token.DEFINE:
				for i, rhs := range v.Rhs {
					if i >= len(v.Lhs) {
						break
					}
					if call, ok := rhs.(*ast.CallExpr); ok && source == "" && isAppendCall(info, call) {
						if obj := outerObj(info, v.Lhs[i], rng); obj != nil &&
							!sortedAfter(info, fnBody, rng, obj) {
							pass.Reportf(v.Pos(),
								"append to %q inside a map-range loop builds a slice in "+
									"randomized map order; collect keys and sort, or sort %q "+
									"before it is used", obj.Name(), obj.Name())
						}
					}
					if selfAccumFloat(info, v.Tok, v.Lhs[i], rhs) {
						floatAccum(v, v.Lhs[i])
					}
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if t := info.TypeOf(v.Lhs[0]); t != nil && isFloat(t) {
					floatAccum(v, v.Lhs[0])
				}
			}
		case *ast.CallExpr:
			if recvPkg, method := methodCallOn(info, v); source == "" && isPkgIn(recvPkg, simSidePkgs) {
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
