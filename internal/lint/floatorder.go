package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatorderAnalyzer extends maporder's float-accumulation check with
// detflow's interprocedural order taint: summing float64s over a slice
// whose *order* is nondeterministic (built under map iteration in some
// other function, sorted by pointer identity, ...) is just as
// replay-breaking as summing over the map directly, because float
// addition is not associative. It applies to the packages that do the
// repository's score/cost arithmetic — autotune and bench — where a
// last-bit difference flips argmin decisions.
var FloatorderAnalyzer = &Analyzer{
	Name: "floatorder",
	Doc: "non-associative float accumulation over a collection with nondeterministic " +
		"element order (per detflow's interprocedural order taint) in autotune/bench; " +
		"sort the collection or accumulate in a canonical order",
	AppliesTo: floatorderApplies,
	Run:       runFloatorder,
}

func floatorderApplies(pkgPath string) bool {
	for _, suffix := range []string{"internal/autotune", "internal/bench"} {
		if isPkg(pkgPath, suffix) {
			return true
		}
	}
	return pkgPath == "floatorder" // fixture
}

func runFloatorder(pass *Pass) {
	res := detflowResult(pass)
	info := pass.TypesInfo
	for rng, taints := range res.RangeTaint {
		// Direct map ranges are maporder's territory; floatorder owns
		// ranges whose operand *arrived* order-tainted.
		if tv, ok := info.Types[rng.X]; ok && tv.Type != nil {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				continue
			}
		}
		source := ""
		for _, t := range taints {
			if t.Kind.String() == "ordering" {
				source = t.Source
				break
			}
		}
		if source == "" {
			continue
		}
		reportFloatAccums(pass, rng, source)
	}
}

// reportFloatAccums flags the float accumulations inside the body of an
// order-tainted range.
func reportFloatAccums(pass *Pass, rng *ast.RangeStmt, source string) {
	info := pass.TypesInfo
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			lhs := as.Lhs[0]
			if t := info.TypeOf(lhs); t != nil && isFloat(t) {
				if obj := outerObj(info, lhs, rng); obj != nil {
					pass.Reportf(as.Pos(),
						"floating-point accumulation into %q over a collection whose order is "+
							"nondeterministic (%s); float addition is not associative — sort first "+
							"or fold in canonical index order", obj.Name(), source)
				}
			}
		case token.ASSIGN:
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) {
					break
				}
				if selfAccumFloat(info, as.Tok, as.Lhs[i], rhs) {
					if obj := outerObj(info, as.Lhs[i], rng); obj != nil {
						pass.Reportf(as.Pos(),
							"floating-point accumulation into %q over a collection whose order is "+
								"nondeterministic (%s); float addition is not associative — sort first "+
								"or fold in canonical index order", obj.Name(), source)
					}
				}
			}
		}
		return true
	})
}
