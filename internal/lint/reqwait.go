package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ReqwaitAnalyzer enforces request hygiene in the style of vet's
// lostcancel: every *Request produced by an Isend/Irecv call must be
// consumed — waited on, returned, stored, or passed along — before it is
// dropped or overwritten. A lost request is a silent leak: its completion
// callback stays registered and nobody observes the transfer finish.
// Deliberate fire-and-forget must be spelled `_ = c.Isend(...)`, which
// documents the intent at the call site.
//
// The analysis is intraprocedural and position-based, not a full CFG:
// an assignment to a request variable is flagged when no other mention of
// the variable appears between it and the next assignment in the same
// block. Assignments in sibling branches (if/else arms) never bound each
// other, so exclusive paths do not produce false positives.
var ReqwaitAnalyzer = &Analyzer{
	Name: "reqwait",
	Doc: "require every Isend/Irecv request to reach a Wait or be explicitly " +
		"discarded with `_ =`; drops and overwritten request variables leak completions",
	Run: runReqwait,
}

func runReqwait(pass *Pass) {
	for _, f := range pass.Files {
		for _, fb := range funcBodies(f) {
			checkRequests(pass, fb.body)
		}
	}
}

// isRequestCall reports whether call is an Isend/Irecv method call
// returning a pointer to a named Request type.
func isRequestCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Isend" && sel.Sel.Name != "Irecv") {
		return false
	}
	ptr, ok := info.TypeOf(call).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Request"
}

// reqAssign is one `v = c.Isend(...)` binding of a tracked variable.
type reqAssign struct {
	id    *ast.Ident
	call  *ast.CallExpr
	block *ast.BlockStmt
}

func checkRequests(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	assigns := make(map[types.Object][]reqAssign)
	assignIdents := make(map[*ast.Ident]bool)

	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ExprStmt:
			if call, ok := v.X.(*ast.CallExpr); ok && isRequestCall(info, call) {
				op := call.Fun.(*ast.SelectorExpr).Sel.Name
				pass.Reportf(call.Pos(),
					"%s request dropped: Wait on it (alone or in one Wait with others), or "+
						"discard it explicitly with `_ = ...%s(...)`", op, op)
			}
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, rhs := range v.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isRequestCall(info, call) {
					continue
				}
				id, ok := v.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue // stored into a slice/field/map (escapes) or blank
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				assigns[obj] = append(assigns[obj], reqAssign{
					id: id, call: call, block: innermostBlock(body, v.Pos()),
				})
				assignIdents[id] = true
			}
		}
		return true
	})
	if len(assigns) == 0 {
		return
	}

	// Every mention of a tracked variable that is not one of its request
	// assignments counts as a consumption point: waiting, appending,
	// returning, passing along, even reading a field.
	uses := make(map[types.Object][]token.Pos)
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || assignIdents[id] {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if _, tracked := assigns[obj]; tracked {
			uses[obj] = append(uses[obj], id.Pos())
		}
		return true
	})

	for obj, as := range assigns {
		us := uses[obj]
		sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
		for i, a := range as {
			// The live range of this binding ends at the next assignment
			// in the same block (sibling-branch assignments are on
			// exclusive paths and do not bound it).
			end := token.Pos(1 << 40)
			for j, b := range as {
				if j != i && b.block == a.block && b.id.Pos() > a.id.Pos() && b.id.Pos() < end {
					end = b.id.Pos()
				}
			}
			consumed := false
			for _, u := range us {
				if u > a.id.Pos() && u < end {
					consumed = true
					break
				}
			}
			if !consumed {
				pass.Reportf(a.call.Pos(),
					"request assigned to %q is never waited on before being overwritten "+
						"or going dead; Wait on it or discard it explicitly with `_ =`",
					a.id.Name)
			}
		}
	}
}
