package detflow

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// tokenT is one element of a taint set: either a concrete Taint
// (param == -1) or a synthetic argument token used to build summaries
// (param is the 0-based-receiver/1-based-parameter index).
type tokenT struct {
	param int
	t     Taint
}

func (tk tokenT) key() string {
	if tk.param >= 0 {
		return fmt.Sprintf("p%d", tk.param)
	}
	return tk.t.key()
}

type set map[string]tokenT

func (s set) add(tk tokenT) bool {
	k := tk.key()
	if _, ok := s[k]; ok {
		return false
	}
	s[k] = tk
	return true
}

func (s set) addAll(o set) bool {
	changed := false
	for _, tk := range o {
		if s.add(tk) {
			changed = true
		}
	}
	return changed
}

func (s set) realTaints() []Taint {
	var out []Taint
	for _, tk := range s {
		if tk.param < 0 {
			out = append(out, tk.t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

type analyzer struct {
	cfg      *Config
	res      *Result
	sums     map[string]*Summary                 // dependency + own summaries, updated in place
	seen     map[string]bool                     // diagnostic dedup
	universe []*types.Named                      // CHA class hierarchy
	impls    map[*types.Interface][]*types.Named // universe members implementing each interface
}

// buildUniverse collects every named type reachable from this package's
// import graph — the class hierarchy CHA resolves interface calls over.
func (an *analyzer) buildUniverse() {
	visited := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					an.universe = append(an.universe, named)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(an.cfg.Pkg)
}

// chaResolve returns the summaries of every concrete method that an
// interface call with the given method name could dispatch to. The
// implementers of each interface are computed once per analysis; only
// their summaries change between fixed-point rounds.
func (an *analyzer) chaResolve(iface *types.Interface, method string) []*Summary {
	impls, ok := an.impls[iface]
	if !ok {
		for _, named := range an.universe {
			if named.Obj().Pkg() != nil &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				impls = append(impls, named)
			}
		}
		an.impls[iface] = impls
	}
	var out []*Summary
	for _, named := range impls {
		key := named.Obj().Pkg().Path() + ".(" + named.Obj().Name() + ")." + method
		if s := an.sums[key]; !s.empty() {
			out = append(out, s)
		}
	}
	return out
}

// collectFuncs returns the package's declared functions with bodies.
func (an *analyzer) collectFuncs() []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range an.cfg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// fnCtx is the per-function analysis state.
type fnCtx struct {
	an    *analyzer
	decl  *ast.FuncDecl
	env   map[types.Object]set
	seeds map[types.Object]set         // pre-pass seeds (exec closure mutation)
	kills map[types.Object][]token.Pos // order-taint kills (sorts), by position
	spans map[string]*ast.RangeStmt    // map-order seed position -> seeding range

	paramSinks map[int]map[string]SinkRef // argument index -> sink refs (summary)
	results    map[int]map[string]Taint   // result index -> taints
	flows      map[int]map[int]bool       // argument index -> result indexes
}

func (an *analyzer) analyzeFunc(decl *ast.FuncDecl, report bool) bool {
	obj, _ := an.cfg.Info.Defs[decl.Name].(*types.Func)
	if obj == nil {
		return false
	}
	key := funcKey(an.cfg.PkgPath, obj)
	if key == "" {
		return false
	}
	fc := &fnCtx{
		an:         an,
		decl:       decl,
		env:        make(map[types.Object]set),
		seeds:      make(map[types.Object]set),
		kills:      make(map[types.Object][]token.Pos),
		spans:      make(map[string]*ast.RangeStmt),
		paramSinks: make(map[int]map[string]SinkRef),
		results:    make(map[int]map[string]Taint),
		flows:      make(map[int]map[int]bool),
	}
	fc.seedParams()
	fc.prePass()

	// Monotone fixed point over the body in source order.
	for i := 0; i < 12; i++ {
		if !fc.transferAll() {
			break
		}
	}
	fc.effects(report)
	fc.collectReturns()
	if report {
		fc.recordRangeTaint()
	}

	sum := fc.summary()
	old := an.sums[key]
	an.sums[key] = sum
	an.res.Summaries[key] = sum
	return !reflect.DeepEqual(old, sum)
}

// seedParams binds synthetic argument tokens: receiver is index 0,
// parameters are 1-based.
func (fc *fnCtx) seedParams() {
	info := fc.an.cfg.Info
	bind := func(name *ast.Ident, idx int) {
		if name == nil || name.Name == "_" {
			return
		}
		if obj := info.Defs[name]; obj != nil {
			s := fc.env[obj]
			if s == nil {
				s = make(set)
				fc.env[obj] = s
			}
			s.add(tokenT{param: idx})
		}
	}
	if fc.decl.Recv != nil && len(fc.decl.Recv.List) > 0 {
		for _, n := range fc.decl.Recv.List[0].Names {
			bind(n, 0)
		}
	}
	idx := 1
	if fc.decl.Type.Params != nil {
		for _, field := range fc.decl.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, n := range field.Names {
				bind(n, idx)
				idx++
			}
		}
	}
}

// prePass walks the body once for position-based facts that need no
// environment: sort-call kills, pointer-identity sorts, and shared
// mutation inside closures handed to the exec worker pool.
func (fc *fnCtx) prePass() {
	info := fc.an.cfg.Info
	ast.Inspect(fc.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, fn := pkgFuncCall(info, call); IsSortCall(path, fn) && len(call.Args) > 0 {
			if obj := exprObj(info, call.Args[0]); obj != nil {
				if lessReadsPointerIdentity(call) {
					// Sorting by pointer identity does not cleanse: it
					// IS the nondeterministic ordering.
					fc.seed(obj, Taint{Kind: Order, Source: "pointer-identity sort ordering",
						At: fc.an.shortPos(call.Pos())})
				} else {
					fc.kills[obj] = append(fc.kills[obj], call.Pos())
				}
			}
			return true
		}
		// Closures handed to the parallel executor run on host
		// goroutines; writes to captured variables (other than
		// index-addressed slots, the sanctioned pattern) interleave
		// nondeterministically.
		fn, _, _, calleePkg := fc.an.resolveCall(call)
		if fn != nil && execPkg(calleePkg) {
			for _, arg := range call.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok {
					continue
				}
				fc.seedClosureMutations(lit)
			}
		}
		return true
	})
}

func (fc *fnCtx) seedClosureMutations(lit *ast.FuncLit) {
	info := fc.an.cfg.Info
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if _, isIndex := lhs.(*ast.IndexExpr); isIndex {
				continue // index-addressed slot: deterministic per-job writes
			}
			obj := exprObj(info, lhs)
			if obj == nil || obj.Name() == "_" {
				continue
			}
			if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
				continue // closure-local state cannot race
			}
			if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
				continue // package-level; too coarse to flag here
			}
			fc.seed(obj, Taint{Kind: Value,
				Source: "unsynchronized shared mutation in exec worker closure",
				At:     fc.an.shortPos(as.Pos())})
		}
		return true
	})
}

func (fc *fnCtx) seed(obj types.Object, t Taint) {
	s := fc.seeds[obj]
	if s == nil {
		s = make(set)
		fc.seeds[obj] = s
	}
	s.add(tokenT{param: -1, t: t})
}

// transferAll applies one pass of the dataflow transfer functions over
// the body in source order, returning whether the environment grew.
func (fc *fnCtx) transferAll() bool {
	changed := false
	for obj, s := range fc.seeds {
		if fc.envOf(obj).addAll(s) {
			changed = true
		}
	}
	ast.Inspect(fc.decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if fc.transferAssign(v) {
				changed = true
			}
		case *ast.ValueSpec:
			for i, name := range v.Names {
				if i < len(v.Values) {
					if fc.assignTo(name, fc.taintOf(v.Values[i])) {
						changed = true
					}
				} else if len(v.Values) == 1 && len(v.Names) > 1 {
					if fc.assignTo(name, fc.taintOf(v.Values[0])) {
						changed = true
					}
				}
			}
		case *ast.RangeStmt:
			if fc.transferRange(v) {
				changed = true
			}
		case *ast.SelectStmt:
			if fc.transferSelect(v) {
				changed = true
			}
		case *ast.SendStmt:
			if obj := exprObj(fc.an.cfg.Info, v.Chan); obj != nil {
				if fc.envOf(obj).addAll(fc.taintOf(v.Value)) {
					changed = true
				}
			}
		}
		return true
	})
	return changed
}

func (fc *fnCtx) envOf(obj types.Object) set {
	s := fc.env[obj]
	if s == nil {
		s = make(set)
		fc.env[obj] = s
	}
	return s
}

func (fc *fnCtx) transferAssign(as *ast.AssignStmt) bool {
	changed := false
	// Multi-value form: x, y := f() / v, ok := m[k] / v, ok := <-ch.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if call, ok := stripParens(as.Rhs[0]).(*ast.CallExpr); ok {
			per := fc.callResultTaints(call, len(as.Lhs))
			for i, lhs := range as.Lhs {
				if i < len(per) && fc.assignTo(lhs, per[i]) {
					changed = true
				}
			}
			return changed
		}
		ts := fc.taintOf(as.Rhs[0])
		for _, lhs := range as.Lhs {
			if fc.assignTo(lhs, ts) {
				changed = true
			}
		}
		return changed
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		if fc.assignTo(lhs, fc.taintOf(as.Rhs[i])) {
			changed = true
		}
	}
	return changed
}

// assignTo merges ts into the object at the root of the lvalue: writing a
// tainted value into a field, element, or dereference taints the whole
// container (field-insensitive).
func (fc *fnCtx) assignTo(lhs ast.Expr, ts set) bool {
	if len(ts) == 0 {
		return false
	}
	obj := exprObj(fc.an.cfg.Info, lhs)
	if obj == nil || obj.Name() == "_" {
		return false
	}
	return fc.envOf(obj).addAll(ts)
}

func (fc *fnCtx) transferRange(rng *ast.RangeStmt) bool {
	info := fc.an.cfg.Info
	xt := fc.taintOf(rng.X)
	tv, ok := info.Types[rng.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	changed := false
	bind := func(e ast.Expr, ts set) {
		if e == nil {
			return
		}
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil && fc.envOf(obj).addAll(ts) {
				changed = true
			}
		}
	}
	if isMap {
		seed := Taint{Kind: Order, Source: "map iteration order", At: fc.an.shortPos(rng.Pos())}
		fc.spans[seed.At] = rng
		both := make(set)
		both.addAll(xt)
		both.add(tokenT{param: -1, t: seed})
		bind(rng.Key, both)
		bind(rng.Value, both)
		return changed
	}
	// Slices, arrays, strings, channels: elements inherit the operand's
	// taint (including order taint — iterating a nondeterministically
	// ordered slice visits elements in nondeterministic order).
	bind(rng.Value, xt)
	if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
		bind(rng.Key, xt)
	}
	return changed
}

func (fc *fnCtx) transferSelect(sel *ast.SelectStmt) bool {
	comm := 0
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			comm++
		}
	}
	if comm < 2 {
		return false
	}
	changed := false
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		as, ok := cc.Comm.(*ast.AssignStmt)
		if !ok {
			continue
		}
		t := Taint{Kind: Value, Source: "unordered select arm", At: fc.an.shortPos(cc.Pos())}
		ts := make(set)
		ts.add(tokenT{param: -1, t: t})
		for _, lhs := range as.Lhs {
			if fc.assignTo(lhs, ts) {
				changed = true
			}
		}
	}
	return changed
}

// taintOf computes the taint set of an expression under the current
// environment. Order taint on an identifier is filtered by sort kills
// that precede the use.
func (fc *fnCtx) taintOf(e ast.Expr) set {
	info := fc.an.cfg.Info
	out := make(set)
	switch v := e.(type) {
	case nil:
	case *ast.Ident:
		obj := info.Uses[v]
		if obj == nil {
			obj = info.Defs[v]
		}
		if obj == nil {
			break
		}
		for _, tk := range fc.env[obj] {
			if tk.param < 0 && tk.t.Kind == Order && fc.killedBefore(obj, v.Pos()) {
				continue
			}
			out.add(tk)
		}
	case *ast.ParenExpr:
		return fc.taintOf(v.X)
	case *ast.StarExpr:
		return fc.taintOf(v.X)
	case *ast.UnaryExpr:
		return fc.taintOf(v.X)
	case *ast.BinaryExpr:
		out.addAll(fc.taintOf(v.X))
		out.addAll(fc.taintOf(v.Y))
	case *ast.SelectorExpr:
		// Field read or method value: the object's taint covers it.
		if _, isPkg := info.Uses[rootIdentOf(v)].(*types.PkgName); isPkg {
			break
		}
		return fc.taintOf(v.X)
	case *ast.IndexExpr:
		out.addAll(fc.taintOf(v.X))
		out.addAll(fc.taintOf(v.Index))
	case *ast.IndexListExpr:
		return fc.taintOf(v.X)
	case *ast.SliceExpr:
		return fc.taintOf(v.X)
	case *ast.TypeAssertExpr:
		return fc.taintOf(v.X)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				out.addAll(fc.taintOf(kv.Value))
				continue
			}
			out.addAll(fc.taintOf(el))
		}
	case *ast.CallExpr:
		per := fc.callResultTaints(v, -1)
		for _, s := range per {
			out.addAll(s)
		}
	case *ast.FuncLit:
		// A closure value carries the taint of the outer variables it
		// captures plus any intrinsic sources it calls; calling the
		// closure yields that taint.
		ast.Inspect(v.Body, func(n ast.Node) bool {
			switch w := n.(type) {
			case *ast.Ident:
				obj := info.Uses[w]
				if obj != nil && (obj.Pos() < v.Pos() || obj.Pos() >= v.End()) {
					out.addAll(fc.env[obj])
				}
			case *ast.CallExpr:
				if path, fn := pkgFuncCall(info, w); path != "" {
					if t, ok := sourceTaint(path, fn); ok {
						t.At = fc.an.shortPos(w.Pos())
						out.add(tokenT{param: -1, t: t})
					}
				}
			}
			return true
		})
	}
	return out
}

func (fc *fnCtx) killedBefore(obj types.Object, pos token.Pos) bool {
	for _, kp := range fc.kills[obj] {
		if kp < pos {
			return true
		}
	}
	return false
}

// callResultTaints models a call expression: per-result taint sets.
// nres < 0 means "however many the signature has" (at least one slot).
func (fc *fnCtx) callResultTaints(call *ast.CallExpr, nres int) []set {
	info := fc.an.cfg.Info
	if nres < 0 {
		nres = 1
		if tv, ok := info.Types[call]; ok {
			if tup, ok := tv.Type.(*types.Tuple); ok {
				nres = tup.Len()
			}
		}
	}
	out := make([]set, nres)
	for i := range out {
		out[i] = make(set)
	}
	if nres == 0 {
		return out
	}
	fun := stripParens(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				for _, a := range call.Args {
					out[0].addAll(fc.taintOf(a))
				}
			case "len", "cap", "make", "new":
				// Order- and value-insensitive (len of a map-ordered
				// slice is deterministic).
			default:
				for _, a := range call.Args {
					out[0].addAll(fc.taintOf(a))
				}
			}
			return out
		}
	}

	// Conversions: T(x) keeps x's taint; uintptr(unsafe.Pointer(x)) mints
	// pointer identity.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			out[0].addAll(fc.taintOf(call.Args[0]))
			if isUintptr(tv.Type) && isUnsafePtrExpr(info, call.Args[0]) {
				out[0].add(tokenT{param: -1, t: Taint{Kind: Value, Source: "pointer identity",
					At: fc.an.shortPos(call.Pos())}})
			}
		}
		return out
	}

	fn, sums, name, calleePkg := fc.an.resolveCall(call)

	// Intrinsic nondeterminism sources (package-level functions only; a
	// method like (*rand.Rand).Intn on a seeded RNG stays clean).
	if fn != nil && fn.Type() != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			if t, ok := sourceTaint(calleePkg, fn.Name()); ok {
				t.At = fc.an.shortPos(call.Pos())
				for i := range out {
					out[i].add(tokenT{param: -1, t: t})
				}
				return out
			}
		}
		// reflect pointer-identity readers are methods.
		if calleePkg == "reflect" && (fn.Name() == "Pointer" || fn.Name() == "UnsafePointer") {
			for i := range out {
				out[i].add(tokenT{param: -1, t: Taint{Kind: Value, Source: "pointer identity",
					At: fc.an.shortPos(call.Pos())}})
			}
			return out
		}
	}

	argAt := fc.callArgs(call, fn)

	if len(sums) > 0 {
		for _, s := range sums {
			// Unconditional result taint, path extended through the callee.
			for i, taints := range s.Results {
				if i >= nres {
					continue
				}
				for _, t := range taints {
					tt := t
					tt.Via = append([]string{name}, t.Via...)
					out[i].add(tokenT{param: -1, t: tt})
				}
			}
			// Argument-to-result flows carry the argument's taint through.
			for argIdx, resIdxs := range s.Flows {
				ts, ok := argAt[argIdx]
				if !ok {
					continue
				}
				for _, ri := range resIdxs {
					if ri < nres {
						out[ri].addAll(ts)
					}
				}
			}
		}
		return out
	}

	// Unknown callee (no summary, not intrinsic): conservatively assume
	// every argument — and a method's receiver — flows to every result.
	// Sort calls were already modelled as kills in the pre-pass.
	if path, f := pkgFuncCall(info, call); IsSortCall(path, f) {
		return out
	}
	for _, ts := range argAt {
		for i := range out {
			out[i].addAll(ts)
		}
	}
	return out
}

// callArgs maps summary argument indexes (0 = receiver, params 1-based)
// to the taint of the expressions at this call site. Function-typed
// arguments contribute their closure taint.
func (fc *fnCtx) callArgs(call *ast.CallExpr, fn *types.Func) map[int]set {
	info := fc.an.cfg.Info
	out := make(map[int]set)
	if sel, ok := stripParens(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if ts := fc.taintOf(sel.X); len(ts) > 0 {
				out[0] = ts
			}
		}
	}
	nparams := -1
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			nparams = sig.Params().Len()
		}
	}
	for i, a := range call.Args {
		idx := i + 1
		if nparams >= 1 && idx > nparams {
			idx = nparams // variadic tail folds onto the last parameter
		}
		ts := fc.taintOf(a)
		if len(ts) == 0 {
			continue
		}
		if out[idx] == nil {
			out[idx] = make(set)
		}
		out[idx].addAll(ts)
	}
	return out
}

// effects runs the post-fixed-point pass over every call: direct sink
// hits, summary-propagated sink hits, and the argument→sink half of this
// function's own summary.
func (fc *fnCtx) effects(report bool) {
	ast.Inspect(fc.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, sums, name, calleePkg := fc.an.resolveCall(call)
		if fn == nil {
			return true
		}
		argAt := fc.callArgs(call, fn)

		// Direct sink: a tainted argument handed to a sim-side package.
		if desc := sinkDesc(calleePkg); desc != "" {
			for idx, ts := range argAt {
				if idx == 0 {
					continue // receiver taint is not a sink
				}
				if fc.argIsFunc(call, fn, idx) {
					continue // closure bodies are analyzed directly
				}
				fc.sinkHit(call.Pos(), ts, desc, []string{name}, report)
			}
		}
		// Summary sinks: the argument reaches a sink inside the callee.
		for _, s := range sums {
			for idx, refs := range s.Sinks {
				ts, ok := argAt[idx]
				if !ok {
					continue
				}
				for _, ref := range refs {
					fc.sinkHit(call.Pos(), ts, ref.Sink, append([]string{name}, ref.Via...), report)
				}
			}
		}
		return true
	})
}

// argIsFunc reports whether summary argument idx at this call site has a
// function type.
func (fc *fnCtx) argIsFunc(call *ast.CallExpr, fn *types.Func, idx int) bool {
	i := idx - 1
	if i < 0 || i >= len(call.Args) {
		return false
	}
	if tv, ok := fc.an.cfg.Info.Types[call.Args[i]]; ok && tv.Type != nil {
		if _, ok := tv.Type.Underlying().(*types.Signature); ok {
			return true
		}
	}
	return false
}

// sinkHit splits a taint set reaching a sink into diagnostics (concrete
// taints) and summary entries (argument tokens).
func (fc *fnCtx) sinkHit(pos token.Pos, ts set, sink string, via []string, report bool) {
	for _, tk := range ts {
		if tk.param >= 0 {
			m := fc.paramSinks[tk.param]
			if m == nil {
				m = make(map[string]SinkRef)
				fc.paramSinks[tk.param] = m
			}
			// One representative chain per sink — the shortest, ties broken
			// lexically so the choice is independent of visit order. Keeping
			// every chain makes summaries grow with the number of call paths
			// to the sink, which multiplies at each layer of helpers.
			if old, ok := m[sink]; !ok || viaLess(via, old.Via) {
				m[sink] = SinkRef{Sink: sink, Via: via}
			}
			continue
		}
		if !report {
			continue
		}
		// A map-order taint consumed inside the very range statement that
		// minted it is the maporder pass's territory; detflow owns the
		// flows that escape the loop or the function.
		if tk.t.Kind == Order && len(tk.t.Via) == 0 {
			if rng, ok := fc.spans[tk.t.At]; ok && pos >= rng.Pos() && pos < rng.End() {
				continue
			}
		}
		fc.an.report(pos, tk.t, sink, via)
	}
}

// viaLess orders call chains by length, then lexically.
func viaLess(a, b []string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return strings.Join(a, "→") < strings.Join(b, "→")
}

func (an *analyzer) report(pos token.Pos, t Taint, sink string, sinkVia []string) {
	src := t.Source
	if t.At != "" {
		src += " (" + t.At + ")"
	}
	parts := []string{src}
	for i := len(t.Via) - 1; i >= 0; i-- {
		parts = append(parts, t.Via[i])
	}
	parts = append(parts, sinkVia...)
	msg := fmt.Sprintf("nondeterministic %s from %s flows into %s; path: %s",
		t.Kind, src, sink, strings.Join(parts, " → "))
	key := fmt.Sprintf("%d|%s|%s", pos, sink, t.key())
	if an.seen[key] {
		return
	}
	an.seen[key] = true
	an.res.Diags = append(an.res.Diags, Diag{Pos: pos, Message: msg})
}

// collectReturns folds return-expression taint into the summary halves:
// concrete taints become Results, argument tokens become Flows. Returns
// inside nested closures belong to the closure, not this function.
func (fc *fnCtx) collectReturns() {
	named := fc.namedResults()
	nres := fc.numResults()
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		switch {
		case len(ret.Results) == 0:
			for i, obj := range named {
				if obj != nil {
					fc.addResult(i, fc.env[obj])
				}
			}
		case len(ret.Results) == 1 && nres > 1:
			if call, ok := stripParens(ret.Results[0]).(*ast.CallExpr); ok {
				for i, ts := range fc.callResultTaints(call, nres) {
					fc.addResult(i, ts)
				}
			}
		default:
			for i, e := range ret.Results {
				fc.addResult(i, fc.taintOf(e))
			}
		}
		return true
	}
	ast.Inspect(fc.decl.Body, walk)
}

func (fc *fnCtx) addResult(i int, ts set) {
	for _, tk := range ts {
		if tk.param >= 0 {
			m := fc.flows[tk.param]
			if m == nil {
				m = make(map[int]bool)
				fc.flows[tk.param] = m
			}
			m[i] = true
			continue
		}
		m := fc.results[i]
		if m == nil {
			m = make(map[string]Taint)
			fc.results[i] = m
		}
		m[tk.t.key()] = tk.t
	}
}

func (fc *fnCtx) namedResults() []types.Object {
	var out []types.Object
	if fc.decl.Type.Results == nil {
		return out
	}
	for _, f := range fc.decl.Type.Results.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, n := range f.Names {
			out = append(out, fc.an.cfg.Info.Defs[n])
		}
	}
	return out
}

func (fc *fnCtx) numResults() int {
	n := 0
	if fc.decl.Type.Results == nil {
		return 0
	}
	for _, f := range fc.decl.Type.Results.List {
		if len(f.Names) == 0 {
			n++
			continue
		}
		n += len(f.Names)
	}
	return n
}

// recordRangeTaint publishes the final taint of every ranged-over operand
// for the maporder pass.
func (fc *fnCtx) recordRangeTaint() {
	ast.Inspect(fc.decl.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if ts := fc.taintOf(rng.X).realTaints(); len(ts) > 0 {
			fc.an.res.RangeTaint[rng] = ts
		}
		return true
	})
}

// summary normalizes the per-function state into a Summary.
func (fc *fnCtx) summary() *Summary {
	s := &Summary{}
	if len(fc.results) > 0 {
		s.Results = make(map[int][]Taint, len(fc.results))
		for i, m := range fc.results {
			var ts []Taint
			for _, t := range m {
				ts = append(ts, t)
			}
			sort.Slice(ts, func(a, b int) bool { return ts[a].key() < ts[b].key() })
			s.Results[i] = ts
		}
	}
	if len(fc.flows) > 0 {
		s.Flows = make(map[int][]int, len(fc.flows))
		for i, m := range fc.flows {
			var rs []int
			for r := range m {
				rs = append(rs, r)
			}
			sort.Ints(rs)
			s.Flows[i] = rs
		}
	}
	if len(fc.paramSinks) > 0 {
		s.Sinks = make(map[int][]SinkRef, len(fc.paramSinks))
		for i, m := range fc.paramSinks {
			var keys []string
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			refs := make([]SinkRef, 0, len(keys))
			for _, k := range keys {
				refs = append(refs, m[k])
			}
			s.Sinks[i] = refs
		}
	}
	return s
}

// resolveCall resolves the static callee of a call: the *types.Func (nil
// for func values and builtins), the applicable summaries (static target
// or CHA candidates for interface calls), a short display name, and the
// callee's package path.
func (an *analyzer) resolveCall(call *ast.CallExpr) (*types.Func, []*Summary, string, string) {
	info := an.cfg.Info
	switch fun := stripParens(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return an.staticTarget(fn)
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			fn, _ := s.Obj().(*types.Func)
			if fn == nil {
				return nil, nil, "", ""
			}
			recv := s.Recv()
			if iface, ok := recv.Underlying().(*types.Interface); ok {
				pkgPath := ""
				if fn.Pkg() != nil {
					pkgPath = fn.Pkg().Path()
				}
				return fn, an.chaResolve(iface, fn.Name()), shortName(fn), pkgPath
			}
			return an.staticTarget(fn)
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return an.staticTarget(fn)
		}
	}
	return nil, nil, "", ""
}

func (an *analyzer) staticTarget(fn *types.Func) (*types.Func, []*Summary, string, string) {
	fn = fn.Origin()
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	var sums []*Summary
	if pkgPath != "" {
		if s := an.sums[funcKey(pkgPath, fn)]; !s.empty() {
			sums = append(sums, s)
		}
	}
	return fn, sums, shortName(fn), pkgPath
}

func (an *analyzer) shortPos(pos token.Pos) string {
	p := an.cfg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// --- small helpers ---

func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// pkgFuncCall resolves pkg.Func calls (mirrors internal/lint's helper).
func pkgFuncCall(info *types.Info, call *ast.CallExpr) (string, string) {
	sel, ok := stripParens(call.Fun).(*ast.SelectorExpr)
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

// exprObj walks to the base object of an lvalue/operand chain.
func exprObj(info *types.Info, e ast.Expr) types.Object {
	id := rootIdentOf(e)
	if id == nil {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

func rootIdentOf(e ast.Expr) *ast.Ident {
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
		case *ast.SliceExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func isUintptr(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uintptr
}

func isUnsafePtrExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == types.UnsafePointer
}

// lessReadsPointerIdentity reports (syntactically) whether a sort call's
// comparison closure derives its order from pointer identity.
func lessReadsPointerIdentity(call *ast.CallExpr) bool {
	found := false
	for _, a := range call.Args {
		lit, ok := a.(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				if id, ok := stripParens(v.Fun).(*ast.Ident); ok && id.Name == "uintptr" {
					found = true
				}
				if sel, ok := stripParens(v.Fun).(*ast.SelectorExpr); ok {
					if sel.Sel.Name == "Pointer" || sel.Sel.Name == "UnsafePointer" {
						found = true
					}
				}
			case *ast.SelectorExpr:
				if id, ok := v.X.(*ast.Ident); ok && id.Name == "unsafe" && v.Sel.Name == "Pointer" {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// EncodeFacts serializes summaries for the facts layer (.vetx blobs).
func EncodeFacts(sums map[string]*Summary) ([]byte, error) {
	return json.Marshal(sums)
}

// DecodeFacts parses a facts blob produced by EncodeFacts.
func DecodeFacts(blob []byte) (map[string]*Summary, error) {
	out := make(map[string]*Summary)
	if len(blob) == 0 {
		return out, nil
	}
	if err := json.Unmarshal(blob, &out); err != nil {
		return nil, err
	}
	return out, nil
}
