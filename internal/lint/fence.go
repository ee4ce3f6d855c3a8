package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strconv"
	"strings"

	"github.com/hanrepro/han/internal/lint/detflow"
)

// FenceAnalyzer enforces the package policy behind byte-identical replay:
// each row of fenceRows names one thing a package may not use and the
// packages, or files, where that ban is lifted. An allow annotation names
// the pass, so `//hanlint:allow fence` covers every row on its line.
var FenceAnalyzer = &Analyzer{
	Name: "fence",
	Doc: "package policy, one row per ban: wall-clock time and raw go statements outside " +
		"internal/exec and internal/serve; global math/rand anywhere; rand.New outside " +
		"internal/mpi and tests; engine-owning imports in internal/exec and internal/sim in " +
		"internal/serve; partition-advance Engine calls outside internal/sim; raw flow.Flow " +
		"and mpi.Request outside their owners",
	Run: runFence,
}

// A fenceRow is one ban. lifted (nil: never) reports whether the ban is
// lifted in package pkgPath, or in its test files.
type fenceRow struct {
	name   string
	lifted func(pkgPath string, test bool) bool
	match  fenceMatch
	msg    string
}

// A fenceMatch returns the node to report at and the message arguments
// when n uses a banned thing, or a nil node.
type fenceMatch func(info *types.Info, n ast.Node) (at ast.Node, args []interface{})

// hostPkgs lifts the clock and goroutine bans in the two packages that run
// host goroutines on the host clock: internal/exec, the measurement
// executor, and internal/serve, the decision service. They pay for it with
// the import rows, so no goroutine ever touches an engine another one is
// driving (DESIGN.md §10, §15).
var hostPkgs = in("internal/exec", "internal/serve")

// engineOwningPkgs are the packages whose types are bound to a sim.Engine:
// importing any of them gives code a handle it could use to touch an
// engine it does not own.
var engineOwningPkgs = []string{
	"internal/sim", "internal/flow", "internal/mpi", "internal/cluster",
	"internal/han", "internal/coll", "internal/rivals", "internal/apps",
	"internal/autotune", "internal/bench", "internal/fault", "internal/trace",
}

var randPkgs = []string{"math/rand", "math/rand/v2"}

// randConstructors build a private RNG, whose seed the (seed, plan,
// machine) replay triple does not control.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
}

const arenaMsg = "%s of arena-managed type %s outside its owning package; " +
	"obtain instances from the owning constructor so they come from the pool"

var fenceRows = []fenceRow{
	// A simulation's only clock is sim.Engine.Now and its only concurrency
	// is engine-spawned processes: a clock call leaks host time into
	// simulated results, and a bare go statement runs outside the engine's
	// baton-passing protocol.
	{"clock", hostPkgs, callTo(detflow.WallClockFuncs, "time"),
		"wall-clock time.%s in simulation code; the only clock is virtual time " +
			"(sim.Engine.Now / mpi.Proc.Now, blocking via Proc.Sleep)"},
	{"go", hostPkgs, goStmt,
		"raw go statement bypasses the engine's baton-passing protocol; " +
			"spawn simulated processes with sim.Engine.Spawn (or SpawnStep)"},
	// Every draw flows from the world's seeded RNG (mpi.World.Seed). Only
	// that plumbing and tests, which seed with literals, build RNGs.
	{"global rand", nil, callTo(detflow.GlobalRandFuncs, randPkgs...),
		"rand.%s draws from the process-global source; draw from the world's " +
			"seeded RNG (mpi.World.Seed plumbing) so fault plans replay"},
	{"rand constructor", func(pkgPath string, test bool) bool { return test || isPkg(pkgPath, "internal/mpi") },
		callTo(randConstructors, randPkgs...),
		"rand.%s constructs an RNG outside internal/mpi; thread randomness " +
			"from the world's seeded RNG instead of hiding a seed here"},
	// The host packages hold no simulation state: the executor sees jobs as
	// opaque closures, and the service consumes tables as data.
	{"exec import", onlyIn("internal/exec"), importOf(engineOwningPkgs...),
		"the executor must stay engine-agnostic: import of %s hands host " +
			"goroutines simulation state they do not own; pass opaque closures instead"},
	{"serve import", onlyIn("internal/serve"), importOf("internal/sim"),
		"the serving layer must stay engine-free: import of %s gives " +
			"wall-clock goroutines the simulation engine's vocabulary; " +
			"consume tuned tables as data instead"},
	// These methods exist for the sim.Parallel coordinator's window loop,
	// whose barrier protocol gives every partition the same horizon
	// sequence (DESIGN.md §14); anywhere else they break bit identity with
	// the serial oracle.
	{"partition advance", in("internal/sim"),
		methodOf("internal/sim", "Engine", "RunUntil", "NextEventTime", "LiveProcs"),
		"partition-advance call Engine.%s outside internal/sim: windowed " +
			"advancement belongs to the sim.Parallel coordinator's barrier loop; " +
			"drive the engine with Engine.Run or a coordinator instead"},
	// Pool-managed types come from their owner's constructors: a raw
	// instance skips the pool's Init hook and can alias a recycled slot.
	{"raw flow.Flow", in("internal/flow"), rawConstruction("internal/flow", "Flow"), arenaMsg},
	{"raw mpi.Request", in("internal/mpi"), rawConstruction("internal/mpi", "Request"), arenaMsg},
}

func runFence(pass *Pass) {
	var rows []fenceRow
	for _, f := range pass.Files {
		test := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		rows = rows[:0]
		for _, r := range fenceRows {
			if r.lifted == nil || !r.lifted(pass.Pkg.Path(), test) {
				rows = append(rows, r)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			for _, r := range rows {
				if at, args := r.match(pass.TypesInfo, n); at != nil {
					pass.Reportf(at.Pos(), r.msg, args...)
				}
			}
			return true
		})
	}
}

// in lifts a ban in the packages named by path suffix.
func in(suffixes ...string) func(string, bool) bool {
	return func(pkgPath string, _ bool) bool { return isPkgIn(pkgPath, suffixes) }
}

// onlyIn lifts a ban everywhere but the package named by path suffix.
func onlyIn(suffix string) func(string, bool) bool {
	return func(pkgPath string, _ bool) bool { return !isPkg(pkgPath, suffix) }
}

// callTo matches a call to a function listed in table from one of pkgs.
func callTo(table map[string]bool, pkgs ...string) fenceMatch {
	return func(info *types.Info, n ast.Node) (ast.Node, []interface{}) {
		if call, ok := n.(*ast.CallExpr); ok {
			path, fn := pkgFuncCall(info, call)
			if _, listed := table[fn]; listed && slices.Contains(pkgs, path) {
				return call, []interface{}{fn}
			}
		}
		return nil, nil
	}
}

func goStmt(_ *types.Info, n ast.Node) (ast.Node, []interface{}) {
	if g, ok := n.(*ast.GoStmt); ok {
		return g, nil
	}
	return nil, nil
}

// importOf matches an import of one of the packages named by path suffix.
func importOf(banned ...string) fenceMatch {
	return func(_ *types.Info, n ast.Node) (ast.Node, []interface{}) {
		if imp, ok := n.(*ast.ImportSpec); ok {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && isPkgIn(path, banned) {
				return imp.Path, []interface{}{path}
			}
		}
		return nil, nil
	}
}

// methodOf matches a call of one of methods on the named type pkg.typ.
func methodOf(pkg, typ string, methods ...string) fenceMatch {
	return func(info *types.Info, n ast.Node) (ast.Node, []interface{}) {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && slices.Contains(methods, sel.Sel.Name) {
				if s, ok := info.Selections[sel]; ok && isNamed(s.Recv(), pkg, typ) {
					return call, []interface{}{sel.Sel.Name}
				}
			}
		}
		return nil, nil
	}
}

// rawConstruction matches a composite literal, a new() or a zero-value var
// of the named type pkg.typ.
func rawConstruction(pkg, typ string) fenceMatch {
	return func(info *types.Info, n ast.Node) (ast.Node, []interface{}) {
		var what string
		var t types.Type
		switch v := n.(type) {
		case *ast.CompositeLit:
			what, t = "composite literal", info.Types[v].Type
		case *ast.CallExpr:
			id, ok := v.Fun.(*ast.Ident)
			if !ok || id.Name != "new" || len(v.Args) != 1 {
				break
			}
			if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil {
				break // shadowed: a user-defined new function
			}
			if tv := info.Types[v.Args[0]]; tv.IsType() {
				what, t = "new()", tv.Type
			}
		case *ast.ValueSpec:
			// `var f flow.Flow` mints an uninitialised value just like a
			// literal would; a pointer declaration only holds an instance.
			if v.Type != nil {
				t = info.Types[v.Type].Type
				if _, ptr := t.(*types.Pointer); !ptr {
					what = "zero-value var"
				}
			}
		}
		if what == "" || !isNamed(t, pkg, typ) {
			return nil, nil
		}
		return n, []interface{}{what, types.TypeString(t, func(p *types.Package) string { return p.Name() })}
	}
}

// isNamed reports whether t, after stripping pointers, is the named type
// name from the package named by path suffix pkg.
func isNamed(t types.Type, pkg, name string) bool {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Name() == name &&
		isPkg(named.Obj().Pkg().Path(), pkg)
}
