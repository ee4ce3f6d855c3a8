package lint

import "go/ast"

// wallClockFuncs are the package time entry points that read or wait on
// the host clock. Pure Duration arithmetic, constants (time.Second), and
// conversions (time.Duration(x)) are not in the set and never trip the
// pass. It is a superset of detflow's value sources: Sleep and AfterFunc
// block on the host clock but return no value derived from it.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// SimtimeAnalyzer forbids wall-clock time and raw goroutines in code that
// runs under the internal/sim engine. A simulation's only clock is
// sim.Engine.Now, and its only concurrency is engine-spawned processes:
// time.Now would leak host time into simulated results, and a bare go
// statement runs outside the engine's baton-passing protocol, so its
// effects interleave nondeterministically with simulated events.
var SimtimeAnalyzer = &Analyzer{
	Name: "simtime",
	Doc: "forbid wall-clock time (time.Now, time.Sleep, ...) and raw go statements " +
		"in simulation code; use sim.Time, Proc.Sleep, and Engine.Spawn",
	AppliesTo: simtimeApplies,
	Run:       runSimtime,
}

// simtimeApplies exempts the packages the importfence pass fences
// (internal/exec, internal/serve): they may touch the host clock and
// spawn host goroutines because their fence keeps that host concurrency
// away from simulation state.
func simtimeApplies(pkgPath string) bool {
	return fenceOf(pkgPath) < 0
}

func runSimtime(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				if path, fn := pkgFuncCall(pass.TypesInfo, v); path == "time" && wallClockFuncs[fn] {
					pass.Reportf(v.Pos(),
						"wall-clock time.%s in simulation code; the only clock is virtual time "+
							"(sim.Engine.Now / mpi.Proc.Now, blocking via Proc.Sleep)", fn)
				}
			case *ast.GoStmt:
				pass.Reportf(v.Pos(),
					"raw go statement bypasses the engine's baton-passing protocol; "+
						"spawn simulated processes with sim.Engine.Spawn (or mpi.Proc.SpawnHelper)")
			}
			return true
		})
	}
}
