package lint

import "strconv"

// engineOwningPkgs are the packages whose types are bound to a sim.Engine:
// importing any of them gives code a handle it could use to touch an
// engine it does not own.
var engineOwningPkgs = []string{
	"internal/sim",
	"internal/flow",
	"internal/mpi",
	"internal/cluster",
	"internal/han",
	"internal/coll",
	"internal/rivals",
	"internal/apps",
	"internal/autotune",
	"internal/bench",
	"internal/fault",
	"internal/trace",
}

// fences are the import fences: each row's package runs host goroutines
// on the host clock (it is exempt from simtime) and pays for that by never
// importing the row's banned packages. msg is reported with the banned
// import path.
//
//   - internal/exec, the measurement executor: its workers must see jobs
//     as opaque closures, with no vocabulary to reach into a sim.Engine,
//     world or flow network they do not own. With simtime's ban on raw go
//     statements everywhere else, no goroutine ever touches an engine
//     another goroutine is driving (DESIGN.md §10).
//   - internal/serve, the decision service: it consumes autotune tables,
//     han configs and coll kinds as data at serving time, but a direct
//     import of internal/sim would hand its wall-clock goroutines the
//     engine vocabulary itself (Engine.Spawn, Engine.Run), dissolving the
//     boundary that justifies the exemption (DESIGN.md §15).
var fences = []struct {
	pkg    string
	banned []string
	msg    string
}{
	{"internal/exec", engineOwningPkgs, "the executor must stay engine-agnostic: import of %s hands host " +
		"goroutines simulation state they do not own; pass opaque closures instead"},
	{"internal/serve", []string{"internal/sim"}, "the serving layer must stay engine-free: import of %s gives " +
		"wall-clock goroutines the simulation engine's vocabulary; " +
		"consume tuned tables as data instead"},
}

// ImportfenceAnalyzer enforces the fences table.
var ImportfenceAnalyzer = &Analyzer{
	Name: "importfence",
	Doc: "forbid internal/exec from importing engine-owning packages (sim, mpi, flow, ...) " +
		"and internal/serve from importing internal/sim; the packages exempt from simtime " +
		"must never hold simulation state or the engine's vocabulary",
	AppliesTo: func(pkgPath string) bool { return fenceOf(pkgPath) >= 0 },
	Run:       runImportfence,
}

// fenceOf returns the index of pkgPath's row in fences, or -1.
func fenceOf(pkgPath string) int {
	for i, f := range fences {
		if isPkg(pkgPath, f.pkg) {
			return i
		}
	}
	return -1
}

func runImportfence(pass *Pass) {
	fence := fences[fenceOf(pass.Pkg.Path())]
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			for _, banned := range fence.banned {
				if isPkg(path, banned) {
					pass.Reportf(imp.Path.Pos(), fence.msg, path)
				}
			}
		}
	}
}
