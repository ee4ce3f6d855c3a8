package lint

import (
	"go/ast"
	"strings"

	"github.com/hanrepro/han/internal/lint/detflow"
)

// randConstructors are allowed only in the world's seeded plumbing
// (internal/mpi) and in test files: everywhere else a private rand.New
// hides a seed that the (seed, plan, machine) replay triple does not
// control. Tests construct RNGs with literal seeds, which is exactly as
// reproducible as the world plumbing.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
}

// WorldrandAnalyzer forbids the global math/rand source and ad hoc RNG
// construction outside internal/mpi. Every random draw in the simulation
// must flow from the world's seeded RNG (mpi.World.Seed) so a (seed, plan,
// machine) triple replays to byte-identical simulated times.
var WorldrandAnalyzer = &Analyzer{
	Name: "worldrand",
	Doc: "forbid global math/rand functions everywhere and rand.New/NewSource outside " +
		"internal/mpi; draws must flow from the world's seeded RNG",
	Run: runWorldrand,
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// worldRandHome reports whether pkgPath is the blessed home of the seeded
// RNG plumbing.
func worldRandHome(pkgPath string) bool {
	return isPkg(pkgPath, "internal/mpi")
}

func runWorldrand(pass *Pass) {
	home := worldRandHome(pass.Pkg.Path())
	for _, f := range pass.Files {
		inTest := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, fn := pkgFuncCall(pass.TypesInfo, call)
			if !isRandPkg(path) {
				return true
			}
			switch {
			case detflow.GlobalRandFuncs[fn]:
				pass.Reportf(call.Pos(),
					"rand.%s draws from the process-global source; draw from the world's "+
						"seeded RNG (mpi.World.Seed plumbing) so fault plans replay", fn)
			case randConstructors[fn] && !home && !inTest:
				pass.Reportf(call.Pos(),
					"rand.%s constructs an RNG outside internal/mpi; thread randomness "+
						"from the world's seeded RNG instead of hiding a seed here", fn)
			}
			return true
		})
	}
}
