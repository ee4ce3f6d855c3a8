package lint

import (
	"go/ast"
	"go/types"
)

// partitionAdvanceAPI lists the sim.Engine methods that exist solely so
// the parallel coordinator can advance a partition through one
// conservative window. They are the third leg of the engine-ownership
// proof (DESIGN.md §14): RunUntil hands back control mid-run with the
// event heap in a resumable state, and NextEventTime/LiveProcs expose the
// scheduling facts the window computation needs. In any other hands these
// methods are a foot-gun — interleaving two RunUntil drivers, or branching
// on NextEventTime outside the barrier protocol, silently breaks the
// bit-identity contract with the serial oracle.
var partitionAdvanceAPI = map[string]bool{
	"RunUntil":      true,
	"NextEventTime": true,
	"LiveProcs":     true,
}

// PartitionboundAnalyzer forbids calls to the partition-advance subset of
// the sim.Engine API (RunUntil, NextEventTime, LiveProcs) outside
// internal/sim. Workloads drive an engine with Engine.Run or through a
// sim.Parallel coordinator; the incremental-advance primitives belong to
// the coordinator's window loop alone, where the barrier protocol
// guarantees every partition observes the same horizon sequence. The
// importfence pass keeps the executor from importing sim at all; this
// pass keeps the packages that legitimately import sim from re-deriving
// the coordinator's job with weaker ordering guarantees.
var PartitionboundAnalyzer = &Analyzer{
	Name: "partitionbound",
	Doc: "forbid calls to the partition-advance Engine API (RunUntil, " +
		"NextEventTime, LiveProcs) outside internal/sim; drive engines with " +
		"Engine.Run or a sim.Parallel coordinator so windowed advancement " +
		"stays behind the barrier protocol",
	AppliesTo: partitionboundApplies,
	Run:       runPartitionbound,
}

func partitionboundApplies(pkgPath string) bool {
	// The owning package hosts the coordinator; everything else is fair
	// game, including the "partitionbound*" fixture packages.
	return !isPkg(pkgPath, "internal/sim")
}

// isSimEngine reports whether t (after stripping pointers) is the named
// type Engine from an internal/sim package.
func isSimEngine(t types.Type) bool {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Name() != "Engine" {
		return false
	}
	return isPkg(named.Obj().Pkg().Path(), "internal/sim")
}

func runPartitionbound(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !partitionAdvanceAPI[sel.Sel.Name] {
				return true
			}
			recv, ok := pass.TypesInfo.Selections[sel]
			if !ok {
				return true // a package-qualified call, not a method
			}
			if !isSimEngine(recv.Recv()) {
				return true
			}
			pass.Reportf(call.Pos(),
				"partition-advance call Engine.%s outside internal/sim: windowed "+
					"advancement belongs to the sim.Parallel coordinator's barrier loop; "+
					"drive the engine with Engine.Run or a coordinator instead",
				sel.Sel.Name)
			return true
		})
	}
}
