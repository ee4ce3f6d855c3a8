package lint

import (
	"strings"

	"github.com/hanrepro/han/internal/lint/detflow"
)

// DetflowAnalyzer is the whole-program determinism taint analysis: it
// tracks nondeterministic values (wall-clock reads, global RNG draws,
// pointer identity, racy exec-closure mutation) and nondeterministic
// orderings (map iteration, unordered select arms, pointer-identity
// sorts) across function and package boundaries, and reports the full
// source→sink call path when one reaches a simulation-side consumer
// (sim event times, flow rates, MPI message schedules, autotune tables,
// metrics, traces). See package detflow for the engine.
var DetflowAnalyzer = &Analyzer{
	Name: "detflow",
	Doc: "interprocedural nondeterminism taint analysis: wall-clock/RNG/map-order/" +
		"select/pointer-identity/exec-mutation sources must not reach sim, flow, mpi, " +
		"autotune, metrics, or trace sinks; reports the full source→sink call path",
	AppliesTo: detflowApplies,
	UsesFacts: true,
	Run:       runDetflow,
}

// detflowApplies exempts the host packages from diagnostics, matching the
// fence pass's clock and goroutine rows: the measurement executor's whole
// purpose is host-side timing, and the fence's import rows keep it from
// importing engine-owning packages. Summaries are still computed there
// (UsesFacts), so taint flowing *through* exec-returned values is visible
// to callers.
func detflowApplies(pkgPath string) bool {
	return !hostPkgs(pkgPath, false)
}

func runDetflow(pass *Pass) {
	res := detflowResult(pass)
	blob, err := detflow.EncodeFacts(detflowFolded(pass))
	if err == nil {
		pass.ExportFact(blob)
	}
	if pass.Analyzer.AppliesTo != nil && !pass.Analyzer.AppliesTo(pass.Pkg.Path()) {
		return
	}
	for _, d := range res.Diags {
		pass.Reportf(d.Pos, "%s", d.Message)
	}
}

// detflowResult runs (or returns the memoized) taint analysis for the
// package. The result is shared with the maporder pass through the
// pass cache.
func detflowResult(pass *Pass) *detflow.Result {
	const key = "detflow:result"
	if pass.Cache != nil {
		if v, ok := pass.Cache.Get(key); ok {
			return v.(*detflow.Result)
		}
	}
	res := detflow.Analyze(&detflow.Config{
		Fset:    pass.Fset,
		Files:   pass.Files,
		Pkg:     pass.Pkg,
		Info:    pass.TypesInfo,
		PkgPath: pass.Pkg.Path(),
		Deps:    detflowDeps(pass.DepFacts),
	})
	if pass.Cache != nil {
		pass.Cache.Put(key, res)
	}
	return res
}

// detflowDeps merges the detflow facts of every dependency into one
// summary table. Entries are folded on export, so first-order deps carry
// their own transitive closure; later entries for the same key win,
// which is harmless because a function's summary is identical wherever
// it was folded from.
func detflowDeps(deps map[string]Facts) map[string]*detflow.Summary {
	out := make(map[string]*detflow.Summary)
	for _, facts := range deps {
		blob, ok := facts["detflow"]
		if !ok {
			continue
		}
		sums, err := detflow.DecodeFacts(blob)
		if err != nil {
			continue
		}
		for k, s := range sums {
			out[k] = s
		}
	}
	return out
}

// detflowFolded is this package's fact export: its own summaries plus
// everything its dependencies exported, so dependents see the whole
// transitive closure in their first-order facts.
func detflowFolded(pass *Pass) map[string]*detflow.Summary {
	folded := detflowDeps(pass.DepFacts)
	for k, s := range detflowResult(pass).Summaries {
		if !strings.HasPrefix(k, ".") { // defensive: keys are "path.Func"
			folded[k] = s
		}
	}
	return folded
}
