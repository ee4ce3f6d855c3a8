package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/lint"
	"github.com/hanrepro/han/internal/lint/linttest"
)

// TestSimtime drives the fence's clock and goroutine rows.
func TestSimtime(t *testing.T) {
	linttest.Run(t, lint.FenceAnalyzer, "simtime")
}

// TestWorldrand drives the fence's global-rand and rand-constructor rows.
func TestWorldrand(t *testing.T) {
	linttest.Run(t, lint.FenceAnalyzer, "worldrand")
}

// TestWorldrandHome checks the internal/mpi exemption: the seeded
// plumbing may construct RNGs, global draws stay forbidden.
func TestWorldrandHome(t *testing.T) {
	linttest.Run(t, lint.FenceAnalyzer, "internal/mpi")
}

func TestMaporder(t *testing.T) {
	linttest.Run(t, lint.MaporderAnalyzer, "maporder")
}

func TestReqwait(t *testing.T) {
	linttest.Run(t, lint.ReqwaitAnalyzer, "reqwait")
}

func TestTypederr(t *testing.T) {
	linttest.Run(t, lint.TypederrAnalyzer, "typederrfix")
}

// TestSimtimeScope pins the wall-clock and goroutine exemptions:
// internal/exec (host worker pool) and internal/serve (decision service),
// the two packages the import rows fence, may spawn host goroutines;
// everything else stays under the ban.
func TestSimtimeScope(t *testing.T) {
	for path, lifted := range map[string]bool{
		"github.com/hanrepro/han/internal/exec":  true,
		"internal/exec":                          true,
		"github.com/hanrepro/han/internal/serve": true,
		"internal/serve":                         true,
		"github.com/hanrepro/han/internal/sim":   false,
		"github.com/hanrepro/han/internal/mpi":   false,
		"simtime":                                false,
	} {
		for _, row := range []string{"clock", "go"} {
			if got := lint.FenceLifted(row, path); got != lifted {
				t.Errorf("fence row %q lifted in %q = %v, want %v", row, path, got, lifted)
			}
		}
	}
}

// fenceCase is one synthetic file for the fence's import rows: the package
// path it is checked as, its source, and the one finding's message prefix
// ("" means the path is out of scope and nothing is reported).
type fenceCase struct{ path, src, want string }

// checkFence runs the fence pass over each case. The import rows read only
// the import table, so each package is hand-built from a parse, with no
// type-checking; its empty types.Info leaves the other rows nothing to
// match.
func checkFence(t *testing.T, cases []fenceCase) {
	t.Helper()
	for _, tc := range cases {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "fenced.go", tc.src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		pkg := &lint.Package{Path: tc.path, Fset: fset, Files: []*ast.File{f},
			Types: types.NewPackage(tc.path, f.Name.Name), TypesInfo: &types.Info{}}
		diags := lint.RunAnalyzers(pkg, []*lint.Analyzer{lint.FenceAnalyzer})
		switch {
		case tc.want == "" && len(diags) != 0:
			t.Errorf("%s: got %v, want no findings out of scope", tc.path, diags)
		case tc.want != "" && (len(diags) != 1 || !strings.HasPrefix(diags[0].Message, tc.want)):
			t.Errorf("%s: got %v, want exactly one finding starting %q", tc.path, diags, tc.want)
		}
	}
}

// TestEnginebound feeds the pass a synthetic executor file: the exec fence
// bans internal/sim and leaves sync and metrics allowed.
func TestEnginebound(t *testing.T) {
	checkFence(t, []fenceCase{{"github.com/hanrepro/han/internal/exec", `package exec

import (
	"sync"

	"github.com/hanrepro/han/internal/metrics"
	"github.com/hanrepro/han/internal/sim"
)

var _ sync.Mutex
var _ = metrics.Opts{}
var _ = sim.Time(0)
`, "the executor must stay engine-agnostic: import of github.com/hanrepro/han/internal/sim hands host goroutines"}})
}

// TestEngineboundScope pins the exec fence's scoping: it applies to
// internal/exec, under either path form, and not to the engine packages
// themselves.
func TestEngineboundScope(t *testing.T) {
	checkFence(t, []fenceCase{
		{"internal/exec", "package exec\n\nimport _ \"internal/mpi\"\n", "the executor must stay engine-agnostic: import of internal/mpi"},
		{"github.com/hanrepro/han/internal/sim", "package sim\n", ""},
		{"github.com/hanrepro/han/internal/autotune", "package autotune\n\nimport _ \"github.com/hanrepro/han/internal/sim\"\n", ""},
	})
}

// TestServebound feeds the pass a synthetic serving file: serve's
// engine-adjacent imports (autotune, han) stay allowed; only internal/sim
// trips the fence.
func TestServebound(t *testing.T) {
	checkFence(t, []fenceCase{{"github.com/hanrepro/han/internal/serve", `package serve

import (
	"net"

	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/sim"
)

var _ net.Conn
var _ = autotune.Table{}
var _ = han.Config{}
var _ = sim.Time(0)
`, "the serving layer must stay engine-free: import of github.com/hanrepro/han/internal/sim gives wall-clock goroutines"}})
}

// TestServeboundScope pins the serve fence's scoping: it applies to
// internal/serve, under either path form; a package named after the
// import fence is not fenced.
func TestServeboundScope(t *testing.T) {
	checkFence(t, []fenceCase{
		{"internal/serve", "package serve\n\nimport _ \"internal/sim\"\n", "the serving layer must stay engine-free: import of internal/sim"},
		{"importfence", "package importfence\n\nimport _ \"internal/sim\"\n", ""},
	})
}

// TestTypederrScope pins the pass's package scoping: it must apply to the
// real han/coll packages and to fixture packages, and skip everything
// else (a panic in internal/sim is an invariant assertion, not an API
// discipline violation).
func TestTypederrScope(t *testing.T) {
	applies := lint.TypederrAnalyzer.AppliesTo
	for path, want := range map[string]bool{
		"github.com/hanrepro/han/internal/han":  true,
		"github.com/hanrepro/han/internal/coll": true,
		"github.com/hanrepro/han/internal/sim":  false,
		"github.com/hanrepro/han/internal/mpi":  false,
		"typederrfix":                           true,
	} {
		if got := applies(path); got != want {
			t.Errorf("typederr.AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestArenaalloc drives the fence's raw flow.Flow and mpi.Request rows.
func TestArenaalloc(t *testing.T) {
	linttest.Run(t, lint.FenceAnalyzer, "arenaalloc")
}

// TestPartitionbound drives the fence's partition-advance row.
func TestPartitionbound(t *testing.T) {
	linttest.Run(t, lint.FenceAnalyzer, "partitionbound")
}

// TestPartitionboundScope pins the owning-package exemption: only
// internal/sim hosts the coordinator's window loop, so only it may call
// the partition-advance Engine methods; every other package — including
// the executor-adjacent ones and the fixtures — is checked.
func TestPartitionboundScope(t *testing.T) {
	for path, lifted := range map[string]bool{
		"github.com/hanrepro/han/internal/sim":   true,
		"internal/sim":                           true,
		"github.com/hanrepro/han/internal/bench": false,
		"github.com/hanrepro/han/internal/exec":  false,
		"partitionbound":                         false,
	} {
		if got := lint.FenceLifted("partition advance", path); got != lifted {
			t.Errorf("fence row \"partition advance\" lifted in %q = %v, want %v", path, got, lifted)
		}
	}
}

// TestDetflow drives the taint engine end to end inside one package:
// direct flows, 2- and 3-deep call chains, argument→result flows, sinks
// inside callees, struct fields, exec-closure mutation, select arms, map
// order with and without the sort cleanse, pointer-identity sorting, and
// the seeded-RNG false-positive guard.
func TestDetflow(t *testing.T) {
	linttest.Run(t, lint.DetflowAnalyzer, "detflow", "internal/sim", "internal/exec")
}

// TestDetflowCrossPackage proves taint crosses package boundaries via
// the facts layer: the source is two calls deep in a dependency, and the
// full source→sink path is still reported at the consumer.
func TestDetflowCrossPackage(t *testing.T) {
	linttest.Run(t, lint.DetflowAnalyzer, "detflowx/use", "internal/sim", "detflowx/taintlib")
}

func TestEpochsafe(t *testing.T) {
	linttest.Run(t, lint.EpochsafeAnalyzer, "epochsafe", "internal/mpi")
}

func TestMetriclabel(t *testing.T) {
	linttest.Run(t, lint.MetriclabelAnalyzer, "metriclabel", "internal/metrics")
}

// TestFloatorder drives maporder's order-tainted half: float sums over a
// collection detflow marks order-tainted.
func TestFloatorder(t *testing.T) {
	linttest.Run(t, lint.MaporderAnalyzer, "floatorder")
}

// TestDetflowScope pins the executor exemption parity with the fence's
// clock row: summaries are still computed there (UsesFacts), diagnostics
// are not reported.
func TestDetflowScope(t *testing.T) {
	applies := lint.DetflowAnalyzer.AppliesTo
	for path, want := range map[string]bool{
		"github.com/hanrepro/han/internal/exec":  false,
		"internal/exec":                          false,
		"github.com/hanrepro/han/internal/serve": false,
		"github.com/hanrepro/han/internal/sim":   true,
		"detflow":                                true,
	} {
		if got := applies(path); got != want {
			t.Errorf("detflow.AppliesTo(%q) = %v, want %v", path, got, want)
		}
		if lifted := lint.FenceLifted("clock", path); applies(path) == lifted {
			t.Errorf("detflow.AppliesTo(%q) = %v, but the fence's clock row is lifted = %v there", path, applies(path), lifted)
		}
	}
	if !lint.DetflowAnalyzer.UsesFacts {
		t.Error("detflow must be a facts pass: dependents need its summaries")
	}
}
