package detflow

import "strings"

// WallClockFuncs are the package time entry points that read or wait on
// the host clock; the fence pass bans them all. The value marks the
// entries whose results carry the clock, the value sources here: Sleep
// and AfterFunc only wait on it. Duration arithmetic, constants and
// conversions are not in the table.
var WallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"Sleep": false, "AfterFunc": false,
}

// GlobalRandFuncs are the math/rand and math/rand/v2 package-level
// functions that draw from — or reseed — the process-global source. The
// fence pass bans them; here they are value sources.
var GlobalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "IntN": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true, "N": true,
}

// sourceTaint reports whether a package-level function is an intrinsic
// nondeterminism source.
func sourceTaint(pkgPath, fn string) (Taint, bool) {
	switch {
	case pkgPath == "time" && WallClockFuncs[fn]:
		return Taint{Kind: Value, Source: "time." + fn}, true
	case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && GlobalRandFuncs[fn]:
		return Taint{Kind: Value, Source: "global rand." + fn}, true
	case pkgPath == "os" && (fn == "Getpid" || fn == "Hostname"):
		return Taint{Kind: Value, Source: "os." + fn}, true
	}
	return Taint{}, false
}

// sinkPkgs maps import-path suffixes to sink descriptions: a tainted
// argument passed to any function or method of these packages breaks the
// byte-identical (seed, plan) replay contract. The suffix form matches
// both real module paths and the short fixture paths under testdata/src.
var sinkPkgs = []struct{ suffix, desc string }{
	{"internal/sim", "sim engine event time"},
	{"internal/flow", "flow rate/capacity"},
	{"internal/mpi", "MPI message schedule"},
	{"internal/autotune", "autotune table entry"},
	{"internal/metrics", "recorded metric value"},
	{"internal/trace", "trace value"},
}

// sinkDesc resolves a package path to its sink description, or "".
func sinkDesc(pkgPath string) string {
	for _, s := range sinkPkgs {
		if pkgPath == s.suffix || strings.HasSuffix(pkgPath, "/"+s.suffix) {
			return s.desc
		}
	}
	return ""
}

// execPkg reports whether pkgPath is the parallel measurement executor,
// whose worker closures run on host goroutines: unsynchronized mutation
// of shared state from inside them is a nondeterminism source.
func execPkg(pkgPath string) bool {
	return pkgPath == "internal/exec" || strings.HasSuffix(pkgPath, "/internal/exec")
}

// IsSortCall reports whether pkgPath.fn is a package-level sorting entry
// point: it cleanses order taint from its first argument here, and makes
// the maporder pass accept a slice appended in map order (the
// collect-then-sort idiom).
func IsSortCall(pkgPath, fn string) bool {
	if pkgPath != "sort" && pkgPath != "slices" {
		return false
	}
	switch fn {
	case "Sort", "SortFunc", "SortStableFunc", "Stable", "Slice", "SliceStable",
		"Strings", "Ints", "Float64s":
		return true
	}
	return false
}
