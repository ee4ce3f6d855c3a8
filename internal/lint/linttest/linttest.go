// Package linttest runs lint analyzers against fixture packages under
// testdata/src, in the style of golang.org/x/tools/go/analysis/analysistest:
// a fixture line carries `// want "regexp"` comments naming the
// diagnostics the analyzer must report there, and the runner fails the
// test on any missing or unexpected diagnostic. //hanlint:allow
// annotations are honored, so fixtures exercise the escape hatch too.
package linttest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/lint"
)

// wantMark locates the want directive inside a comment; it may trail
// other directives on the same line (e.g. a //hanlint:allow under test).
var wantMark = regexp.MustCompile("(?:^|\\s)want\\s+[\"`]")

// wantRe matches one quoted expectation after the want directive, in
// either spelling: "..." (with \" escapes) or `...` (no escapes — the
// friendlier form for patterns full of quotes and backslashes).
var wantRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the fixture package at testdata/src/<fixture> (the fixture
// path doubles as the package's import path, so path-scoped rules like
// the fence's internal/mpi rand exemption are testable) and checks the
// analyzer's diagnostics against the fixture's // want comments.
//
// Optional deps name fixture packages to load and analyze first, in
// order: their exported facts are offered to the main fixture, and the
// main fixture may import them (the loader serves already-loaded
// packages by import path). Their own // want comments, if any, are not
// checked — only the main fixture's are.
//
// No binary links it: internal/lint's fixture tests (TestReqwait,
// TestDetflow and one per analyzer) are its callers.
func Run(t *testing.T, a *lint.Analyzer, fixture string, deps ...string) {
	t.Helper()
	loader := lint.NewLoader()
	load := func(path string) *lint.Package {
		// Glob fails only on a malformed pattern; a missing dir is no files.
		files, _ := filepath.Glob(filepath.Join("testdata", "src", filepath.FromSlash(path), "*.go"))
		pkg, err := loader.Load(path, files, nil)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		return pkg
	}
	facts := make(map[string]lint.Facts)
	for _, dep := range deps {
		_, facts[dep] = lint.RunAnalyzersFacts(load(dep), []*lint.Analyzer{a}, facts)
	}
	pkg := load(fixture)
	diags, _ := lint.RunAnalyzersFacts(pkg, []*lint.Analyzer{a}, facts)
	dir := filepath.Join("testdata", "src", filepath.FromSlash(fixture))

	wants := collectWants(t, pkg.Fset, dir)
	for _, d := range diags {
		key := posKey(d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", d.Pos, d.Pass, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.raw)
			}
		}
	}
}

// posKey is the file:line key Run matches diagnostics to expectations by,
// for internal/lint's fixture tests (TestReqwait and the rest).
func posKey(file string, line int) string {
	return filepath.Base(file) + ":" + strconv.Itoa(line)
}

// collectWants re-parses the fixture files (the loaded AST is also
// available, but a fresh parse keeps this package independent of loader
// internals) and extracts // want expectations keyed by file:line, for Run
// and so for internal/lint's fixture tests (TestReqwait and the rest).
func collectWants(t *testing.T, _ *token.FileSet, dir string) map[string][]*expectation {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("re-parsing fixtures: %v", err)
	}
	// ParseDir returns maps; collect and sort the files so expectations on
	// one line accumulate in a stable order (hanlint's own maporder pass
	// flagged the original map-range version of this loop).
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	sort.Slice(files, func(i, j int) bool {
		return fset.Position(files[i].Pos()).Filename < fset.Position(files[j].Pos()).Filename
	})
	wants := make(map[string][]*expectation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				loc := wantMark.FindStringIndex(text)
				if loc == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(text[loc[0]:], -1) {
					raw := m[1]
					if m[2] != "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					key := posKey(pos.Filename, pos.Line)
					wants[key] = append(wants[key], &expectation{re: re, raw: raw})
				}
			}
		}
	}
	return wants
}
