package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"github.com/hanrepro/han/internal/lint"
)

// listedPkg is one `go list -test -deps -json` row. ImportPath is the
// row's ID: a test variant reads "p [p.test]" and an external test
// package "p_test [p.test]", and Imports and ImportMap name the variants
// a row compiles against by those IDs.
type listedPkg struct {
	ImportPath, Dir, ForTest string
	DepOnly                  bool
	GoFiles, TestGoFiles     []string
	Imports                  []string
	ImportMap                map[string]string
	Module                   *struct{ Dir string }
}

// walk type-checks every module row of `go list -test -deps patterns`,
// dependencies before dependents, and hands each to visit with whether
// its findings are reported. A pattern-matched package reports its
// "p [p.test]" row (its plain row when it has no in-package tests) and
// its "p_test" row; the in-package test variant holds the non-test files
// too, so every file is reported once. The rows it supersedes and the
// dependency variants tests recompile are loaded for their types and
// facts only. Standard-library rows (the intrinsic models cover them),
// rows with no files and the generated ".test" mains are skipped. walk
// returns the module root.
func walk(patterns []string, visit func(p listedPkg, pkg *lint.Package, report bool)) (string, error) {
	args := append([]string{"list", "-test", "-deps",
		"-json=ImportPath,Dir,ForTest,DepOnly,GoFiles,TestGoFiles,Imports,ImportMap,Module"}, patterns...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%v\n%s", err, ee.Stderr)
		}
		return "", fmt.Errorf("go list %s: %w", strings.Join(patterns, " "), err)
	}
	root := ""
	loader := lint.NewLoader()
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return "", fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Module == nil || len(p.GoFiles) == 0 || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		root = p.Module.Dir
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := loader.Load(p.ImportPath, files, p.ImportMap)
		if err != nil {
			return "", err
		}
		visit(p, pkg, !p.DepOnly && (p.ForTest != "" || len(p.TestGoFiles) == 0))
	}
	return root, nil
}

// runStandalone analyzes the packages matching patterns, test files
// included. Every loaded row runs the analyzers, so interprocedural
// passes see the facts of everything it imports, but diagnostics are
// kept only for the reported rows. It also returns the module root.
func runStandalone(patterns []string, analyzers []*lint.Analyzer) ([]lint.Diagnostic, string, error) {
	factsByID := make(map[string]lint.Facts)
	var diags []lint.Diagnostic
	root, err := walk(patterns, func(p listedPkg, pkg *lint.Package, report bool) {
		deps := make(map[string]lint.Facts)
		for _, id := range p.Imports {
			if f, ok := factsByID[id]; ok {
				deps[id] = f
			}
		}
		ds, facts := lint.RunAnalyzersFacts(pkg, analyzers, deps)
		factsByID[p.ImportPath] = facts
		if report {
			diags = append(diags, ds...)
		}
	})
	return diags, root, err
}

// runAllows prints every //hanlint:allow annotation in the reported rows
// of the matched packages — the reviewed-debt inventory — as file:line,
// pass, reason.
func runAllows(patterns []string) error {
	var rows []lint.Allow
	root, err := walk(patterns, func(_ listedPkg, pkg *lint.Package, report bool) {
		if report {
			rows = append(rows, lint.AllowAnnotations(pkg)...)
		}
	})
	if err != nil {
		return err
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i].Pos, rows[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, al := range rows {
		fmt.Printf("%s:%d\t%s\t%s\n", relFile(root, al.Pos.Filename), al.Pos.Line, al.Pass, al.Reason)
	}
	fmt.Printf("# %d allow annotation(s)\n", len(rows))
	return nil
}
