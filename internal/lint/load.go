package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path (fixtures use their directory
	// path under testdata/src, e.g. "simtime" or "internal/mpi").
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader type-checks file lists into Packages. It builds its packages
// from source with the standard library's source importer, so it needs no
// export data.
//
// Packages it has already loaded are cached by ID and served to later
// loads, so a package can import one loaded before it (a test variant its
// recompiled dependencies, a fixture a sibling fixture) as long as the
// dependency is loaded first.
type Loader struct {
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*types.Package
}

// NewLoader returns a Loader with a shared file set and import cache.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, std: importer.ForCompiler(fset, "source", nil), cache: make(map[string]*types.Package)}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Load parses and type-checks files as one package and caches it under
// id. An id in `go list -test` form ("p [p.test]", "p_test [p.test]")
// names a test variant; the package's path is the part before the
// bracket. importMap resolves an import path in the source to the ID of
// the variant loaded for it; unmapped paths are IDs themselves. Imports
// not loaded earlier (the standard library) come from source.
func (l *Loader) Load(id string, files []string, importMap map[string]string) (*Package, error) {
	path, _, _ := strings.Cut(id, " ")
	var parsed []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	if len(parsed) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", id)
	}
	sort.Slice(parsed, func(i, j int) bool {
		return l.fset.Position(parsed[i].Pos()).Filename < l.fset.Position(parsed[j].Pos()).Filename
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		if mapped, ok := importMap[imp]; ok {
			imp = mapped
		}
		if p := l.cache[imp]; p != nil {
			return p, nil
		}
		return l.std.Import(imp)
	})}
	tpkg, err := conf.Check(path, l.fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", id, err)
	}
	l.cache[id] = tpkg
	return &Package{Path: path, Fset: l.fset, Files: parsed, Types: tpkg, TypesInfo: info}, nil
}
