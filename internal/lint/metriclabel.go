package lint

import (
	"encoding/json"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// MetriclabelAnalyzer enforces the metrics contract mechanically: every
// metric family is registered with exactly one label-key set across the
// whole program (OpenMetrics forbids mixed label keys within a family,
// and the exporter's canonical ordering relies on it), and every family
// in the repository's mpi_*/han_*/hand_*/exec_* namespaces appears in
// docs/OBSERVABILITY.md, the observability contract.
var MetriclabelAnalyzer = &Analyzer{
	Name: "metriclabel",
	Doc: "every metric family must be registered with exactly one label-key set " +
		"program-wide, and mpi_*/han_*/hand_*/exec_* families must be documented in " +
		"docs/OBSERVABILITY.md",
	UsesFacts: true,
	Run:       runMetriclabel,
}

// metricReg is one metrics.Opts registration site, the metriclabel fact
// unit.
type metricReg struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"` // sorted label keys
	At     string   `json:"at"`               // file:line, for cross-package conflict messages
}

var ownedMetricName = regexp.MustCompile(`^(mpi|han|hand|exec)_`)

func runMetriclabel(pass *Pass) {
	info := pass.TypesInfo

	// Harvest this package's registrations from metrics.Opts composite
	// literals. Dynamic names (non-literal) cannot be checked statically
	// and are skipped.
	type site struct {
		reg metricReg
		pos ast.Node
	}
	var sites []site
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok || !isMetricsOpts(info, cl) {
				return true
			}
			name := ""
			var labels []string
			for _, el := range cl.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				switch key.Name {
				case "Name":
					if lit, ok := kv.Value.(*ast.BasicLit); ok {
						if s, err := strconv.Unquote(lit.Value); err == nil {
							name = s
						}
					}
				case "Labels":
					labels = labelKeys(kv.Value)
				}
			}
			if name == "" {
				return true
			}
			p := pass.Fset.Position(cl.Pos())
			sites = append(sites, site{
				reg: metricReg{
					Name:   name,
					Labels: labels,
					At:     filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line),
				},
				pos: cl,
			})
			return true
		})
	}

	// Label sets already seen: dependency facts first, then this package
	// in source order.
	seen := map[string]metricReg{}
	var depRegs []metricReg
	for _, facts := range pass.DepFacts {
		blob, ok := facts["metriclabel"]
		if !ok {
			continue
		}
		var regs []metricReg
		if json.Unmarshal(blob, &regs) == nil {
			depRegs = append(depRegs, regs...)
		}
	}
	sort.Slice(depRegs, func(i, j int) bool {
		if depRegs[i].Name != depRegs[j].Name {
			return depRegs[i].Name < depRegs[j].Name
		}
		return depRegs[i].At < depRegs[j].At
	})
	for _, r := range depRegs {
		if _, ok := seen[r.Name]; !ok {
			seen[r.Name] = r
		}
	}

	doc, docFound := observabilityDoc(pass)
	for _, s := range sites {
		r := s.reg
		if prev, ok := seen[r.Name]; ok {
			if !equalStrings(prev.Labels, r.Labels) {
				pass.Reportf(s.pos.Pos(),
					"metric %q registered with label keys [%s] but already registered with [%s] (%s); "+
						"a family must use exactly one label-key set",
					r.Name, strings.Join(r.Labels, " "), strings.Join(prev.Labels, " "), prev.At)
			}
		} else {
			seen[r.Name] = r
		}
		if docFound && ownedMetricName.MatchString(r.Name) && !strings.Contains(doc, r.Name) {
			pass.Reportf(s.pos.Pos(),
				"metric %q is not documented in docs/OBSERVABILITY.md; every mpi_*/han_*/hand_*/exec_* "+
					"family is part of the observability contract", r.Name)
		}
	}

	// Export the folded registration set (deps + ours) for dependents.
	folded := make([]metricReg, 0, len(seen))
	for _, r := range seen {
		folded = append(folded, r)
	}
	sort.Slice(folded, func(i, j int) bool { return folded[i].Name < folded[j].Name })
	if blob, err := json.Marshal(folded); err == nil {
		pass.ExportFact(blob)
	}
}

// isMetricsOpts reports whether cl is a composite literal of the metrics
// package's Opts type.
func isMetricsOpts(info *types.Info, cl *ast.CompositeLit) bool {
	tv, ok := info.Types[cl]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Name() != "Opts" {
		return false
	}
	path := named.Obj().Pkg().Path()
	return isPkg(path, "internal/metrics")
}

// labelKeys extracts the sorted literal keys of a Labels map literal;
// non-literal keys are ignored.
func labelKeys(e ast.Expr) []string {
	cl, ok := e.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	var keys []string
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if lit, ok := kv.Key.(*ast.BasicLit); ok {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				keys = append(keys, s)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// observabilityDoc loads docs/OBSERVABILITY.md from the module root
// enclosing the analyzed files. When the contract file does not exist
// (e.g. an out-of-repo unit under go vet), the documentation check is
// skipped; the label-set check still runs.
func observabilityDoc(pass *Pass) (string, bool) {
	if len(pass.Files) == 0 {
		return "", false
	}
	dir := filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	if !filepath.IsAbs(dir) {
		if wd, err := os.Getwd(); err == nil {
			dir = filepath.Join(wd, dir)
		}
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			b, err := os.ReadFile(filepath.Join(dir, "docs", "OBSERVABILITY.md"))
			if err != nil {
				return "", false
			}
			return string(b), true
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", false
		}
		dir = parent
	}
}
