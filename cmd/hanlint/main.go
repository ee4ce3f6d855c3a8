// Command hanlint runs the repository's invariant analyzers (package
// internal/lint) over Go packages: `hanlint ./internal/...` resolves the
// patterns with `go list -test -deps`, type-checks each package from
// source — its _test.go files and external test package included — and
// prints violations. Dependencies are analyzed first, in one process, so
// interprocedural passes (detflow, metriclabel) see whole-program facts.
// It must run from inside the module.
//
// -sarif also writes the findings as a SARIF log; -allows prints the
// //hanlint:allow inventory instead of linting.
//
// Exit status: 0 clean, 1 operational error, 2 violations found.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/hanrepro/han/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated subset of passes to run")
	list := flag.Bool("list", false, "list the available passes and exit")
	sarifOut := flag.String("sarif", "", "write a SARIF 2.1.0 log to this file (written even when clean)")
	allows := flag.Bool("allows", false, "list every //hanlint:allow annotation (file:line, pass, reason) and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hanlint [-only pass,pass] [-sarif file] [-allows] packages...\n\n")
		fmt.Fprintf(os.Stderr, "passes:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fail(err)
	}

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(1)
	}

	if *allows {
		if err := runAllows(args); err != nil {
			fail(err)
		}
		return
	}

	diags, root, err := runStandalone(args, analyzers)
	if err != nil {
		fail(err)
	}
	if *sarifOut != "" {
		if err := writeSARIF(*sarifOut, diags, root); err != nil {
			fail(err)
		}
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hanlint:", err)
	os.Exit(1)
}

func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return lint.All(), nil
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a := lint.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown pass %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
