package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildHanlint compiles the hanlint binary into a temp dir.
func buildHanlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hanlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building hanlint: %v\n%s", err, out)
	}
	return bin
}

// runHanlint runs bin over ./... inside a throwaway single-package module
// (no deps beyond the standard library, so no network) laid out from
// files, and returns its combined output and exit code.
func runHanlint(t *testing.T, bin string, files map[string]string, args ...string) (string, int) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(bin, append(args, "./...")...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("running hanlint: %v\n%s", err, out)
	}
	return string(out), 0
}

// TestStandaloneReportsTestFiles proves the one driver analyzes test
// files: findings in an in-package _test.go file and in an external
// package vfix_test are reported, and a //hanlint:allow in a test file
// suppresses its finding without being reported stale.
func TestStandaloneReportsTestFiles(t *testing.T) {
	bin := buildHanlint(t)
	files := map[string]string{
		"go.mod":  "module example.com/vfix\n\ngo 1.22\n",
		"vfix.go": "// Package vfix is a test-file fixture.\npackage vfix\n",
		"vfix_test.go": `package vfix

import (
	"math/rand"
	"testing"
	"time"
)

func TestViolations(t *testing.T) {
	if time.Now().IsZero() {
		t.Fatal("unreachable")
	}
	if rand.Intn(2) > 1 {
		t.Fatal("unreachable")
	}
}
`,
		"ext_test.go": `package vfix_test

import (
	"testing"
	"time"
)

func TestExternal(t *testing.T) {
	time.Sleep(0)
}
`,
		"allow_test.go": `package vfix

import (
	"testing"
	"time"
)

func TestAllowed(t *testing.T) {
	//hanlint:allow fence the fixture's reviewed exception
	_ = time.Since(time.Time{})
}
`,
	}

	out, code := runHanlint(t, bin, files)
	if code != 2 {
		t.Fatalf("hanlint exited %d, want 2 (findings in test files)\n%s", code, out)
	}
	for _, want := range []string{
		"vfix_test.go:10:5: fence: wall-clock time.Now",
		"vfix_test.go:13:5: fence: rand.Intn draws from the process-global source",
		"ext_test.go:9:2: fence: wall-clock time.Sleep",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(strings.TrimSpace(out), "\n") + 1; n != 3 || strings.Contains(out, "allow_test.go") {
		t.Errorf("want exactly the 3 findings above, none in allow_test.go; got %d lines:\n%s", n, out)
	}

	out, code = runHanlint(t, bin, files, "-allows")
	if code != 0 || !strings.Contains(out, "allow_test.go:9\tfence\tthe fixture's reviewed exception") {
		t.Errorf("-allows exited %d without listing the test-file annotation:\n%s", code, out)
	}
}

// TestStandaloneCleanModule is the control: a module whose test file
// plays by the rules lints clean, so the failures above are the
// diagnostics and not a broken driver.
func TestStandaloneCleanModule(t *testing.T) {
	bin := buildHanlint(t)
	out, code := runHanlint(t, bin, map[string]string{
		"go.mod":   "module example.com/vclean\n\ngo 1.22\n",
		"clean.go": "// Package vclean is a test-file fixture.\npackage vclean\n\n// Double doubles.\nfunc Double(x int) int { return 2 * x }\n",
		"clean_test.go": `package vclean

import (
	"math/rand"
	"testing"
)

func TestDouble(t *testing.T) {
	// Constructed, seeded RNGs are fine in tests; only the global
	// source and wall clocks are not.
	rng := rand.New(rand.NewSource(1))
	if Double(rng.Intn(3)) > 6 {
		t.Fatal("unreachable")
	}
}
`,
	})
	if code != 0 {
		t.Fatalf("hanlint on a clean module exited %d:\n%s", code, out)
	}
}
