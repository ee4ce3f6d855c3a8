package main

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"github.com/hanrepro/han/internal/lint"
)

// TestSARIFShape unmarshals a written log and checks the fields code
// scanning ingests: version, driver name, rule IDs for every pass, and
// one physical location per result. An empty run must still be valid.
func TestSARIFShape(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "lint.sarif")
	d := lint.Diagnostic{
		Pass:    "detflow",
		Pos:     token.Position{Filename: filepath.Join(root, "x.go"), Line: 7, Column: 1},
		Message: "nondeterministic value flows into sink",
	}
	if err := writeSARIF(path, []lint.Diagnostic{d}, root); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF does not round-trip: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q with %d runs, want 2.1.0 with 1", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "hanlint" {
		t.Errorf("driver name %q", run.Tool.Driver.Name)
	}
	rules := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		rules[r.ID] = true
	}
	for _, a := range lint.All() {
		if !rules[a.Name] {
			t.Errorf("no SARIF rule for pass %q", a.Name)
		}
	}
	if len(run.Results) != 1 {
		t.Fatalf("%d results, want 1", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "detflow" || res.Locations[0].PhysicalLocation.ArtifactLocation.URI != "x.go" {
		t.Errorf("result = %+v", res)
	}
	if res.Locations[0].PhysicalLocation.Region.StartLine != 7 {
		t.Errorf("start line = %d, want 7", res.Locations[0].PhysicalLocation.Region.StartLine)
	}

	// Empty diagnostics still produce a parseable log with a results array.
	if err := writeSARIF(path, nil, root); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatal(err)
	}
	if log.Runs[0].Results == nil {
		t.Error("empty run serialized results as null, want []")
	}
}
