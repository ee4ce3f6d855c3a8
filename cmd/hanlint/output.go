package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/hanrepro/han/internal/lint"
)

// relFile renders filename relative to the module root in slash form;
// paths outside the root pass through unchanged.
func relFile(root, filename string) string {
	if rel, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}

// --- SARIF 2.1.0, the minimal subset GitHub code scanning ingests ---

type sarifLog struct {
	Version string     `json:"version"`
	Schema  string     `json:"$schema"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID   string    `json:"id"`
	Desc sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// writeSARIF renders the diagnostics as a SARIF log at path. An empty
// diagnostic set still writes a valid log (CI uploads it unconditionally).
func writeSARIF(path string, diags []lint.Diagnostic, root string) error {
	rules := []sarifRule{{ID: "allow", Desc: sarifText{Text: "malformed or stale //hanlint:allow annotation"}}}
	for _, a := range lint.All() {
		rules = append(rules, sarifRule{ID: a.Name, Desc: sarifText{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		line := d.Pos.Line
		if line < 1 {
			line = 1
		}
		results = append(results, sarifResult{
			RuleID:  d.Pass,
			Level:   "warning",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: relFile(root, d.Pos.Filename)},
					Region:           sarifRegion{StartLine: line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Version: "2.1.0",
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "hanlint", Rules: rules}}, Results: results}},
	}
	data, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o666); err != nil {
		return fmt.Errorf("writing SARIF %s: %w", path, err)
	}
	return nil
}
