package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/coll"
)

func TestScalePresetsAreValid(t *testing.T) {
	for name, sc := range scales {
		for _, spec := range []struct {
			label string
			ranks int
		}{
			{"shaheen", sc.Shaheen.Ranks()},
			{"stampede", sc.Stampede.Ranks()},
			{"tuning", sc.Tuning.Ranks()},
		} {
			if spec.ranks <= 0 {
				t.Errorf("%s/%s: no ranks", name, spec.label)
			}
		}
		if err := sc.Shaheen.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := sc.Stampede.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := sc.Tuning.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if sc.TaskNodes < 2 {
			t.Errorf("%s: task benchmarks need >= 2 nodes", name)
		}
		if len(sc.Small) == 0 || len(sc.Large) == 0 || len(sc.Space.Msgs) == 0 {
			t.Errorf("%s: empty sweep axes", name)
		}
		if ts := sc.taskSpec(); ts.Nodes != sc.TaskNodes {
			t.Errorf("%s: taskSpec has %d nodes", name, ts.Nodes)
		}
	}
}

func TestPaperScaleMatchesThePaper(t *testing.T) {
	p := scales["paper"]
	if p.Shaheen.Ranks() != 4096 {
		t.Errorf("paper Shaheen should be 4096 processes, got %d", p.Shaheen.Ranks())
	}
	if p.Stampede.Ranks() != 1536 {
		t.Errorf("paper Stampede should be 1536 processes, got %d", p.Stampede.Ranks())
	}
	if p.Tuning.Nodes != 64 || p.Tuning.PPN != 12 {
		t.Errorf("paper tuning machine should be 64x12, got %dx%d", p.Tuning.Nodes, p.Tuning.PPN)
	}
	if p.ASPIters != 1536 {
		t.Errorf("paper ASP should time 1536 iterations, got %d", p.ASPIters)
	}
}

func TestTaskConfigsCoverSubmodulesAndAlgs(t *testing.T) {
	cfgs := taskConfigs(64 << 10)
	seenMods := map[string]bool{}
	seenAlgs := map[coll.Alg]bool{}
	for _, c := range cfgs {
		seenMods[c.IMod] = true
		seenAlgs[c.IBAlg] = true
		if c.FS != 64<<10 {
			t.Errorf("config fs = %d", c.FS)
		}
	}
	for _, m := range []string{"libnbc", "adapt"} {
		if !seenMods[m] {
			t.Errorf("task configs missing module %s", m)
		}
	}
	for _, a := range []coll.Alg{coll.AlgBinomial, coll.AlgBinary, coll.AlgChain} {
		if !seenAlgs[a] {
			t.Errorf("task configs missing algorithm %v", a)
		}
	}
}

// The ablations are one list: -all runs it, and the -ablate help string and
// the unknown-name error print it. The package comment and README's
// command-line reference, which cannot, must name it as it stands.
func TestAblationListIsTheDocumentedOne(t *testing.T) {
	names := ablationNames()
	for _, file := range []string{"main.go", filepath.Join("..", "..", "README.md")} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), names) {
			t.Errorf("%s does not list the ablations as %q", file, names)
		}
	}
}
