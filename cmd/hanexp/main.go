// Command hanexp regenerates every table and figure of the HAN paper's
// evaluation on the simulated clusters. Each experiment prints the same
// rows/series the paper reports; absolute values come from the simulation
// model, so shapes (who wins, by what factor, where crossovers fall) are
// the comparison target, not the authors' testbed numbers.
//
// Usage:
//
//	hanexp -all                 # everything, at the selected scale
//	hanexp -fig 10              # one figure (2,3,4,6,7,8,9,10,11,12,13,14,15)
//	hanexp -tab 3               # Table III (ASP)
//	hanexp -ablate pipeline     # one ablation: pipeline, split, overlap, heuristics, levels, online, gpu, noise
//	hanexp -scale small|mid|paper
//
// The paper scale (4096/1536 processes, full sweeps) reproduces the
// original experiment sizes and takes correspondingly long; small and mid
// preserve the hardware ratios at reduced node counts.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// ablations are the -ablate experiments, in the order -all runs them.
var ablations = []struct {
	name string
	run  func(Scale)
}{
	{"pipeline", AblatePipeline},
	{"split", AblateSplit},
	{"overlap", AblateOverlap},
	{"heuristics", AblateHeuristics},
	{"levels", AblateLevels},
	{"online", AblateOnline},
	{"gpu", AblateGPU},
	{"noise", AblateNoise},
}

// ablationNames lists the ablations for the help text and the
// unknown-name error.
func ablationNames() string {
	names := make([]string, len(ablations))
	for i, a := range ablations {
		names[i] = a.name
	}
	return strings.Join(names, ", ")
}

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (2,3,4,6,7,8,9,10,11,12,13,14,15)")
	tab := flag.Int("tab", 0, "table number to regenerate (3)")
	all := flag.Bool("all", false, "run every experiment")
	ablate := flag.String("ablate", "", "ablation to run: "+ablationNames())
	scale := flag.String("scale", "small", "experiment scale: small, mid, or paper")
	workers := flag.Int("workers", 0, "concurrent measurement workers (0 = GOMAXPROCS); output is identical for any value")
	flag.Parse()
	expWorkers = *workers

	sc, ok := scales[*scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "hanexp: unknown scale %q (want small, mid, or paper)\n", *scale)
		os.Exit(2)
	}

	switch {
	case *all:
		// Figs 8 and 9 come from one set of searches: 8 prints both.
		for _, f := range []int{2, 3, 4, 6, 7, 8, 10, 11, 12, 13, 14, 15} {
			runFig(f, sc)
		}
		runTab(3, sc)
		for _, a := range ablations {
			a.run(sc)
		}
	case *fig != 0:
		runFig(*fig, sc)
	case *tab != 0:
		runTab(*tab, sc)
	case *ablate != "":
		runAblation(*ablate, sc)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runFig(f int, sc Scale) {
	switch f {
	case 2:
		Fig2(sc)
	case 3:
		Fig3(sc)
	case 4:
		Fig4(sc)
	case 6:
		Fig6(sc)
	case 7:
		Fig7(sc)
	case 8, 9:
		Fig8and9(sc)
	case 10:
		Fig10(sc)
	case 11:
		Fig11(sc)
	case 12:
		Fig12(sc)
	case 13:
		Fig13(sc)
	case 14:
		Fig14(sc)
	case 15:
		Fig15(sc)
	default:
		fmt.Fprintf(os.Stderr, "hanexp: no such figure %d (figs 1 and 5 are design diagrams)\n", f)
		os.Exit(2)
	}
}

func runTab(t int, sc Scale) {
	if t != 3 {
		fmt.Fprintf(os.Stderr, "hanexp: no such table %d (tables I and II are schemas)\n", t)
		os.Exit(2)
	}
	Tab3(sc)
}

func runAblation(name string, sc Scale) {
	for _, a := range ablations {
		if a.name == name {
			a.run(sc)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "hanexp: unknown ablation %q (want one of %s)\n", name, ablationNames())
	os.Exit(2)
}
