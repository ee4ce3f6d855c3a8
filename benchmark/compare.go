package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is the outcome of one (metric, workload) row.
type verdict string

const (
	same       verdict = "same"
	worse      verdict = "worse"
	better     verdict = "better"
	unresolved verdict = "unresolved" // A's own spread exceeds the bound: the pair cannot tell
	changed    verdict = "changed"    // an exact per-layer count differs
	missing    verdict = "missing"
)

// judge applies one end-to-end metric's bound to a pair of values.
func judge(d endToEndDef, a, b stat) verdict {
	if a.Value == 0 {
		return unresolved
	}
	change := (b.Value - a.Value) / a.Value // signed below so that positive means worse
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case a.spread() > d.Bound:
		return unresolved
	case change > d.Bound:
		return worse
	case change < -d.Bound:
		return better
	}
	return same
}

// compareResults prints one row per (end-to-end metric, workload) with
// every ratio beside its base, then one row per exact per-layer count that
// both sides recorded. It returns an error if any row is worse or B failed
// more ops than A.
func compareResults(w io.Writer, a, b *results) error {
	fmt.Fprintf(w, "A: commit %s, %d run(s), nproc %d, %s\nB: commit %s, %d run(s), nproc %d, %s\n",
		a.Host.Commit, a.Runs, a.Host.NProc, a.Host.CPU, b.Host.Commit, b.Runs, b.Host.NProc, b.Host.CPU)
	fmt.Fprintf(w, "%-20s %-28s %16s %16s %-6s %9s %7s %7s  %s\n", "workload", "metric", "A (base)", "B", "unit", "B vs A", "spreadA", "bound", "verdict")
	bad := 0
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-20s %s\n", wl.name, missing)
			continue
		}
		for _, d := range endToEnd {
			sa, oka := ra.EndToEnd[d.Name]
			sb, okb := rb.EndToEnd[d.Name]
			if !oka || !okb {
				fmt.Fprintf(w, "%-20s %-28s %s\n", wl.name, d.Name, missing)
				continue
			}
			v := judge(d, sa, sb)
			if v == worse {
				bad++
			}
			fmt.Fprintf(w, "%-20s %-28s %16.6f %16.6f %-6s %+8.2f%% %6.2f%% %6.0f%%  %s\n",
				wl.name, d.Name, sa.Value, sb.Value, d.Unit, 100*(sb.Value-sa.Value)/sa.Value, 100*sa.spread(), 100*d.Bound, v)
		}
		fa, fb := float64(ra.Failed)/float64(max(ra.Attempted, 1)), float64(rb.Failed)/float64(max(rb.Attempted, 1))
		v := same
		if fb > fa {
			v = worse
			bad++
		}
		fmt.Fprintf(w, "%-20s %-28s %16.6f %16.6f %-6s %9s %7s %7s  %s\n", wl.name, "failed/attempted", fa, fb, "ratio", "", "", "0", v)
		for _, d := range perLayer {
			sa, oka := ra.PerLayer[d.Name]
			sb, okb := rb.PerLayer[d.Name]
			if !d.Exact || !oka || !okb {
				continue
			}
			v := same
			if sa.Value != sb.Value {
				v = changed
			}
			fmt.Fprintf(w, "%-20s %-28s %16.6f %16.6f %-6s %9s %7s %7s  %s\n", wl.name, d.Name, sa.Value, sb.Value, d.Unit, "", "", "exact", v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d row(s) worse than the bound allows", bad)
	}
	return nil
}

// compareFiles compares two results.json files written by a run of every
// workload.
func compareFiles(w io.Writer, pathA, pathB string) error {
	var sides [2]results
	for i, path := range []string{pathA, pathB} {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &sides[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return compareResults(w, &sides[0], &sides[1])
}
