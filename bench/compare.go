package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readSamples(path string) (*samples, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s samples
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges one (workload, metric) pair, a being the parent's runs
// and b the change's. unresolved: either side's runs are spread wider
// than the bound, so the bound cannot be checked. worse: b's median is
// worse than a's by more than the bound. better: b's median is better by
// more than the spread of a's own runs. same: neither.
func verdict(a, b []float64, better string, bound float64) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if max(spread(a), spread(b)) > bound {
		return "unresolved"
	}
	gain := (mb - ma) / ma
	if better == "lower" {
		gain = -gain
	}
	switch {
	case gain < -bound:
		return "worse"
	case gain > spread(a) && gain > 0:
		return "better"
	default:
		return "same"
	}
}

// compareFiles prints one row per (workload, end-to-end metric): the
// table a performance change pastes into its description.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readSamples(pathA)
	if err != nil {
		return err
	}
	b, err := readSamples(pathB)
	if err != nil {
		return err
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("run length differs: %v s in %s, %v s in %s", a.Seconds, pathA, b.Seconds, pathB)
	}
	fmt.Fprintf(w, "| workload | metric | unit | better | median a | median b | b/a | bound | verdict |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a.Values[wl.Name][m.Name], b.Values[wl.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				return fmt.Errorf("%s %s: missing from one of the files", wl.Name, m.Name)
			}
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			fmt.Fprintf(w, "| %s | %s | %s | %s | %.4f | %.4f | %.4f | %.2f | %s |\n",
				wl.Name, m.Name, m.Unit, m.Better, ma, mb, mb/ma, m.Bound, verdict(xa, xb, m.Better, m.Bound))
		}
	}
	return nil
}
