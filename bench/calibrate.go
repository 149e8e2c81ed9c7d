package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the tools read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// samples holds the end-to-end values of repeated runs: what -calibrate
// saves and -compare reads.
type samples struct {
	Seconds float64                         `json:"seconds"`
	Values  map[string]map[string][]float64 `json:"values"` // workload → metric → one value per run
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns —
// the rule the benchmark's acceptance is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// calibrateAll runs every workload n times, untraced, each run a process
// of its own with its own seed — as the driver runs them — and prints
// each end-to-end metric's quartiles, its spread, and the bound that
// spread calls for next to the one BENCHMARK.json has.
func calibrateAll(w io.Writer, specPath string, seed uint64, seconds float64, n int, save string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := samples{Seconds: seconds, Values: make(map[string]map[string][]float64)}
	for _, name := range workloadNames {
		out.Values[name] = make(map[string][]float64)
		for r := 0; r < n; r++ {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed+uint64(r), 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, r, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d: result line: %w", name, r, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s run %d: correct=%v failed=%d of %d", name, r, res.Correct, res.Failed, res.Attempted)
			}
			for m, v := range res.Metrics {
				out.Values[name][m] = append(out.Values[name][m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "calibrate: %s run %d/%d done\n", name, r+1, n)
		}
	}
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %14s %8s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "wants")
	for _, name := range workloadNames {
		for _, m := range spec.EndToEnd {
			xs := out.Values[name][m.Name]
			q1, q2, q3 := quartiles(xs)
			sp := spread(xs)
			fmt.Fprintf(w, "%-12s %-16s %14.4f %14.4f %14.4f %8.4f %8.2f %8.4f\n",
				name, m.Name, q1, q2, q3, sp, m.Bound, max(m.Bound, 2*sp))
		}
	}
	if save == "" {
		return nil
	}
	raw, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(save, append(raw, '\n'), 0o644)
}
