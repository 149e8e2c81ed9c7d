// Command bench is the repository's benchmark: whole queries through live
// node.Nodes (over Mem and over loopback pooled TCP) and through the
// simulator, every answer verified, end-to-end metrics from untraced
// phases and per-layer metrics from spans, registry counts and probes.
// See README.md in this directory and BENCHMARK.json at the repository
// root.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"
)

var workloadNames = []string{"mem_healthy", "tcp_fanin", "mem_attack", "sim_attack"}

// scale sizes a run. Every real run uses fullScale; bench_test.go shrinks
// it so that all workloads fit in a few seconds.
type scale struct {
	setupRepeats int     // builds of a single-instance live system, so that setup_s is a median
	maxInstances int     // cap on a live workload's instances
	spanBudget   int     // spans one traced pass keeps, and writes
	rateFactor   float64 // multiplies the frozen open-loop rates
	simInstances int
	simUnits     int
}

var fullScale = scale{setupRepeats: 5, maxInstances: 8, spanBudget: 400_000, rateFactor: 1, simInstances: 32, simUnits: 256}

// runWorkload runs one workload once and returns its report: the
// end-to-end metrics with traced false, the per-layer ones with true.
func runWorkload(ctx context.Context, name string, sc scale, seed uint64, seconds float64, traced bool, outDir string) (*report, error) {
	var rep *report
	var err error
	if name == "sim_attack" {
		rep, err = runSim(sc, seed, seconds, traced)
	} else {
		i := slices.IndexFunc(liveSpecs(), func(s liveSpec) bool { return s.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
		}
		rep, err = runLive(ctx, liveSpecs()[i], sc, seed, seconds, traced, outDir)
	}
	if err != nil || !traced {
		return rep, err
	}
	// The probes get the 0.3 of a traced run that its phases left.
	return rep, runProbes(ctx, rep, time.Duration(seconds*0.3*float64(time.Second)))
}

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload (default: all, both trace modes)")
		seed      = flag.Uint64("seed", 1, "workload seed: targets, attack victims, hierarchy seeds")
		seconds   = flag.Float64("seconds", 24, "measured seconds per run")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
		outDir    = flag.String("out", "bench/out", "directory for trace files")
		calibrate = flag.Int("calibrate", 0, "run every workload this many times (seeds seed..seed+n-1) and print each metric's quartiles and spread")
		save      = flag.String("save", "", "with -calibrate: also write the samples to this file, for -compare")
		compare   = flag.Bool("compare", false, "compare two -save files: bench -compare a.json b.json")
		spec      = flag.String("spec", "BENCHMARK.json", "path of BENCHMARK.json (bounds for -calibrate and -compare)")
	)
	flag.Parse()
	ctx := context.Background()
	var err error
	switch {
	case *compare && flag.NArg() != 2:
		err = fmt.Errorf("-compare wants two sample files")
	case *compare:
		err = compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
	case *calibrate > 0:
		err = calibrateAll(os.Stdout, *spec, *seed, *seconds, *calibrate, *save)
	case *seconds <= 0 || *trace < 0 || *trace > 1:
		err = fmt.Errorf("want -seconds > 0 and -trace 0 or 1")
	case *workload != "":
		err = runAndPrint(ctx, *workload, *seed, *seconds, *trace == 1, *outDir)
	default:
		for _, name := range workloadNames {
			for _, traced := range []bool{false, true} {
				if err == nil {
					err = runAndPrint(ctx, name, *seed, *seconds, traced, *outDir)
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func runAndPrint(ctx context.Context, name string, seed uint64, seconds float64, traced bool, outDir string) error {
	rep, err := runWorkload(ctx, name, fullScale, seed, seconds, traced, outDir)
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return rep.print(os.Stdout, defs)
}
