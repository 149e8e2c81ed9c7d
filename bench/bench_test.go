package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/transport"
)

// smokeScale shrinks every workload so the whole set runs in seconds.
var smokeScale = scale{setupRepeats: 1, maxInstances: 2, spanBudget: 20_000, rateFactor: 0.1, simInstances: 2, simUnits: 8}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode: BENCHMARK.json and the program name the same
// workloads and metrics, with the same units, in names the contract allows.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", names, workloadNames)
	}
	var e2e []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json and the program differ")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: not a name or unit the contract allows", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmokeEveryWorkload runs every workload in both trace modes for a
// fifth of a second and checks the output contract: every metric of the
// mode's list exactly once, finite, with its unit, and a result line with
// exactly the four keys. Traced live runs must have computed
// trace.coverage from a span file that exists and is not empty.
func TestSmokeEveryWorkload(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			out := t.TempDir()
			rep, err := runWorkload(ctx, name, smokeScale, 1, 0.2, traced, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.correct || rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, rep.correct, rep.attempted, rep.failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var buf bytes.Buffer
			if err := rep.print(&buf, defs); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			count := make(map[string]int)
			for _, l := range lines[:len(lines)-1] {
				f := strings.Fields(l)
				if len(f) != 5 || f[0] != name {
					t.Fatalf("%s: malformed table line %q", name, l)
				}
				count[f[1]]++
			}
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: result line: %v", name, err)
			}
			if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
				t.Errorf("%s: result line keys %v, want exactly correct, attempted, failed, metrics", name, res)
			}
			var metrics map[string]resultMetric
			if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result line, want %d", name, traced, len(metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := metrics[d.Name]
				if !ok || count[d.Name] != 1 {
					t.Errorf("%s traced=%v: metric %s printed %d times (in result line: %v)", name, traced, d.Name, count[d.Name], ok)
					continue
				}
				if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v %q, want a finite value in %q", name, d.Name, m.Value, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, m.Value)
				}
			}
			if traced && name != "sim_attack" {
				spans, err := readTrace(filepath.Join(out, "trace-"+name+".json"))
				if err != nil || len(spans) == 0 {
					t.Fatalf("%s: span file: %d spans, err %v", name, len(spans), err)
				}
				if c := metrics["trace.coverage"].Value; c <= 0 {
					t.Errorf("%s: trace.coverage = %v from %d spans", name, c, len(spans))
				}
			}
		}
	}
}

// TestDecoratorsPreserveUnwrap: the span decorators sit above and below
// the stack without hiding its base — transport.Unwrap still reaches the
// Mem, so node.Suppress still makes a node unreachable through them.
func TestDecoratorsPreserveUnwrap(t *testing.T) {
	ctx := context.Background()
	rec := newRecorder(1000)
	rec.on.Store(true)
	mem := transport.NewMem()
	stacked, err := transport.NewStack(
		transport.WithBase(&spanned{inner: mem, rec: rec, callKind: spanBase, serveKind: spanServed}),
		transport.WithAddr("mem://x"), transport.WithMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	outer := &spanned{inner: stacked, rec: rec, callKind: spanStack, serveKind: spanHandler}
	if got := transport.Unwrap(outer); got != transport.Transport(mem) {
		t.Fatalf("Unwrap through the decorators = %T, want the Mem base", got)
	}

	h, err := assemble(ctx, assembleConfig{seed: 3, reg: obs.NewRegistry(), rec: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer h.stop()
	victim := h.nodes["n1-4"]
	if _, err := sendQuery(ctx, h.client, victim.Addr(), "n1-4", 64); err != nil {
		t.Fatalf("before suppression: %v", err)
	}
	victim.Suppress(true)
	if _, err := sendQuery(ctx, h.client, victim.Addr(), "n1-4", 64); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("suppressed node answered through the decorators: err = %v", err)
	}
}

// TestAssemblerMatchesCluster: the benchmark's assembler over Mem builds
// the system cluster.New builds — same answer, hop count and path for the
// same seed, healthy and attacked — so the traced numbers describe the
// system the untraced ones measured.
func TestAssemblerMatchesCluster(t *testing.T) {
	ctx := context.Background()
	const seed = 11
	for _, attacked := range []bool{false, true} {
		spec := liveSpec{name: "equivalence", attack: attacked}
		ref, _, err := setUp(ctx, spec, seed, func(seed uint64) (*liveSystem, error) {
			return clusterSystem(ctx, seed, obs.NewRegistry())
		})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := setUp(ctx, spec, seed, func(seed uint64) (*liveSystem, error) {
			return assembledSystem(ctx, assembleConfig{seed: seed, reg: obs.NewRegistry(), rec: newRecorder(10)})
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range targetNames() {
			if i%3 != 0 {
				continue
			}
			a, errA := ref.raw(ctx, name)
			b, errB := got.raw(ctx, name)
			if errA != nil || errB != nil {
				t.Fatalf("attacked=%v %s: cluster err %v, assembler err %v", attacked, name, errA, errB)
			}
			if a.Found != b.Found || a.Answer != b.Answer || a.Hops != b.Hops || !reflect.DeepEqual(a.Path, b.Path) {
				t.Fatalf("attacked=%v %s:\ncluster   %+v\nassembler %+v", attacked, name, a, b)
			}
		}
		ref.stop()
		got.stop()
	}
}

// TestQuartilesMatchPython pins the quartile rule to the one the
// benchmark's acceptance uses: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{12, 3, 7, 9, 21, 5, 8, 14, 30, 11}
	q1, q2, q3 := quartiles(xs)
	if q1 != 6.5 || q2 != 10 || q3 != 15.75 {
		t.Fatalf("quartiles = %v %v %v, want 6.5 10 15.75", q1, q2, q3)
	}
}
