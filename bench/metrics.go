package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one metric of BENCHMARK.json. The two lists below are
// the benchmark's vocabulary: bench_test.go checks them against
// BENCHMARK.json, and every run prints exactly one of the lists.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is printed with --trace 0, from untraced phases only.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"qps", "1/s", "higher"},
	{"p50_us", "us", "lower"},
	{"p90_us", "us", "lower"},
	{"delivery_ratio", "ratio", "higher"},
	{"hops_mean", "hops", "lower"},
	{"heap_mb", "MiB", "lower"},
}

// perLayer is printed with --trace 1: spans, registry counts, probes.
// A metric whose layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"cluster.query_self_ns", "ns", "lower"},
	{"transport.stack_self_ns", "ns", "lower"},
	{"transport.base_self_ns", "ns", "lower"},
	{"node.handle_self_ns", "ns", "lower"},
	{"node.rpcs_per_query", "1/query", "lower"},
	{"node.failed_rpcs_per_query", "1/query", "lower"},
	{"node.forwards_per_query", "1/query", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead_pct", "%", "lower"},
	{"transport.pool_dials", "count", "lower"},
	{"transport.pool_conns_open", "count", "lower"},
	{"transport.retries_per_query", "1/query", "lower"},
	{"transport.rpc_errors_per_query", "1/query", "lower"},
	{"wire.frames_per_flush", "count", "higher"},
	{"wire.bytes_per_query", "B/query", "lower"},
	{"allocs_per_op", "1/query", "lower"},
	{"bytes_per_op", "B/query", "lower"},
	{"fail_share", "ratio", "lower"},
	{"loadgen.late_p99_us", "us", "lower"},
	{"loadgen.gen_ns_per_query", "ns", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"tail.p99_us", "us", "lower"},
	{"tail.p999_us", "us", "lower"},
	{"tail.max_us", "us", "lower"},
	{"hierarchy.build_s", "s", "lower"},
	{"core.new_s", "s", "lower"},
	{"attack.execute_s", "s", "lower"},
	{"core.prepare_s", "s", "lower"},
	{"transport.mem_call_ns", "ns", "lower"},
	{"transport.stack_call_ns", "ns", "lower"},
	{"transport.pool_call_c1_ns", "ns", "lower"},
	{"transport.pool_call_c32_ns", "ns", "lower"},
	{"wire.encode_query_ns", "ns", "lower"},
	{"wire.decode_query_ns", "ns", "lower"},
	{"wire.encode_result_ns", "ns", "lower"},
	{"wire.decode_result_ns", "ns", "lower"},
	{"wire.frame_bytes_query", "B", "lower"},
	{"wire.frame_bytes_result", "B", "lower"},
	{"routing.nexthops_healthy_ns", "ns", "lower"},
	{"routing.nexthops_dead_ns", "ns", "lower"},
	{"routing.repair_order_ns", "ns", "lower"},
	{"overlay.route_healthy_ns", "ns", "lower"},
	{"overlay.route_attack_ns", "ns", "lower"},
	{"overlay.gen_table_ns", "ns", "lower"},
	{"core.query_healthy_ns", "ns", "lower"},
	{"obs.observe_ns", "ns", "lower"},
	{"obs.counter_inc_ns", "ns", "lower"},
	{"idspace.distance_ns", "ns", "lower"},
	{"overload.admit_ns", "ns", "lower"},
}

// value is one measured metric; Samples (how many observations stand
// behind it) is printed in the table but is not part of the result line.
type value struct {
	Value   float64
	Samples int64
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	attempted int64
	failed    int64
	correct   bool
	values    map[string]value
}

func newReport(workload string) *report {
	return &report{workload: workload, correct: true, values: make(map[string]value)}
}

func (r *report) set(name string, v float64, samples int64) {
	r.values[name] = value{Value: v, Samples: samples}
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the table of defs and then the result line. A metric the
// run did not produce, or produced as a non-number, is a bug in the
// benchmark and fails the run.
func (r *report) print(w io.Writer, defs []metricDef) error {
	line := resultLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]resultMetric, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.workload, d.Name, v.Value)
		}
		fmt.Fprintf(w, "%-12s %-30s %16.4f %-8s n=%d\n", r.workload, d.Name, v.Value, d.Unit, v.Samples)
		line.Metrics[d.Name] = resultMetric{Value: v.Value, Unit: d.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// quantile returns the q-quantile of sorted xs by the nearest-rank rule,
// so the value is always one that was observed.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n == 0 {
		return 0
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// liveOnlyLayers are the per-layer metrics only a live workload has a
// source for (spans, registry counts, the open loop); sim_attack reports
// them as 0. simOnlyLayers is the converse: the simulator's set-up split.
var liveOnlyLayers = []string{
	"cluster.query_self_ns", "transport.stack_self_ns", "transport.base_self_ns", "node.handle_self_ns",
	"node.rpcs_per_query", "node.failed_rpcs_per_query", "node.forwards_per_query",
	"trace.coverage", "trace.overhead_pct",
	"transport.pool_dials", "transport.pool_conns_open", "transport.retries_per_query",
	"transport.rpc_errors_per_query", "wire.frames_per_flush", "wire.bytes_per_query",
	"loadgen.late_p99_us", "loadgen.gen_ns_per_query", "tail.p99_us", "tail.p999_us", "tail.max_us",
}

var simOnlyLayers = []string{"hierarchy.build_s", "core.new_s", "attack.execute_s", "core.prepare_s"}
