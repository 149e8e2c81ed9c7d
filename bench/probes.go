package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/idspace"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/overload"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// Probes time exported functions of single layers on inputs shaped like
// the workloads', from outside the layer. They do not depend on the
// workload or the seed of the run that prints them.

// probeSink keeps results alive so the compiler cannot drop a probed call.
var probeSink atomic.Int64

// timeOp calls op in batches until d has passed and returns ns per call.
func timeOp(d time.Duration, op func()) (float64, int64) {
	const batch = 256
	for i := 0; i < batch; i++ {
		op() // warm caches and pools
	}
	var n int64
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < batch; i++ {
			op()
		}
		n += batch
	}
	return float64(time.Since(start)) / float64(n), n
}

func echo(_ context.Context, req wire.Message) (wire.Message, error) { return req, nil }

// threeHopQuery and threeHopResult are the messages of the live
// workloads' last hop: three names on the path.
func threeHopQuery() *wire.Query {
	return &wire.Query{Target: "n3-1.n2-5.n1-11", Mode: wire.ModeHierarchical, Hops: 2, TTL: 1601,
		Path: []string{".", "n1-11", "n2-5.n1-11"}}
}

func threeHopResult() *wire.QueryResult {
	return &wire.QueryResult{Found: true, Answer: "127.0.0.1:40123", Hops: 3,
		Path: []string{".", "n1-11", "n2-5.n1-11", "n3-1.n2-5.n1-11"}}
}

// probeView is a 16-entry published view (the level-1 ring of the live
// topology is 16 wide), suspects of them marked suspect from the far end.
func probeView(suspects int) *routing.View {
	v := &routing.View{N: 1 << 16, SelfIndex: 0, Design: routing.Enhanced}
	for i, d := 0, uint64(1); i < 16; i, d = i+1, d+1+d/2 {
		id := idspace.FromUint64(d)
		v.Entries = append(v.Entries, routing.Entry{
			Peer: routing.Peer{Index: int(d)}, ID: id, Dist: id, HasNephews: true,
			Nephews: []routing.Peer{{Index: 0}, {Index: 1}},
		})
	}
	ccw := idspace.FromUint64(uint64(v.N - 1))
	v.CCW = routing.Entry{Peer: routing.Peer{Index: v.N - 1}, ID: ccw, Dist: ccw}
	v.HasCCW = true
	for i := 0; i < suspects; i++ {
		v.Entries[len(v.Entries)-1-i].Suspicion = 1
	}
	return v
}

// probeCount is how many timed probes runProbes makes.
const probeCount = 18

// runProbes fills in every probe metric, dividing total among the probes.
func runProbes(ctx context.Context, rep *report, total time.Duration) error {
	d := total / probeCount
	set := rep.set

	// transport: Mem echo, the default stack over it, pooled loopback TCP.
	mem := transport.NewMem()
	if _, err := mem.Listen("mem://echo", echo); err != nil {
		return err
	}
	ping := wire.Message{Type: wire.TypeProbe}
	call := func(tr transport.Transport, addr string) func() {
		return func() {
			if _, err := tr.Call(ctx, addr, ping); err != nil {
				panic(fmt.Sprintf("probe: echo call: %v", err)) // only a bug in the probe can cause it
			}
		}
	}
	memNs, n := timeOp(d, call(mem, "mem://echo"))
	set("transport.mem_call_ns", memNs, n)
	stacked, err := transport.NewStack(transport.WithBase(mem), transport.WithAddr("mem://probe"),
		transport.WithMetrics(obs.NewRegistry()))
	if err != nil {
		return err
	}
	stackNs, n := timeOp(d, call(stacked, "mem://echo"))
	set("transport.stack_call_ns", stackNs-memNs, n)

	pool := transport.NewPooledTCP(transport.PoolConfig{MaxConnsPerPeer: runtime.GOMAXPROCS(0)})
	defer pool.Close()
	ln, err := pool.Listen("127.0.0.1:0", echo)
	if err != nil {
		return err
	}
	defer ln.Close()
	addr := ln.(*transport.PooledListener).Addr()
	c1Ns, n := timeOp(d, call(pool, addr))
	set("transport.pool_call_c1_ns", c1Ns, n)
	var calls atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := call(pool, addr)
			for time.Since(start) < d {
				op()
				calls.Add(1)
			}
		}()
	}
	wg.Wait()
	set("transport.pool_call_c32_ns", float64(time.Since(start))/float64(calls.Load()), calls.Load())

	// wire: the binary codec on the last hop's messages.
	qMsg := wire.Typed(wire.TypeQuery, threeHopQuery())
	rMsg := wire.Typed(wire.TypeQueryResult, threeHopResult())
	var buf []byte
	for _, m := range []struct {
		name string
		msg  wire.Message
	}{{"query", qMsg}, {"result", rMsg}} {
		enc, err := wire.Binary.AppendMessage(nil, m.msg)
		if err != nil {
			return err
		}
		set("wire.frame_bytes_"+m.name, float64(len(enc)), 1)
		ns, n := timeOp(d, func() {
			buf, _ = wire.Binary.AppendMessage(buf[:0], m.msg) // encoded once above without error
			probeSink.Add(int64(len(buf)))
		})
		set("wire.encode_"+m.name+"_ns", ns, n)
		ns, n = timeOp(d, func() {
			out, err := wire.Binary.DecodeMessage(enc)
			if err != nil {
				panic(fmt.Sprintf("probe: decode %s: %v", m.name, err))
			}
			probeSink.Add(int64(len(out.Type)))
		})
		set("wire.decode_"+m.name+"_ns", ns, n)
	}

	// routing: one forwarding decision and one repair ranking.
	od := idspace.FromUint64(40000)
	var plan routing.Plan
	for name, v := range map[string]*routing.View{"healthy": probeView(0), "dead": probeView(6)} {
		ns, n := timeOp(d, func() { routing.NextHops(v, od, false, &plan) })
		set("routing.nexthops_"+name+"_ns", ns, n)
	}
	repairView := probeView(6)
	ns, n := timeOp(d, func() { routing.RepairLaunchOrder(repairView, &plan) })
	set("routing.repair_order_ns", ns, n)

	// overlay: one route in a ring as wide as sim_attack's, and one table.
	rng := xrand.New(1)
	for name, dead := range map[string]int{"healthy": 0, "attack": simTChildren * 30 / 100} {
		ov, err := overlay.New(overlay.Config{N: simTChildren, K: simK, Seed: 1})
		if err != nil {
			return err
		}
		for _, i := range xrand.SampleDistinct(rng, simTChildren, dead) {
			ov.SetAlive(int(i), false)
		}
		ov.Repair()
		var alive []int
		for i := 0; i < simTChildren; i++ {
			if ov.Alive(i) {
				alive = append(alive, i)
			}
		}
		ns, n := timeOp(d, func() {
			res, err := ov.Route(alive[rng.IntN(len(alive))], rng.IntN(simTChildren), overlay.RouteOptions{})
			if err != nil {
				panic(fmt.Sprintf("probe: route: %v", err))
			}
			probeSink.Add(int64(res.Hops))
		})
		set("overlay.route_"+name+"_ns", ns, n)
		if name == "healthy" {
			var epoch uint64
			ns, n := timeOp(d, func() { epoch++; ov.RegenerateTable(int(epoch%simTChildren), epoch) })
			set("overlay.gen_table_ns", ns, n)
		}
	}

	// core: a whole simulated query on the sim_attack cell, nobody attacked.
	inst, _, err := buildSimInstance(1, false)
	if err != nil {
		return err
	}
	ns, n = timeOp(d, func() {
		res, err := inst.sys.QueryNode(inst.dst, core.QueryOptions{Rng: rng})
		if err != nil {
			panic(fmt.Sprintf("probe: sim query: %v", err))
		}
		probeSink.Add(int64(res.Hops))
	})
	set("core.query_healthy_ns", ns, n)

	// The small things a live RPC calls a few times each.
	reg := obs.NewRegistry()
	hist, ctr := reg.Histogram("probe_seconds"), reg.Counter("probe_total")
	ns, n = timeOp(d, func() { hist.Observe(9 * time.Microsecond) })
	set("obs.observe_ns", ns, n)
	ns, n = timeOp(d, ctr.Inc)
	set("obs.counter_inc_ns", ns, n)
	a, b := idspace.FromName("n1-3"), idspace.FromName("n1-11")
	ns, n = timeOp(d, func() { probeSink.Add(int64(idspace.Distance(a, b)[0])) })
	set("idspace.distance_ns", ns, n)
	guard := overload.NewGuard(overload.Config{
		Admission:   overload.AdmissionConfig{Rate: 1e9, Burst: 1e9},
		Concurrency: overload.AIMDConfig{Max: 1 << 20},
	}, nil)
	ns, n = timeOp(d, func() {
		tk, _ := guard.Admit("client", wire.TypeQuery)
		tk.Done(time.Microsecond)
	})
	set("overload.admit_ns", ns, n)
	return nil
}
