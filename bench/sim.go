package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/xrand"
)

// The sim_attack cell: the §6.2 / Figure 9 hierarchy at a size whose
// set-up is milliseconds — 200 level-1 nodes, 2000 children under the
// attacked node T, 8 under one of those — with T and 30 % of its ring
// shut down, and every query addressed to a level-3 node below T.
const (
	simLevel1    = 200
	simTChildren = 2000
	simDChildren = 8
	simK         = 5
	simQ         = 10
	simVictims   = simLevel1 * 30 / 100

	// How long a backward walk gets is frozen per overlay instance, so
	// one instance is one draw of hops_mean (spread ≈12 % across seeds);
	// a run spreads its queries over scale.simInstances (32) of them.
	//
	// A round is scale.simUnits (256) units; unit u runs simPerUnit queries
	// on every instance with the generator xrand.Derive(instance seed, u).
	// Units are handed to nproc workers, yet the round's outcome is a
	// function of the seed alone — and every round replays the same
	// streams, so all rounds must agree on (delivered, failed, Σhops)
	// exactly.
	simPerUnit = 64

	streamCampaign = 0xca3b
)

type simInstance struct {
	sys  *core.System
	dst  *hierarchy.Node
	seed uint64
}

// simSetup is the set-up time of one instance, split by the layer that
// spent it.
type simSetup struct {
	tree, sys, attack, prepare time.Duration
}

func (s simSetup) total() time.Duration { return s.tree + s.sys + s.attack + s.prepare }

func buildSimInstance(seed uint64, attacked bool) (simInstance, simSetup, error) {
	var st simSetup
	t0 := time.Now()
	tr := hierarchy.New()
	var tNode *hierarchy.Node
	for i := 0; i < simLevel1; i++ {
		n, err := tr.AddChild(tr.Root(), fmt.Sprintf("s%d", i))
		if err != nil {
			return simInstance{}, st, err
		}
		if i == 0 {
			tNode = n
		}
	}
	for i := 0; i < simTChildren; i++ {
		if _, err := tr.AddChild(tNode, fmt.Sprintf("c%d", i)); err != nil {
			return simInstance{}, st, err
		}
	}
	v2 := tNode.Children()[simTChildren/2]
	for i := 0; i < simDChildren; i++ {
		if _, err := tr.AddChild(v2, fmt.Sprintf("g%d", i)); err != nil {
			return simInstance{}, st, err
		}
	}
	dst := v2.Children()[0]
	tr.Warm() // concurrent queries must find the tree's lazy caches filled
	st.tree = time.Since(t0)

	t0 = time.Now()
	sys, err := core.New(tr, core.Config{K: simK, Q: simQ, Seed: seed, LazyOverlayAbove: 1})
	if err != nil {
		return simInstance{}, st, err
	}
	st.sys = time.Since(t0)

	if attacked {
		t0 = time.Now()
		camp, err := attack.Random(xrand.Derive(seed, streamCampaign), tNode, simVictims)
		if err != nil {
			return simInstance{}, st, err
		}
		if err := camp.Execute(sys); err != nil {
			return simInstance{}, st, err
		}
		st.attack = time.Since(t0)
	}

	t0 = time.Now()
	sys.Prepare(dst)
	st.prepare = time.Since(t0)
	return simInstance{sys: sys, dst: dst, seed: seed}, st, nil
}

// simOutcome is what a unit, and by summation a round, observed.
type simOutcome struct {
	delivered, failed, hops int64
}

func (o *simOutcome) add(p simOutcome) {
	o.delivered += p.delivered
	o.failed += p.failed
	o.hops += p.hops
}

func runSimUnit(insts []simInstance, u int) (simOutcome, error) {
	var out simOutcome
	for i := range insts {
		in := &insts[i]
		rng := xrand.Derive(in.seed, uint64(u))
		for n := 0; n < simPerUnit; n++ {
			res, err := in.sys.QueryNode(in.dst, core.QueryOptions{Rng: rng})
			if err != nil {
				return out, err
			}
			if res.Outcome == core.QueryDelivered {
				out.delivered++
				out.hops += int64(res.Hops)
			} else {
				out.failed++
			}
		}
	}
	return out, nil
}

// runSimRound runs every unit once on workers goroutines. It returns the
// round's outcome (summed in unit order) and each unit's host time per
// simulated query, in µs.
func runSimRound(insts []simInstance, units, workers int) (simOutcome, []float64, error) {
	outs := make([]simOutcome, units)
	unitUs := make([]float64, units)
	var next atomic.Int64
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1) - 1)
				if u >= units {
					return
				}
				t0 := time.Now()
				o, err := runSimUnit(insts, u)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				unitUs[u] = float64(time.Since(t0)) / 1e3 / float64(len(insts)*simPerUnit)
				outs[u] = o
			}
		}()
	}
	wg.Wait()
	var sum simOutcome
	for _, o := range outs {
		sum.add(o)
	}
	return sum, unitUs, firstErr
}

func runSim(sc scale, seed uint64, seconds float64, traced bool) (*report, error) {
	rep := newReport("sim_attack")
	insts := make([]simInstance, sc.simInstances)
	parts := make([][]float64, 5) // tree, sys, attack, prepare, total
	for i := range insts {
		in, st, err := buildSimInstance(xrand.Derive(seed, uint64(i)).Uint64(), true)
		if err != nil {
			return nil, err
		}
		insts[i] = in
		for p, d := range []time.Duration{st.tree, st.sys, st.attack, st.prepare, st.total()} {
			parts[p] = append(parts[p], d.Seconds())
		}
	}
	rep.set("setup_s", median(parts[4]), int64(sc.simInstances))
	rep.set("heap_mb", heapInuseMB(), 1)

	workers := runtime.GOMAXPROCS(0)
	// Warm-up round, not measured: lazy routing tables and nephew memos
	// fill. Its outcome is the reference every timed round must repeat.
	want, _, err := runSimRound(insts, sc.simUnits, workers)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(seconds * float64(time.Second))
	if traced {
		budget = budget * 3 / 10 // the rest goes to the probes
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	perRound := int64(sc.simUnits * sc.simInstances * simPerUnit)
	var rates, p50s, p90s []float64
	start := time.Now()
	for len(rates) < 2 || time.Since(start) < budget {
		t0 := time.Now()
		got, us, err := runSimRound(insts, sc.simUnits, workers)
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(perRound)/time.Since(t0).Seconds())
		sort.Float64s(us)
		p50s = append(p50s, quantile(us, 0.50))
		p90s = append(p90s, quantile(us, 0.90))
		if got != want {
			// Same seed, same streams, different outcome: the simulator is
			// not the function of its seed the figures rely on.
			fmt.Fprintf(os.Stderr, "sim_attack: round %d observed %+v, the warm-up round %+v\n", len(rates), got, want)
			rep.correct = false
		}
	}
	runtime.ReadMemStats(&gc1)
	rounds := int64(len(rates))
	rep.attempted = rounds * perRound
	rep.failed = rounds * want.failed
	if want.delivered == 0 {
		return nil, fmt.Errorf("sim_attack: no query was delivered")
	}
	if !traced {
		rep.set("qps", median(rates), rounds)
		// Host time per simulated query, one sample per unit: the median
		// over rounds of each round's percentile, as the live workloads
		// take the median over cells.
		rep.set("p50_us", median(p50s), rounds)
		rep.set("p90_us", median(p90s), rounds)
		rep.set("delivery_ratio", float64(want.delivered)/float64(perRound), perRound)
		rep.set("hops_mean", float64(want.hops)/float64(want.delivered), want.delivered)
		return rep, nil
	}
	for _, name := range liveOnlyLayers {
		rep.set(name, 0, 0)
	}
	rep.set("hierarchy.build_s", median(parts[0]), int64(sc.simInstances))
	rep.set("core.new_s", median(parts[1]), int64(sc.simInstances))
	rep.set("attack.execute_s", median(parts[2]), int64(sc.simInstances))
	rep.set("core.prepare_s", median(parts[3]), int64(sc.simInstances))
	rep.set("allocs_per_op", float64(gc1.Mallocs-gc0.Mallocs)/float64(rep.attempted), rep.attempted)
	rep.set("bytes_per_op", float64(gc1.TotalAlloc-gc0.TotalAlloc)/float64(rep.attempted), rep.attempted)
	rep.set("fail_share", float64(want.failed)/float64(perRound), perRound)
	rep.set("runtime.gc_cycles", float64(gc1.NumGC-gc0.NumGC), 1)
	rep.set("runtime.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6, int64(gc1.NumGC-gc0.NumGC))
	return rep, nil
}
