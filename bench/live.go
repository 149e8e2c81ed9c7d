package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// liveSpec describes one live workload. Rates are frozen: each was chosen
// once as ≈40 % of the closed-loop qps this workload reached on the commit
// that added the benchmark (2 cores), and is never recomputed — an open
// loop whose rate follows the system's speed cannot show a speed-up.
type liveSpec struct {
	name      string
	tcp       bool // loopback pooled TCP instead of Mem
	attack    bool // seeded DoS before timing
	instances int  // independent hierarchies the query stream is spread over
	callers   int  // closed-loop callers, and the bound on open-loop dispatchers
	openRate  float64
}

func liveSpecs() []liveSpec {
	nproc := runtime.GOMAXPROCS(0)
	return []liveSpec{
		{name: "mem_healthy", instances: 1, callers: nproc, openRate: 32000},
		// Clients are pipelined over nproc connections; the rate keeps ≈1–2
		// queries in flight, where the coalescer's linger is paid, not repaid.
		{name: "tcp_fanin", tcp: true, instances: 1, callers: 32, openRate: 5000},
		// Which nodes die decides how long detours are, so one hierarchy is
		// one draw of hops_mean (spread ≈6 % across seeds); eight draws per
		// run bring that under 2 %. (Sixteen make the working set large
		// enough that qps itself gets noisier.)
		{name: "mem_attack", attack: true, instances: 8, callers: nproc, openRate: 19000},
	}
}

const (
	// failPenalty is the latency charged to a query that failed, was
	// refused or returned a wrong answer: the node's call timeout, the
	// longest a caller would have waited for it.
	failPenalty  = 2 * time.Second
	closedWindow = 500 * time.Millisecond
	openWindow   = time.Second

	streamTargets = 0x7a67
	streamAttack  = 0xa77c
)

// targetNames lists every level-3 name of the live topology in creation
// order; all instances share the naming scheme.
func targetNames() []string {
	var out []string
	for i := 0; i < liveFanouts[0]; i++ {
		for j := 0; j < liveFanouts[1]; j++ {
			for k := 0; k < liveFanouts[2]; k++ {
				out = append(out, fmt.Sprintf("n3-%d.n2-%d.n1-%d", k, j, i))
			}
		}
	}
	return out
}

// attackVictims draws the DoS: 6 of the 16 level-1 nodes and one node of
// every level-2 ring — also the rings under dead level-1 nodes, which
// queries reach through nephew pointers. Level-3 targets stay alive, so
// the paper's claim applies to every query: it must still be delivered.
// One victim per level-2 ring, not two: with Q=2 nephew pointers a ring
// that loses both nephews of an exit node is cut off for good, which
// makes delivery 1 or ≈0.88 depending on the seed alone.
func attackVictims(seed uint64) []string {
	rng := xrand.Derive(seed, streamAttack)
	var out []string
	for _, i := range xrand.SampleDistinct(rng, liveFanouts[0], 6) {
		out = append(out, fmt.Sprintf("n1-%d", i))
	}
	for i := 0; i < liveFanouts[0]; i++ {
		out = append(out, fmt.Sprintf("n2-%d.n1-%d", rng.IntN(liveFanouts[1]), i))
	}
	return out
}

type queryFunc func(ctx context.Context, target string) (wire.QueryResult, error)

// liveSystem is one running hierarchy as the harness sees it.
type liveSystem struct {
	// query is a whole lookup as a user issues it: Cluster.Query on a
	// cluster.New system, the client transport on an assembled one.
	query queryFunc
	// raw sends the same wire.Query straight to the root, below
	// Cluster.Query; on an assembled system it is query.
	raw queryFunc
	// direct asks the named node itself, which answers from its own data.
	direct   queryFunc
	suppress func(name string)
	maintain func(ctx context.Context)
	stop     func()
	// answers[i] is what targetNames()[i] must resolve to.
	answers []string
	// rec is the span recorder an assembled system was built with, if any.
	rec *recorder
}

func clusterSystem(ctx context.Context, seed uint64, reg *obs.Registry) (*liveSystem, error) {
	c, err := cluster.New(ctx, cluster.Config{Fanouts: liveFanouts, K: liveK, Q: liveQ, Seed: seed, Metrics: reg})
	if err != nil {
		return nil, err
	}
	ttl := 4 * c.Size()
	return &liveSystem{
		query: func(ctx context.Context, t string) (wire.QueryResult, error) { return c.Query(ctx, t) },
		raw: func(ctx context.Context, t string) (wire.QueryResult, error) {
			return sendQuery(ctx, c.Transport(), c.Root().Addr(), t, ttl)
		},
		direct: func(ctx context.Context, t string) (wire.QueryResult, error) {
			return c.Query(ctx, t, cluster.WithEntry(t), cluster.WithoutCoalescing())
		},
		suppress: func(name string) { _ = c.Suppress(name, true) }, // names come from the topology
		maintain: c.MaintainAll,
		stop:     c.Stop,
	}, nil
}

func assembledSystem(ctx context.Context, cfg assembleConfig) (*liveSystem, error) {
	h, err := assemble(ctx, cfg)
	if err != nil {
		return nil, err
	}
	// Direct lookups would leave one idle client connection per target in
	// the harness's pool; over TCP they get a pool of their own.
	direct, closeDirect := h.client, func() {}
	if cfg.tcp {
		p := transport.NewPooledTCP(transport.PoolConfig{})
		direct, closeDirect = p, func() { _ = p.Close() }
	}
	return &liveSystem{
		query: h.query,
		raw:   h.query,
		direct: func(ctx context.Context, t string) (wire.QueryResult, error) {
			return sendQuery(ctx, direct, h.nodes[t].Addr(), t, 4*len(h.nodes))
		},
		suppress: func(name string) { h.nodes[name].Suppress(true) },
		maintain: func(ctx context.Context) {
			for _, name := range h.order {
				h.nodes[name].MaintainOnce(ctx)
			}
		},
		stop: func() { closeDirect(); h.stop() },
		rec:  cfg.rec,
	}, nil
}

// errCutOff reports a drawn attack that leaves some target unreachable.
var errCutOff = errors.New("the drawn attack cuts a subtree off")

// setUp builds one system from seed and brings it to the state its
// workload times: answers recorded, then (attack workloads) victims
// suppressed and three maintenance rounds run, then every target looked
// up once from the root. It returns the time the system itself needed —
// recording and checking answers is the harness's work and is left out.
//
// A draw in about fifty kills every holder of a pointer to some dead
// level-1 node ("backward walk wrapped past the OD node"): the paper's
// residual failure probability, and 1/16 of that hierarchy's targets gone.
// A run is too short to estimate a 2 % event and every lost query is a
// 2 s latency sample, so such a draw comes back as errCutOff and the
// caller draws again; the workloads are ones on which no query fails.
func setUp(ctx context.Context, spec liveSpec, seed uint64, build func(seed uint64) (*liveSystem, error)) (*liveSystem, time.Duration, error) {
	t0 := time.Now()
	sys, err := build(seed)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(t0)
	for _, name := range targetNames() {
		qr, err := sys.direct(ctx, name)
		if err != nil || !qr.Found {
			sys.stop()
			return nil, 0, fmt.Errorf("%s: direct lookup of %s: found=%v err=%v", spec.name, name, qr.Found, err)
		}
		sys.answers = append(sys.answers, qr.Answer)
	}
	if spec.attack {
		t1 := time.Now()
		for _, v := range attackVictims(seed) {
			sys.suppress(v)
		}
		for r := 0; r < 3; r++ {
			sys.maintain(ctx)
		}
		took += time.Since(t1)
	}
	for i, name := range targetNames() {
		qr, err := sys.raw(ctx, name)
		switch {
		case err == nil && qr.Found && qr.Answer == sys.answers[i]:
		case spec.attack && err == nil && !qr.Found:
			sys.stop()
			return nil, 0, errCutOff
		default:
			sys.stop()
			return nil, 0, fmt.Errorf("%s: lookup of %s from the root: %+v, err %v", spec.name, name, qr, err)
		}
	}
	return sys, took, nil
}

// setUpInstance draws instance i of a run until the draw is usable and
// returns the system with the seed that produced it.
func setUpInstance(ctx context.Context, spec liveSpec, runSeed uint64, i int, build func(seed uint64) (*liveSystem, error)) (*liveSystem, time.Duration, uint64, error) {
	for draw := 0; ; draw++ {
		seed := xrand.Derive(runSeed, uint64(i)<<8|uint64(draw)).Uint64()
		sys, took, err := setUp(ctx, spec, seed, build)
		if errors.Is(err, errCutOff) && draw < 16 {
			continue
		}
		return sys, took, seed, err
	}
}

// targetStream is the precomputed query sequence: target i of the run is
// names[idx[i&mask]] on instance i%instances.
type targetStream struct {
	names []string
	idx   []uint16
	genNs float64 // generation cost per target
}

func newTargetStream(seed uint64) *targetStream {
	const n = 1 << 20
	ts := &targetStream{names: targetNames(), idx: make([]uint16, n)}
	rng := xrand.Derive(seed, streamTargets)
	t0 := time.Now()
	for i := range ts.idx {
		ts.idx[i] = uint16(rng.IntN(len(ts.names)))
	}
	ts.genNs = float64(time.Since(t0)) / n
	return ts
}

// viaQuery and viaRaw select which of a system's entry points a load uses.
func viaQuery(s *liveSystem) queryFunc { return s.query }
func viaRaw(s *liveSystem) queryFunc   { return s.raw }

// load is what the callers of one phase share.
type load struct {
	systems []*liveSystem
	pick    func(*liveSystem) queryFunc
	ts      *targetStream
	next    atomic.Int64
}

// issue runs query number i and counts its outcome in t. It reports
// whether the query was delivered with the answer recorded at set-up.
func (l *load) issue(ctx context.Context, i int64, t *tally) bool {
	sys := l.systems[i%int64(len(l.systems))]
	target := l.ts.idx[i&int64(len(l.ts.idx)-1)]
	qr, err := l.pick(sys)(ctx, l.ts.names[target])
	t.attempted++
	switch {
	case err != nil || !qr.Found:
		return false
	case qr.Answer != sys.answers[target]:
		t.wrong++
		return false
	}
	t.delivered++
	t.hops += int64(qr.Hops)
	return true
}

// tally is the outcome count of one phase. wrong counts queries that were
// answered, but not with the target's own answer; they are not delivered.
type tally struct {
	attempted, delivered, wrong, hops int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.delivered += o.delivered
	t.wrong += o.wrong
	t.hops += o.hops
}

// closedResult is one closed-loop phase: every caller sends its next query
// when the previous one has answered.
type closedResult struct {
	tally
	elapsed time.Duration
	windows []int64 // delivered queries per closedWindow
	mallocs uint64
	bytes   uint64
}

// qps is the median of the per-window delivery rates; the last window is
// dropped because callers stop inside it.
func (c closedResult) qps() (float64, int64) {
	if len(c.windows) < 2 {
		return float64(c.delivered) / c.elapsed.Seconds(), 1
	}
	rates := make([]float64, 0, len(c.windows)-1)
	for _, n := range c.windows[:len(c.windows)-1] {
		rates = append(rates, float64(n)/closedWindow.Seconds())
	}
	return median(rates), int64(len(rates))
}

func runClosed(ctx context.Context, l *load, callers int, d time.Duration) closedResult {
	nWin := int(d/closedWindow) + 1
	per := make([]closedResult, callers)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(r *closedResult) {
			defer wg.Done()
			r.windows = make([]int64, nWin)
			for {
				var one tally
				ok := l.issue(ctx, l.next.Add(1)-1, &one)
				at := time.Since(start)
				if at >= d {
					return // answered after the phase ended: not counted
				}
				r.add(one)
				if ok {
					r.windows[at/closedWindow]++
				}
			}
		}(&per[c])
	}
	wg.Wait()
	out := closedResult{elapsed: time.Since(start), windows: make([]int64, nWin)}
	runtime.ReadMemStats(&m1)
	out.mallocs, out.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	for _, r := range per {
		out.add(r.tally)
		for w, n := range r.windows {
			out.windows[w] += n
		}
	}
	return out
}

// openOp is one open-loop query: when it was due, how late the generator
// sent it, and how long after its due time the answer arrived.
type openOp struct {
	due, late, lat time.Duration
	inst           int // which hierarchy served it
}

// openResult is one open-loop phase: query i is due at i/rate whatever
// happened to the queries before it, and its latency runs from that due
// time, so time spent waiting behind a stall is counted.
type openResult struct {
	tally
	ops []openOp
}

func runOpen(ctx context.Context, l *load, callers int, rate float64, spin bool, d time.Duration) openResult {
	interval := float64(time.Second) / rate
	per := make([]openResult, callers)
	first := l.next.Load()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(r *openResult) {
			defer wg.Done()
			r.ops = make([]openOp, 0, int(rate*d.Seconds())/callers+1024)
			for {
				i := l.next.Add(1) - 1
				due := time.Duration(float64(i-first) * interval)
				if due >= d {
					return
				}
				// A caller that only became free after the due time is late
				// because the system kept it, not because the generator
				// overslept: lateness is counted from whichever is later.
				ready := max(due, time.Since(start))
				waitUntil(start, due, spin)
				sent := time.Since(start)
				ok := l.issue(ctx, i, &r.tally)
				lat := time.Since(start) - due
				if !ok {
					lat = failPenalty
				}
				r.ops = append(r.ops, openOp{due: due, late: sent - ready, lat: lat, inst: int(i % int64(len(l.systems)))})
			}
		}(&per[c])
	}
	wg.Wait()
	var out openResult
	for _, r := range per {
		out.add(r.tally)
		out.ops = append(out.ops, r.ops...)
	}
	return out
}

// waitUntil returns once due has passed. A timer alone wakes tens of
// microseconds late, which over Mem is as long as a whole query takes, so
// with spin set it sleeps only while the due time is far, yields the
// processor while it is near, and holds it for the last 50 µs. Over TCP
// that is worse than the lateness it avoids: a goroutine that is always
// runnable keeps the scheduler from polling the network, and replies wait
// for the 10 ms sysmon tick.
func waitUntil(start time.Time, due time.Duration, spin bool) {
	for {
		rem := due - time.Since(start)
		switch {
		case rem <= 0:
			return
		case !spin:
			time.Sleep(rem)
		case rem > 300*time.Microsecond:
			time.Sleep(rem - 200*time.Microsecond)
		case rem > 50*time.Microsecond:
			runtime.Gosched()
		}
	}
}

// latencies summarises an open-loop phase. p50 and p90 are each the median
// over cells — one hierarchy during one second of due times — of that
// cell's percentile: one second with a scheduling stall in it, or one
// hierarchy whose draw of victims made detours long, moves them little.
// p99, p999 and max are over every query and hide nothing.
type latencies struct {
	p50, p90, p99, p999, max, lateP99 float64 // µs
	cells                             int64
}

func (o openResult) latencies(d time.Duration, instances int) latencies {
	nWin := int(d / openWindow)
	if nWin < 1 {
		nWin = 1
	}
	byCell := make([][]float64, nWin*instances)
	all := make([]float64, 0, len(o.ops))
	late := make([]float64, 0, len(o.ops))
	for _, op := range o.ops {
		us := float64(op.lat) / 1e3
		all = append(all, us)
		late = append(late, float64(op.late)/1e3)
		if w := int(op.due / openWindow); w < nWin {
			byCell[w*instances+op.inst] = append(byCell[w*instances+op.inst], us)
		}
	}
	var p50s, p90s []float64
	for _, w := range byCell {
		if len(w) == 0 {
			continue
		}
		sort.Float64s(w)
		p50s = append(p50s, quantile(w, 0.50))
		p90s = append(p90s, quantile(w, 0.90))
	}
	sort.Float64s(all)
	sort.Float64s(late)
	return latencies{
		p50: median(p50s), p90: median(p90s),
		p99: quantile(all, 0.99), p999: quantile(all, 0.999), max: quantile(all, 1), lateP99: quantile(late, 0.99),
		cells: int64(len(p50s)),
	}
}

// heapInuseMB is HeapInuse in MiB after a forced collection.
func heapInuseMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// sumSeries adds up every series of one metric name in a snapshot map.
func sumSeries(m map[string]int64, name string) int64 {
	var s int64
	for id, v := range m {
		if id == name || strings.HasPrefix(id, name+"{") {
			s += v
		}
	}
	return s
}

// runLive runs one live workload: with trace off the end-to-end phases,
// with trace on shorter phases for the counts plus the single-caller and
// traced passes for the layer times.
func runLive(ctx context.Context, spec liveSpec, sc scale, seed uint64, seconds float64, traced bool, outDir string) (*report, error) {
	spec.instances = min(spec.instances, sc.maxInstances)
	spec.openRate *= sc.rateFactor
	rep := newReport(spec.name)
	reg := obs.NewRegistry()
	build := func(rec *recorder) func(uint64) (*liveSystem, error) {
		return func(seed uint64) (*liveSystem, error) {
			if spec.tcp || rec != nil {
				return assembledSystem(ctx, assembleConfig{seed: seed, tcp: spec.tcp, reg: reg, rec: rec})
			}
			return clusterSystem(ctx, seed, reg)
		}
	}

	// Set-up, several times over: the systems beyond spec.instances exist
	// only so that setup_s is a median, and are stopped straight away. The
	// heap is measured before them, while it holds the workload's own
	// systems and nothing torn down.
	var systems []*liveSystem
	var setups []float64
	var seed0 uint64 // the seed instance 0 was built from
	defer func() {
		for _, s := range systems {
			s.stop()
		}
	}()
	for i := 0; i < max(spec.instances, sc.setupRepeats); i++ {
		if i == spec.instances {
			rep.set("heap_mb", heapInuseMB(), 1)
		}
		sys, took, instSeed, err := setUpInstance(ctx, spec, seed, i, build(nil))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			seed0 = instSeed
		}
		setups = append(setups, took.Seconds())
		if i < spec.instances {
			systems = append(systems, sys)
		} else {
			sys.stop()
		}
	}
	if len(setups) == spec.instances { // no extra set-ups: the loop never got to measure
		rep.set("heap_mb", heapInuseMB(), 1)
	}
	rep.set("setup_s", median(setups), int64(len(setups)))

	ts := newTargetStream(seed)
	total := time.Duration(seconds * float64(time.Second))
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }
	whole := &load{systems: systems, pick: viaQuery, ts: ts}

	// Warm-up, not measured: pools dial, lazy state fills, suspicion of the
	// dead settles.
	runClosed(ctx, whole, spec.callers, min(2*time.Second, share(0.1)))

	closedFor, openFor := share(0.4), share(0.6)
	if traced {
		closedFor, openFor = share(0.15), share(0.2)
	}
	before := reg.Snapshot()
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	closed := runClosed(ctx, whole, spec.callers, closedFor)
	open := runOpen(ctx, whole, spec.callers, spec.openRate, !spec.tcp, openFor)
	runtime.ReadMemStats(&gc1)
	after := reg.Snapshot()

	both := closed.tally
	both.add(open.tally)
	rep.attempted = both.attempted
	rep.failed = both.attempted - both.delivered
	rep.correct = both.wrong == 0
	if both.delivered == 0 {
		return nil, fmt.Errorf("%s: no query was delivered", spec.name)
	}
	lat := open.latencies(openFor, len(systems))
	if !traced {
		qps, windows := closed.qps()
		rep.set("qps", qps, windows)
		rep.set("p50_us", lat.p50, lat.cells)
		rep.set("p90_us", lat.p90, lat.cells)
		rep.set("delivery_ratio", float64(both.delivered)/float64(both.attempted), both.attempted)
		rep.set("hops_mean", float64(both.hops)/float64(both.delivered), both.delivered)
		return rep, nil
	}

	for _, name := range simOnlyLayers {
		rep.set(name, 0, 0)
	}
	// Counts: registry deltas over the two timed phases, per query.
	n := both.attempted
	delta := func(name string) float64 {
		return float64(sumSeries(after.Counters, name) - sumSeries(before.Counters, name))
	}
	perQuery := func(name string) float64 { return delta(name) / float64(n) }
	rep.set("node.forwards_per_query", perQuery("hours_queries_forwarded_total"), n)
	rep.set("transport.rpc_errors_per_query", perQuery("hours_rpc_client_errors_total"), n)
	rep.set("transport.retries_per_query", perQuery("hours_retry_attempts_total"), n)
	rep.set("transport.pool_dials", delta("hours_pool_dials_total"), n)
	rep.set("transport.pool_conns_open", float64(sumSeries(after.Gauges, "hours_pool_conns_open")), 1)
	rep.set("wire.bytes_per_query", perQuery("hours_codec_encode_bytes_total"), n)
	flushes, framesPerFlush := delta("hours_batch_flushes_total"), 0.0
	if flushes > 0 {
		framesPerFlush = delta("hours_batch_frames_total") / flushes
	}
	rep.set("wire.frames_per_flush", framesPerFlush, int64(flushes))
	rep.set("allocs_per_op", float64(closed.mallocs)/float64(closed.attempted), closed.attempted)
	rep.set("bytes_per_op", float64(closed.bytes)/float64(closed.attempted), closed.attempted)
	rep.set("fail_share", float64(rep.failed)/float64(n), n)
	rep.set("loadgen.late_p99_us", lat.lateP99, open.attempted)
	rep.set("loadgen.gen_ns_per_query", ts.genNs, int64(len(ts.idx)))
	rep.set("runtime.gc_cycles", float64(gc1.NumGC-gc0.NumGC), 1)
	rep.set("runtime.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6, int64(gc1.NumGC-gc0.NumGC))
	rep.set("tail.p99_us", lat.p99, open.attempted)
	rep.set("tail.p999_us", lat.p999, open.attempted)
	rep.set("tail.max_us", lat.max, open.attempted)

	// Single-caller passes on instance 0, untraced: the raw query is the
	// baseline the traced pass is compared with, and Cluster.Query minus
	// the raw query is the cluster layer's own time.
	one := systems[:1]
	rawPass := runClosed(ctx, &load{systems: one, pick: viaRaw, ts: ts}, 1, share(0.1))
	rawNs := float64(rawPass.elapsed) / float64(rawPass.attempted)
	clusterSelf := 0.0
	if !spec.tcp {
		qp := runClosed(ctx, &load{systems: one, pick: viaQuery, ts: ts}, 1, share(0.1))
		clusterSelf = float64(qp.elapsed)/float64(qp.attempted) - rawNs
	}
	rep.set("cluster.query_self_ns", clusterSelf, rawPass.attempted)
	for _, s := range systems {
		s.stop()
	}
	systems = nil

	return rep, tracedPass(ctx, rep, spec, seed0, build(newRecorder(sc.spanBudget)), ts, share(0.15), rawNs, outDir)
}

// tracedPass rebuilds instance 0 with the assembler, span decorators in,
// and runs one caller on it until the recorder's span budget or the time
// is spent. It fills in the layer times, computed from the trace file so
// that what is reported is what a reader of the file can recompute. rawNs
// is the untraced single-caller time per query the overhead is against.
func tracedPass(ctx context.Context, rep *report, spec liveSpec, seed uint64, build func(uint64) (*liveSystem, error),
	ts *targetStream, limit time.Duration, rawNs float64, outDir string) error {
	sys, _, err := setUp(ctx, spec, seed, build)
	if err != nil {
		return err
	}
	defer sys.stop()
	l := &load{systems: []*liveSystem{sys}, pick: viaQuery, ts: ts}
	runClosed(ctx, l, 1, min(500*time.Millisecond, limit/8)) // warm-up, recorder off
	rec := sys.rec
	var tr tally
	rec.on.Store(true)
	t0 := time.Now()
	for time.Since(t0) < limit && !rec.full() {
		id := rec.beginQuery()
		l.issue(ctx, l.next.Add(1)-1, &tr)
		rec.end(id, nil)
	}
	tracedNs := float64(time.Since(t0)) / float64(tr.attempted)
	rec.on.Store(false)
	rep.attempted += tr.attempted
	rep.failed += tr.attempted - tr.delivered
	rep.correct = rep.correct && tr.wrong == 0

	path := filepath.Join(outDir, "trace-"+spec.name+".json")
	if err := writeTrace(path, spec.name, rec.spans); err != nil {
		return err
	}
	spans, err := readTrace(path)
	if err != nil {
		return err
	}
	sum := summarize(spans)
	if sum.queries == 0 {
		return fmt.Errorf("%s: traced pass recorded no query", spec.name)
	}
	q := float64(sum.queries)
	stackSelf := float64(sum.selfNs[spanStack]+sum.selfNs[spanServed]) / q
	baseSelf := float64(sum.selfNs[spanBase]) / q
	handleSelf := float64(sum.selfNs[spanHandler]) / q
	rep.set("transport.stack_self_ns", stackSelf, sum.count[spanStack]+sum.count[spanServed])
	rep.set("transport.base_self_ns", baseSelf, sum.count[spanBase])
	rep.set("node.handle_self_ns", handleSelf, sum.count[spanHandler])
	rep.set("node.rpcs_per_query", float64(sum.count[spanStack])/q, int64(sum.queries))
	rep.set("node.failed_rpcs_per_query", float64(sum.failed[spanStack])/q, int64(sum.queries))
	rep.set("trace.coverage", (stackSelf+baseSelf+handleSelf)/tracedNs, int64(sum.spans))
	rep.set("trace.overhead_pct", 100*(tracedNs-rawNs)/rawNs, int64(sum.queries))
	return nil
}
