package overlay

import (
	"math/rand"
	"testing"

	"repro/internal/idspace"
)

// This file differential-tests the kernel-driven Route against a verbatim
// copy of the pre-kernel Algorithm 2/3 walk (referenceRoute below): seeded
// random overlays, fault patterns, and repair states must produce
// identical outcomes, exits, hop counts, and paths. check.sh runs it under
// -race; together with the kernel's own unit tests it is the structural
// guarantee that internal/routing implements exactly the discipline the
// sim (and therefore Figures 6-9) was validated on.

// referenceRoute is the pre-kernel Route implementation, kept as a
// test-local oracle.
func referenceRoute(o *Overlay, src, od int, opts RouteOptions) (Result, error) {
	if src < 0 || src >= o.n {
		return Result{}, errOutOfRange
	}
	if od < 0 || od >= o.n {
		return Result{}, errOutOfRange
	}
	if !o.alive[src] {
		return Result{}, errOutOfRange
	}
	maxHops := opts.MaxHops
	if maxHops <= 0 {
		maxHops = 3 * o.n
	}

	res := Result{Exit: src}
	u := src
	backward := false
	if opts.TracePath {
		res.Path = append(opts.PathBuf[:0], int32(src))
	}

	for {
		if u == od {
			res.Outcome = Delivered
			res.Exit = u
			return res, nil
		}
		if res.Hops >= maxHops {
			res.Outcome = Failed
			res.Exit = u
			return res, nil
		}

		if refHasUsableODEntry(o, u, od) {
			if o.alive[od] {
				if opts.Load != nil {
					opts.Load.Inc(u)
				}
				u = od
				res.Hops++
				if opts.TracePath {
					res.Path = append(res.Path, int32(od))
				}
				continue
			}
			res.Outcome = Exited
			res.Exit = u
			return res, nil
		}

		if !backward {
			next, ok := refBestGreedyHop(o, u, od)
			if ok {
				if opts.Load != nil {
					opts.Load.Inc(u)
				}
				u = next
				res.Hops++
				if opts.TracePath {
					res.Path = append(res.Path, int32(next))
				}
				continue
			}
			if o.design == Base {
				res.Outcome = Failed
				res.Exit = u
				return res, nil
			}
			backward = true
		}

		next := int(o.ccw[u])
		if next == u || !o.alive[next] {
			res.Outcome = Failed
			res.Exit = u
			return res, nil
		}
		if idspace.IndexDist(next, od, o.n) <= idspace.IndexDist(u, od, o.n) {
			res.Outcome = Failed
			res.Exit = u
			return res, nil
		}
		if opts.Load != nil {
			opts.Load.Inc(u)
		}
		u = next
		res.Hops++
		if opts.TracePath {
			res.Path = append(res.Path, int32(next))
		}
		res.BackwardHops++
	}
}

var errOutOfRange = &rangeErr{}

type rangeErr struct{}

func (*rangeErr) Error() string { return "reference: argument out of range" }

func refHasUsableODEntry(o *Overlay, u, od int) bool {
	if !o.HasEntry(u, od) {
		return false
	}
	if o.design == Enhanced || o.alive[od] {
		return true
	}
	return idspace.IndexDist(u, od, o.n) == 1
}

func refBestGreedyHop(o *Overlay, u, od int) (next int, ok bool) {
	dist := int32(idspace.IndexDist(u, od, o.n))
	t := o.Table(u) // Algorithm 1's entries and repair's, ascending
	for i := len(t) - 1; i >= 0; i-- {
		if t[i] > dist {
			continue
		}
		cand := idspace.IndexAdd(u, int(t[i]), o.n)
		if o.alive[cand] {
			return cand, true
		}
	}
	return 0, false
}

// diffCompare routes src->od through both implementations and fails on any
// observable divergence.
func diffCompare(t *testing.T, o *Overlay, src, od int, label string) {
	t.Helper()
	got, gotErr := o.Route(src, od, RouteOptions{TracePath: true})
	want, wantErr := referenceRoute(o, src, od, RouteOptions{TracePath: true})
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: route(%d,%d) err = %v, reference err = %v", label, src, od, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Outcome != want.Outcome || got.Exit != want.Exit ||
		got.Hops != want.Hops || got.BackwardHops != want.BackwardHops {
		t.Fatalf("%s: route(%d,%d) = %+v, reference = %+v", label, src, od, got, want)
	}
	if len(got.Path) != len(want.Path) {
		t.Fatalf("%s: route(%d,%d) path = %v, reference = %v", label, src, od, got.Path, want.Path)
	}
	for i := range got.Path {
		if got.Path[i] != want.Path[i] {
			t.Fatalf("%s: route(%d,%d) path = %v, reference = %v", label, src, od, got.Path, want.Path)
		}
	}
}

// TestRouteKernelDifferential sweeps overlay sizes, designs, eager and
// lazy tables, fault patterns, and repair states, asserting the kernel walk
// is byte-for-byte the algorithm the oracle implements.
func TestRouteKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	type shape struct{ n, k int }
	shapes := []shape{{2, 1}, {2, 3}, {3, 1}, {3, 3}, {5, 1}, {5, 3}, {17, 1}, {17, 3},
		{64, 1}, {64, 3}, {257, 1}, {257, 3}, {2000, 5}} // the last is the sim_attack ring
	if testing.Short() {
		shapes = []shape{{2, 1}, {5, 3}, {64, 1}, {64, 3}, {2000, 5}}
	}
	for _, design := range []Design{Base, Enhanced} {
		for _, sh := range shapes {
			if design == Base && sh.k != 1 {
				continue
			}
			for _, lazy := range []bool{false, true} {
				cfg := Config{N: sh.n, Design: design, K: sh.k, Seed: rng.Uint64(), Lazy: lazy}
				diffLifecycle(t, rng, cfg)
			}
		}
	}
}

// diffLifecycle walks one overlay through the states a figure run can put
// it in, comparing routes in each.
func diffLifecycle(t *testing.T, rng *rand.Rand, cfg Config) {
	t.Helper()
	n, k := cfg.N, cfg.K
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: healthy ring.
	diffSweep(t, rng, o, "healthy")

	// Phase 2: random failures at increasing rates.
	for _, rate := range []float64{0.1, 0.3, 0.6} {
		for i := 0; i < n; i++ {
			o.SetAlive(i, rng.Float64() >= rate)
		}
		diffSweep(t, rng, o, "faulty")
	}

	// Phase 3: a contiguous dead block (> k, the massive-failure shape
	// §4.3 exists for), then repair, then more routing — merged repair
	// entries and rewritten CCW pointers must stay equivalent.
	for i := 0; i < n; i++ {
		o.SetAlive(i, true)
	}
	start := rng.Intn(n)
	for d := 0; d < k+2 && d < n-1; d++ {
		o.SetAlive(idspace.IndexAdd(start, d, n), false)
	}
	diffSweep(t, rng, o, "gap")
	if cfg.Design != Enhanced {
		return
	}
	o.Repair()
	diffSweep(t, rng, o, "repaired")

	// Phase 4: the bridgers refresh their tables (§7), which discards the
	// repair entries merged into them, and then fall to the attack too:
	// the next repair must bridge the wider gap from scratch.
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if o.ExtraEntries(i) == 0 {
			continue
		}
		o.RegenerateTable(i, 1)
		fresh.RegenerateTable(i, 1)
		if o.ExtraEntries(i) != 0 || !equalTables(o.Table(i), fresh.Table(i)) {
			t.Fatalf("n=%d k=%d: node %d regenerated to %v with %d extras, a fresh overlay to %v",
				n, k, i, o.Table(i), o.ExtraEntries(i), fresh.Table(i))
		}
		if o.AliveCount() > 2 {
			o.SetAlive(i, false)
		}
	}
	diffSweep(t, rng, o, "regenerated")
	stats := o.Repair()
	created := 0
	for i := 0; i < n; i++ {
		created += o.ExtraEntries(i)
	}
	if created != stats.EntriesCreated {
		t.Fatalf("n=%d k=%d: second repair reports %d entries created, tables record %d",
			n, k, stats.EntriesCreated, created)
	}
	diffSweep(t, rng, o, "re-repaired")
}

func equalTables(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffSweep compares a batch of random (src, od) pairs plus every pair on
// small rings.
func diffSweep(t *testing.T, rng *rand.Rand, o *Overlay, label string) {
	t.Helper()
	n := o.Size()
	if n <= 8 {
		for src := 0; src < n; src++ {
			if !o.Alive(src) {
				continue
			}
			for od := 0; od < n; od++ {
				diffCompare(t, o, src, od, label)
			}
		}
		return
	}
	tried := 0
	for attempts := 0; tried < 60 && attempts < 600; attempts++ {
		src := rng.Intn(n)
		if !o.Alive(src) {
			continue
		}
		diffCompare(t, o, src, rng.Intn(n), label)
		tried++
	}
}
